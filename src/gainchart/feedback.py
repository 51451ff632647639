"""Controllability analysis and reduction to the permuted dual Brunovsky form.

The canonical pair (F_p, G_p) groups the state by levels of sizes
r_1 >= r_2 >= ... >= r_k (the Brunovsky indices, rank increments of the
controllability matrix): F_p is the nilpotent Weyr form with levels r, which
shifts each level-(i+1) coordinate to the same coordinate of level i, and the
inputs feed the coordinates of each level that do not persist to the next.

The transform is built by one path, for canonical pairs too: one integer scan
per pair, shared with the indices, keeps the independent columns of [G FG ...],
degree-major with smallest input index first: one chain per input (Luenberger).
The dual rows q_j (rows of the inverse nice-basis matrix at the chain ends),
longest chain first, generate P^{-1} as a truncated observability matrix of
F with levels r: level i+1 holds q_j F^i for the chains longer than i.
Q is read off the chain-end rows of the transformed input matrix, and the
feedback R annihilates those rows of the transformed state matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from operator import mul

from .canonical import SpectralData, degrees_desc, weyr_union
from .errors import UncontrollableError, VerificationError
from .linalg import RatMatrix, _lowest, _reduced
from .observability import assemble
from .partitions import Partition
from .poly import InvariantChain


@dataclass(frozen=True)
class ControlPair:
    F: RatMatrix
    G: RatMatrix

    def __post_init__(self):
        if not self.F.is_square():
            raise ValueError("state matrix must be square")
        if self.G.rows != self.F.rows:
            raise ValueError("input matrix row count must match the state dimension")

    @property
    def n(self) -> int:
        return self.F.rows

    @property
    def m(self) -> int:
        return self.G.cols

    @cached_property
    def chains(self):
        """Greedy independent columns of [G FG F^2G ...], degree-major, inputs ascending:
        (k, kept columns, the input owning each), shared by ``controllability_indices`` and
        ``to_p_brunovsky``. Each F^d g_j, as an integer column v, is reduced once against the
        integer echelon basis of the kept columns: v <- b_p v - v_p b zeroes v at the pivot p
        of b and keeps earlier pivots zero. A nonzero remainder is independent of the columns
        before it, as a pivot column is, and joins the basis over its content. A dropped
        column's children are never independent, so only kept columns go on: one chain per
        input, r_{d+1} alive at degree d. Each candidate is one pass over at most n basis
        vectors and at most n are kept, so it ends. Raises UncontrollableError with the rank."""
        L = lcm(*(d for _, d in self.F.int_rows()))
        F = [[x * (L // d) for x in row] for row, d in self.F.int_rows()]  # L F, in integers
        basis, kept, owner = [], [], []
        alive = list(enumerate(self.G.transpose().int_rows()))  # (j, F^d g_j over its denominator)
        while alive and len(basis) < self.n:
            survivors = []
            for j, (w, den) in alive:
                v = w
                for b, p in basis:
                    if f := v[p]:
                        v = [b[p] * x - f * y for x, y in zip(v, b)]
                if any(v):
                    g = gcd(*v)
                    basis.append(([x // g for x in v], next(i for i, x in enumerate(v) if x)))
                    kept.append((w, den))
                    owner.append(j)
                    survivors.append((j, _reduced([sum(map(mul, row, w)) for row in F], den * L)))
            alive = survivors
        if len(basis) < self.n:
            raise UncontrollableError(len(basis), self.n)
        k = Partition(sorted((owner.count(j) for j in set(owner)), reverse=True))
        return k, _lowest([w for w, _ in kept], [d for _, d in kept], self.n).transpose(), tuple(owner)


@dataclass(frozen=True)
class BrunovskyData:
    """Canonical pair plus the feedback-group transform reaching it.

    The transform satisfies [Fp Gp] = P^{-1} [F G] [[P, 0], [R, Q]], i.e.
    Fp = P^{-1}(F P + G R) and Gp = P^{-1} G Q, all exactly; Pinv = P^{-1}, Qinv = Q^{-1}.
    """

    k: Partition
    r: Partition
    rank_g: int
    P: RatMatrix
    Pinv: RatMatrix
    Q: RatMatrix
    Qinv: RatMatrix
    R: RatMatrix
    Fp: RatMatrix
    Gp: RatMatrix

    def psi(self, K: RatMatrix) -> RatMatrix:
        """Carry a gain for the original pair to one for (Fp, Gp)."""
        return self.Qinv @ (K @ self.P - self.R)

    def psi_inv(self, Kp: RatMatrix) -> RatMatrix:
        """Carry a gain for (Fp, Gp) back to the original pair."""
        return (self.Q @ Kp + self.R) @ self.Pinv


def controllability_indices(cp: ControlPair):
    """Controllability indices k and Brunovsky indices r of a pair."""
    return cp.chains[0], cp.chains[0].conjugate()


def chain_ends(r: Partition) -> list:
    """Level-major position of each chain's last coordinate, longest chain first.

    Chain j (from 0) has length k_{j+1} for k = r^T and holds position j of
    every level it reaches.
    """
    starts = [0, *accumulate(r.parts)]
    return [starts[length - 1] + j for j, length in enumerate(r.conjugate())]


def p_brunovsky_pair(r: Partition, m: int):
    """The canonical pair (Fp, Gp) with level sizes r and m inputs.

    Fp is the nilpotent Weyr form with levels r; Gp feeds the coordinates of
    each level that do not persist to the next one, deepest level first,
    through the leading inputs. Raises ValueError when m < r_1.
    """
    if m < r.part(1):
        raise ValueError(f"{m} inputs cannot feed {r.part(1)} chains")
    n = r.total()
    eye = RatMatrix.identity(n)
    starts = [0, *accumulate(r.parts)]
    # column start_{i+1} + t of Fp is the unit column of row start_i + t
    shifted = [starts[i] + t for i in range(len(r)) for t in range(r.part(i + 2))]
    Fp = RatMatrix.hstack([RatMatrix.zeros(n, r.part(1)), eye.take_cols(shifted)])
    ends = chain_ends(r)
    return Fp, RatMatrix.hstack([eye.take_cols(ends), RatMatrix.zeros(n, m - len(ends))])


def to_p_brunovsky(cp: ControlPair) -> BrunovskyData:
    """Reduce a controllable pair to permuted dual Brunovsky form."""
    n, m = cp.n, cp.m
    k, kept, owner = cp.chains
    r = k.conjugate()
    Fp, Gp = p_brunovsky_pair(r, m)

    # inputs driving chains, longest first; q_j, solved from q_j kept = e_c for
    # c the last kept column of chain j, and P^-1 stacks q_j F^i level by level
    sigma = sorted(set(owner), key=lambda j: (-owner.count(j), j))
    last = {j: c for c, j in enumerate(owner)}
    Pinv = assemble(cp.F, r, kept.solve(RatMatrix.identity(n).take_rows(last[j] for j in sigma))).P
    P = Pinv.inverse()

    ends = chain_ends(r)
    Gh = Pinv @ cp.G
    if not Gh.take_rows(i for i in range(n) if i not in ends).is_zero():
        raise VerificationError("input image escaped the chain-end rows")

    # Q^-1 stacks the chain-end rows of P^-1 G on the unit rows of the other
    # inputs; Q's first rank G columns then meet the chain ends, the rest their kernel
    eye = RatMatrix.identity(m)
    Qinv = RatMatrix.vstack([Gh.take_rows(ends), *(eye.row(c) for c in range(m) if c not in sigma)])
    Q = Qinv.inverse()
    # R wipes the chain-end rows of P^-1 F P through the inputs; those rows
    # are the tails q_j F^{k_j} times P
    R = -(Q.take_cols(range(r.part(1))) @ ((Pinv.take_rows(ends) @ cp.F) @ P))

    # [Fp Gp] = P^{-1} [F G] [[P, 0], [R, Q]], checked without inverting P
    if cp.F @ P + cp.G @ R != P @ Fp or cp.G @ Q != P @ Gp:
        raise VerificationError("canonical pair pattern mismatch")
    return BrunovskyData(k=k, r=r, rank_g=r.part(1), P=P, Pinv=Pinv, Q=Q, Qinv=Qinv,
                         R=R, Fp=Fp, Gp=Gp)


@dataclass(frozen=True)
class Feasibility:
    """Both majorization criteria for indices k and a target class.

    ``segre_ok``: k is majorized by the invariant-polynomial degrees.
    ``weyr_ok``: the union of the Weyr characteristics is majorized by the
    Brunovsky indices r = k^T. They are equivalent; ``feasibility`` checks it.
    """

    k: Partition
    degrees: Partition
    weyr_union: Partition
    segre_ok: bool
    weyr_ok: bool


def feasibility(k: Partition, target) -> Feasibility:
    """Assignability report for controllability indices k and a target class.

    With k.total() above the class size d (a non-square truncated
    observability matrix) the tests take their weak forms: tail sums of k
    dominate those of the degrees, and prefix sums of the Weyr union stay at
    or below those of r. Raises VerificationError if the two disagree.
    """
    if isinstance(target, InvariantChain):
        degs = Partition(target.degrees_desc())
        union_w = degs.conjugate()
    elif isinstance(target, SpectralData):
        degs = degrees_desc(target)
        union_w = weyr_union(target)
    else:
        raise TypeError("target must be an InvariantChain or SpectralData")
    slack = k.total() - degs.total()
    if slack < 0:
        raise ValueError(
            f"size mismatch: indices sum to {k.total()}, "
            f"the class needs at least {degs.total()}"
        )
    r = k.conjugate()
    length = max(len(k), len(degs), len(union_w), len(r))
    K, D, W, R = (
        list(accumulate(p.part(i) for i in range(1, length + 1)))
        for p in (k, degs, union_w, r)
    )
    segre_ok = all(a - b <= slack for a, b in zip(K, D))
    weyr_ok = all(a <= b for a, b in zip(W, R))
    if segre_ok != weyr_ok:
        raise VerificationError("majorization test and its dual disagree")
    return Feasibility(k, degs, union_w, segre_ok, weyr_ok)


def rosenbrock_feasible(k: Partition, target) -> bool:
    """Assignability test for controllability indices k and a target class."""
    report = feasibility(k, target)
    if k.total() != report.degrees.total():
        raise ValueError(
            f"size mismatch: indices sum to {k.total()}, class has size "
            f"{report.degrees.total()}"
        )
    return report.segre_ok
