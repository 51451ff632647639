"""Controllability analysis and reduction to the permuted dual Brunovsky form.

The canonical pair (F_p, G_p) groups the state by levels of sizes
r_1 >= r_2 >= ... >= r_k (the Brunovsky indices, rank increments of the
controllability matrix): F_p is the nilpotent Weyr form with levels r, which
shifts each level-(i+1) coordinate to the same coordinate of level i, and the
inputs feed the coordinates of each level that do not persist to the next.

The transform is built by one path, for canonical pairs too: a pivot scan per
degree selects the independent columns of [G FG F^2G ...], degree-major with
smallest input index first, which form one chain per input (Luenberger).
Chains are sorted by length (stable); the dual rows q_j (rows of the inverse
nice-basis matrix at the chain ends) and their iterates give a
controller-form basis. Q is read off the chain-end rows of the transformed
input matrix, the feedback R annihilates those rows, and a final column
order regroups chain-major coordinates into level-major ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .canonical import (
    SpectralData,
    WeyrStructure,
    chain_block,
    degrees_desc,
    jordan_weyr_order,
    weyr_union,
)
from .errors import UncontrollableError, VerificationError
from .linalg import RatMatrix
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


def _chain_lengths(cp: ControlPair):
    """Greedy independent columns of [G FG F^2G ...], degree-major, inputs ascending.

    Returns the controllability indices, the kept columns and the input owning
    each one. Degree by degree, the pivots of [kept | F^d g_j for the inputs
    still alive] beyond the kept columns name the inputs that survive; a
    column whose parent F^{d-1} g_j was dropped is never independent, so the
    kept columns form one chain per input and the number of inputs alive at
    degree d is the rank increment r_{d+1}. Raises UncontrollableError when
    the controllability matrix is rank deficient, reporting its rank.
    """
    F, G = cp.F, cp.G
    n = F.rows
    kept, owner = RatMatrix.zeros(n, 0), []
    alive, cur = list(range(G.cols)), G
    while alive and kept.cols < n:
        fresh = [p - kept.cols for p in RatMatrix.hstack([kept, cur]).pivots()[kept.cols:]]
        alive = [alive[t] for t in fresh]
        cur = cur.take_cols(fresh)
        kept = RatMatrix.hstack([kept, cur])
        owner += alive
        cur = F @ cur
    if kept.cols < n:
        raise UncontrollableError(kept.cols, n)
    return Partition(sorted((owner.count(j) for j in set(owner)), reverse=True)), kept, owner


def controllability_indices(cp: ControlPair):
    """Controllability indices k and Brunovsky indices r of a pair."""
    k = _chain_lengths(cp)[0]
    return k, k.conjugate()


def p_brunovsky_pair(r: Partition, m: int):
    """The canonical pair (Fp, Gp) with level sizes r and m inputs.

    Fp is the nilpotent Weyr form with levels r; Gp feeds the coordinates of
    each level that do not persist to the next one, deepest level first,
    through the leading inputs.
    """
    n = r.total()
    starts = [0, *accumulate(r.parts)]
    fed = [
        starts[i] + t for i in reversed(range(len(r))) for t in range(r.part(i + 2), r.part(i + 1))
    ]
    Fp = chain_block(WeyrStructure(r.conjugate(), False, 0), r.parts)
    return Fp, RatMatrix.hstack([RatMatrix.identity(n).take_cols(fed), RatMatrix.zeros(n, m - len(fed))])


def to_p_brunovsky(cp: ControlPair) -> BrunovskyData:
    """Reduce a controllable pair to permuted dual Brunovsky form."""
    n, m = cp.n, cp.m
    k, kept, owner = _chain_lengths(cp)
    r = k.conjugate()
    Fp, Gp = p_brunovsky_pair(r, m)

    # inputs driving chains, longest first; nice basis chain-major, ascending powers
    sigma = sorted(set(owner), key=lambda j: (-owner.count(j), j))
    X = kept.take_cols(c for j in sigma for c, o in enumerate(owner) if o == j)
    ends = [e - 1 for e in accumulate(owner.count(j) for j in sigma)]

    # rows q_j F^t of Pt chain by chain, q_j the dual row at chain end j;
    # tails[j] = q_j F^{len_j}
    Xi = X.inverse()
    rows, tails = [], []
    for j, e in zip(sigma, ends):
        row = Xi.row(e)
        for _ in range(owner.count(j)):
            rows.append(row)
            row = row @ cp.F
        tails.append(row)
    Pt = RatMatrix.vstack(rows)
    Pti = Pt.inverse()

    Gh = Pt @ cp.G
    if not Gh.take_rows(i for i in range(n) if i not in ends).is_zero():
        raise VerificationError("input image escaped the chain-end rows")

    # Q = [S gamma_s^-1 | E - S gamma_s^-1 gamma_o]: the first columns meet the
    # chain ends on the chain inputs, the rest span the kernel of gamma; Q^-1
    # stacks gamma ([I 0] against Q) on the rows of the other inputs ([0 I])
    gamma = Gh.take_rows(ends)
    others = [c for c in range(m) if c not in sigma]
    eye = RatMatrix.identity(m)
    SG = eye.take_cols(sigma) @ gamma.take_cols(sigma).inverse()
    Q = RatMatrix.hstack([SG, eye.take_cols(others) - SG @ gamma.take_cols(others)])
    Qinv = RatMatrix.vstack([gamma, *(eye.row(c) for c in others)])
    # R wipes the chain-end rows of Pt F Pt^{-1}, tails Pt^{-1}, through the inputs
    R = SG @ -(RatMatrix.vstack(tails) @ Pti)

    # chain-major -> level-major column order S: P = Pt^{-1} S, P^{-1} = S^T Pt
    order = jordan_weyr_order(k)
    P, Pinv = Pti.take_cols(order), Pt.take_rows(order)
    Rt = R.take_cols(order)
    # [Fp Gp] = P^{-1} [F G] [[P, 0], [R, Q]], checked without inverting P
    if cp.F @ P + cp.G @ Rt != P @ Fp or cp.G @ Q != P @ Gp:
        raise VerificationError("canonical pair pattern mismatch")
    return BrunovskyData(k=k, r=r, rank_g=r.part(1), P=P, Pinv=Pinv, Q=Q, Qinv=Qinv,
                         R=Rt, Fp=Fp, Gp=Gp)


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
