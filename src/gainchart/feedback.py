"""Controllability analysis and reduction to the permuted dual Brunovsky form.

The canonical pair (F_p, G_p) groups the state by levels of sizes
r_1 >= r_2 >= ... >= r_k (the Brunovsky indices, rank increments of the
controllability matrix): F_p shifts each level-(i+1) coordinate to the same
coordinate of level i, and the inputs feed the coordinates of each level that
do not persist to the next one.

The transform is built deterministically: select pivot columns of
[G FG F^2G ...] degree-major with smallest input index first, sort chains by
length (stable), form the dual rows q_j (rows of the inverse nice-basis
matrix at the chain ends) whose iterates give a controller-form basis, then
read off the input transform Q from the lower-unitriangular chain/input
coupling and the feedback R that annihilates the chain-end rows; a final
permutation regroups chain-major coordinates into level-major ones. Pairs
already in canonical form short-circuit to the identity transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .canonical import SpectralData, degrees_desc, jordan_weyr_order, weyr_union
from .errors import UncontrollableError, VerificationError
from .linalg import RatMatrix, RowSpan
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
    Fp = P^{-1}(F P + G R) and Gp = P^{-1} G Q, all exactly; Pinv = P^{-1}.
    """

    k: Partition
    r: Partition
    rank_g: int
    P: RatMatrix
    Pinv: RatMatrix
    Q: RatMatrix
    R: RatMatrix
    Fp: RatMatrix
    Gp: RatMatrix

    def psi(self, K: RatMatrix) -> RatMatrix:
        """Carry a gain for the original pair to one for (Fp, Gp)."""
        return self.Q.inverse() @ (K @ self.P - self.R)

    def psi_inv(self, Kp: RatMatrix) -> RatMatrix:
        """Carry a gain for (Fp, Gp) back to the original pair."""
        return (self.Q @ Kp + self.R) @ self.Pinv


def _chain_lengths(cp: ControlPair):
    """Crate-order pivot selection in [G FG F^2G ...].

    Returns the controllability indices, per-input chain lengths and the
    selected columns, scanning degree by degree and keeping a column only
    while its lower-degree parent was kept. The rank increment at degree i
    equals the number of inputs still alive, which makes the sorted lengths
    the controllability indices. Raises UncontrollableError when the
    controllability matrix is rank deficient, reporting its rank.
    """
    F, G = cp.F, cp.G
    n, m = F.rows, G.cols
    span = RowSpan()
    lengths = [0] * m
    vectors = {}  # input -> list of kept iterates (column vectors as tuples)
    alive = list(range(m))
    cols = [tuple(G[i, j] for i in range(n)) for j in range(m)]
    degree = 0
    while alive and degree < n:
        surviving = []
        for j in alive:
            if span.try_add(RatMatrix([cols[j]])):
                lengths[j] += 1
                vectors.setdefault(j, []).append(cols[j])
                surviving.append(j)
        alive = surviving
        if alive:
            cols = [
                tuple(
                    sum(F[i, t] * cols[j][t] for t in range(n)) for i in range(n)
                )
                if j in alive
                else cols[j]
                for j in range(m)
            ]
        degree += 1
    if sum(lengths) < n:
        raise UncontrollableError(sum(lengths), n)
    return Partition(sorted(lengths, reverse=True)), lengths, vectors


def controllability_indices(cp: ControlPair):
    """Controllability indices k and Brunovsky indices r of a pair."""
    k, _, _ = _chain_lengths(cp)
    return k, k.conjugate()


def p_brunovsky_pair(r: Partition, m: int):
    """The canonical pair (Fp, Gp) with level sizes r and m inputs."""
    levels = r.parts
    k = len(levels)
    n = r.total()
    starts = [0]
    for ri in levels:
        starts.append(starts[-1] + ri)
    fp = RatMatrix.zeros(n, n).tolists()
    for i in range(k - 1):
        for t in range(levels[i + 1]):
            fp[starts[i] + t][starts[i + 1] + t] = Fraction(1)
    gp = RatMatrix.zeros(n, m).tolists()
    # input column widths, left to right: r_k - r_{k+1}, r_{k-1} - r_k, ...
    col = 0
    for i in range(k, 0, -1):
        width = levels[i - 1] - (levels[i] if i < k else 0)
        nxt = levels[i] if i < k else 0
        for t in range(width):
            gp[starts[i - 1] + nxt + t][col + t] = Fraction(1)
        col += width
    return RatMatrix(fp), RatMatrix(gp)


def to_p_brunovsky(cp: ControlPair) -> BrunovskyData:
    """Reduce a controllable pair to permuted dual Brunovsky form."""
    n, m = cp.n, cp.m
    k, lengths, vectors = _chain_lengths(cp)
    r = k.conjugate()
    rank_g = r.part(1)

    Fp, Gp = p_brunovsky_pair(r, m)
    if cp.F == Fp and cp.G == Gp:
        return BrunovskyData(
            k=k, r=r, rank_g=rank_g,
            P=RatMatrix.identity(n), Pinv=RatMatrix.identity(n), Q=RatMatrix.identity(m),
            R=RatMatrix.zeros(m, n), Fp=Fp, Gp=Gp,
        )

    order = sorted(range(m), key=lambda j: (-lengths[j], j))
    sigma = [j for j in order if lengths[j] > 0]  # inputs driving chains
    chains = [vectors[j] for j in sigma]

    # nice basis, chain-major ascending powers; dual rows at the chain ends
    X = RatMatrix([list(col) for chain in chains for col in chain]).transpose()
    Xi = X.inverse()
    ends = []
    pos = 0
    for chain in chains:
        pos += len(chain)
        ends.append(pos - 1)
    q_rows = [Xi.rowlist(e) for e in ends]

    # rows q_j F^t of Pt chain by chain; tails[j] = q_j F^{len_j}
    ptilde_rows = []
    tails = []
    for j, chain in enumerate(chains):
        row = q_rows[j]
        for _ in range(len(chain)):
            ptilde_rows.append(row)
            row = [
                sum(row[t] * cp.F[t, c] for t in range(n)) for c in range(n)
            ]
        tails.append(row)
    Pt = RatMatrix(ptilde_rows)
    Pti = Pt.inverse()

    Gh = Pt @ cp.G
    rnk = len(sigma)
    gamma = Gh.take_rows(ends)
    for i in range(n):
        if i not in ends and any(Gh[i, j] != 0 for j in range(m)):
            raise VerificationError("input image escaped the chain-end rows")

    # Q: first rnk columns solve gamma q = e_j supported on the chain inputs;
    # the rest complete a kernel basis on the remaining inputs.
    gamma_sigma = gamma.take_cols(sigma)
    gsi = gamma_sigma.inverse()
    qcols = []
    for j in range(rnk):
        col = [Fraction(0)] * m
        for t in range(rnk):
            col[sigma[t]] = gsi[t, j]
        qcols.append(col)
    others = [c for c in range(m) if c not in sigma]
    for c in others:
        gc = [gamma[t, c] for t in range(rnk)]
        coeff = [sum(gsi[t, s] * gc[s] for s in range(rnk)) for t in range(rnk)]
        col = [Fraction(0)] * m
        col[c] = Fraction(1)
        for t in range(rnk):
            col[sigma[t]] -= coeff[t]
        qcols.append(col)
    Q = RatMatrix([list(row) for row in zip(*qcols)])

    # R wipes the chain-end rows of Pt F Pt^{-1}, tails Pt^{-1}, through the inputs.
    target = -(RatMatrix(tails) @ Pti)
    R = Q @ RatMatrix(target.tolists() + [[Fraction(0)] * n for _ in range(m - rnk)])

    # chain-major -> level-major column order S: P = Pt^{-1} S, P^{-1} = S^T Pt
    order = jordan_weyr_order(k)
    P, Pinv = Pti.take_cols(order), Pt.take_rows(order)
    Rt = R.take_cols(order)
    # [Fp Gp] = P^{-1} [F G] [[P, 0], [R, Q]], checked without inverting P
    if cp.F @ P + cp.G @ Rt != P @ Fp or cp.G @ Q != P @ Gp:
        raise VerificationError("canonical pair pattern mismatch")
    return BrunovskyData(k=k, r=r, rank_g=rank_g, P=P, Pinv=Pinv, Q=Q, R=Rt, Fp=Fp, Gp=Gp)


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
