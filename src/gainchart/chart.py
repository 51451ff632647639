"""Local parametrization of the feedback gains assigning a similarity class.

Pipeline for a controllable pair (F, G) and a factored target class:

1. reduce (F, G) to the canonical pair, carrying the feedback-group
   transform; feasibility is the index/degree majorization test;
2. fix the target's real Weyr form A and a multi-index; coordinates fill the
   blockwise normal-form pattern of a generating top block, which assembles
   into a square intertwining matrix P_x;
3. the gain for the canonical pair sends each generator row p_j to
   p_j A^{k_j} through P_x^{-1}; stacking a free block for the inputs beyond
   rank G and pulling back through the feedback transform gives the gain for
   the original pair.

The inverse map recovers an intertwining matrix from the gain by solving the
generator-row linear system, reduces it to the normal form of the chart's
multi-index, and reads the coordinates back off the free entries. The system
of spectral block beta is S_beta = sum_i W_i (x) (A_beta^i)^T (the vec
identity), W_i[j, a] = [i = k_j][j = a] - K1[j, start_i + a] weighing p_a A^i
in generator row j; the powers of A are block diagonal by eigenvalue, so the
null space, of dimension N = sum N_beta, is the direct sum of the block ones.
Put in Jordan order (Jordan block t holds cell t of the first s_t levels, the
cells ``chain_block`` links), A_beta is the direct sum of its Jordan blocks,
so S_beta splits into one system per Jordan block; blocks of one size s share
one, whose null space has dimension h * sum_u min(s, s_u).
``chart_for_gain`` picks the chart of a given gain and returns
(chart, member), so that ``coordinates`` reads that member instead of
recovering it again.

Every synthesized gain is verified before being returned, on the canonical
closed loop. ``to_p_brunovsky`` has checked F P + G R = P Fp and G Q = P Gp
exactly, with P invertible. If K P = Q Kp + R also holds exactly, then
(F + G K) P = F P + G R + G Q Kp = P (Fp + Gp Kp), so F + G K is similar to
Fp + Gp Kp and has the same invariant polynomials; those of the small-entry
Fp + Gp Kp are the ones computed and compared with the target.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate

from .canonical import (
    SpectralData,
    centralizer_dimension,
    checked_centralizer_dimension,
    invariant_chain,
    weyr_from_spectral,
)
from .errors import (
    ChartDomainError,
    InfeasibleError,
    NotInChartError,
    NotInClassError,
    VerificationError,
)
from .feedback import BrunovskyData, ControlPair, chain_ends, rosenbrock_feasible, to_p_brunovsky
from .linalg import RatMatrix, SingularMatrixError, _frac, kron_sum
from .observability import (
    TruncObsMatrix,
    assemble,
    check_multi_index,
    find_multi_index,
    is_admissible,
    member_cells,
)
from .partitions import Partition
from .poly import InvariantChain, invariant_polynomials
from .reduction import fill_block_params, reduce


@dataclass(frozen=True)
class FeedbackGain:
    """A gain K, optionally carrying the chart coordinates that produced it."""

    K: RatMatrix
    coords: tuple | None = None
    K2: RatMatrix | None = None


@dataclass(frozen=True)
class Chart:
    pair: ControlPair
    sd: SpectralData
    chain: InvariantChain
    bd: BrunovskyData
    A: RatMatrix
    structures: tuple
    mi: tuple
    N: int
    dim: int

    @property
    def n(self) -> int:
        return self.pair.n

    @property
    def m(self) -> int:
        return self.pair.m

    @property
    def r(self) -> Partition:
        return self.bd.r

    @property
    def rank_g(self) -> int:
        return self.bd.rank_g

    @cached_property
    def generator_system(self):
        """(U, cols, systems) of ``recover_member``, built once per chart.

        U[j, k_j * rank G + j] = 1, ``cols`` takes [K1 | 0] to the slabs of W,
        and systems[beta] = (powers, perm): powers[s] lists (J^T)^i, i = 0..k_1,
        J the Jordan block of size s read off A_beta, for each distinct Segre
        part s, and perm[a * n_beta + c] is the place of that unknown in Jordan order."""
        rr, k = self.rank_g, self.bd.k
        starts = list(accumulate(self.r.parts, initial=0))
        cols = [starts[i] + a if a < self.r.part(i + 1) else self.n
                for i in range(k.part(1) + 1) for a in range(rr)]
        U = RatMatrix.identity(len(cols)).take_rows(k.part(j + 1) * rr + j for j in range(rr))
        systems, off = [], 0
        for ws in self.structures:
            h, levels = ws.h, list(accumulate(ws.weyr.parts, initial=0))
            jordan = [[off + h * (levels[i] + t) + e for i in range(s) for e in range(h)]
                      for t, s in enumerate(ws.segre)]
            powers = {}
            for s, idx in dict(zip(ws.segre, jordan)).items():  # equal sizes, equal blocks
                JT, block = self.A.take_rows(idx).take_cols(idx).transpose(), [RatMatrix.identity(h * s)]
                for _ in range(k.part(1)):
                    block.append(JT @ block[-1])  # JT commutes with its powers; sparse rows lead
                powers[s] = block
            order = [a * ws.real_cols + c - off for idx in jordan for a in range(rr) for c in idx]
            systems.append((powers, sorted(range(len(order)), key=order.__getitem__)))
            off += ws.real_cols
        return U, cols, systems


def default_multi_index(structures) -> tuple:
    """Leading-row multi-index: stage j takes the first t_j rows."""
    return tuple(tuple(range(1, ws.tau(ws.m) + 1)) for ws in structures)


def build_chart(F: RatMatrix, G: RatMatrix, sd: SpectralData, multi_index=None) -> Chart:
    """Construct a chart for the given pair and target class.

    Raises UncontrollableError / InfeasibleError when no gain exists, before the transform.
    ``multi_index`` pins the chart: one row-index list per spectral block,
    each validated against that block's Weyr structure and kept as a tuple;
    the default is the leading-row selection.
    """
    pair = ControlPair(F, G)
    if sd.n != pair.n:
        raise ValueError(
            f"target class has size {sd.n}, state dimension is {pair.n}"
        )
    k, chain = pair.chains[0], invariant_chain(sd)
    if not rosenbrock_feasible(k, chain):
        raise InfeasibleError(
            "no gain assigns this class: controllability indices "
            f"{k.parts} are not majorized by the degree sequence "
            f"{chain.degrees_desc()}"
        )
    bd = to_p_brunovsky(pair)
    A, structures = weyr_from_spectral(sd)
    N = checked_centralizer_dimension(chain, structures)
    mi = default_multi_index(structures) if multi_index is None else tuple(map(tuple, multi_index))
    check_multi_index(mi, structures, bd.rank_g)
    dim = pair.n * bd.rank_g - N
    return Chart(
        pair=pair, sd=sd, chain=chain, bd=bd, A=A,
        structures=tuple(structures), mi=mi, N=N, dim=dim,
    )


def manifold_dimension(n: int, m: int, chain: InvariantChain) -> int:
    """Dimension n*m - N of the full gain manifold."""
    return n * m - centralizer_dimension(chain)


def nu(chart: Chart, x) -> TruncObsMatrix:
    """Coordinates to the reduced-pattern member P_x (not yet rank-checked)."""
    coords = [_frac(v) for v in x]
    if len(coords) != chart.dim:
        raise ValueError(f"expected {chart.dim} coordinates, got {len(coords)}")
    it = iter(coords)
    rr = chart.rank_g
    P1 = RatMatrix.hstack(
        fill_block_params(ws, seq, rr, it) for ws, seq in zip(chart.structures, chart.mi)
    )
    return assemble(chart.A, chart.r, P1)


def in_domain(chart: Chart, x) -> bool:
    """Domain predicate of the chart: the assembled member is invertible."""
    return nu(chart, x).P.rank() == chart.n


def phi(obs: TruncObsMatrix, k: Partition) -> RatMatrix:
    """Gain block for the canonical pair: rows p_j A^{k_j} P^{-1}.

    Row j of level k_j of the member is already p_j A^{k_j - 1}, so each gain
    row is one product with A away; the block is solved, not multiplied by P^{-1}.
    """
    P = obs.P
    if P.rows != P.cols:
        raise ValueError("the chart pipeline needs a square member")
    if k.conjugate() != obs.r:
        raise ValueError(f"indices {k.parts} do not match the member levels {obs.r.parts}")
    last = P.take_rows(chain_ends(obs.r))
    return P.solve(last @ obs.A)


def synthesize(chart: Chart, x, K2: RatMatrix | None = None) -> FeedbackGain:
    """Gain at chart coordinates x, pulled back to the original pair.

    K2 is the free block for inputs beyond rank G (defaults to zero). The
    result is verified exactly by two checks: K P = Q Kp + R (the pull-back
    arithmetic), and Fp + Gp Kp has the prescribed invariant polynomials.
    With the transform identities F P + G R = P Fp and G Q = P Gp, which
    ``to_p_brunovsky`` verified, and P invertible, the first gives
    (F + G K) P = P (Fp + Gp Kp), so F + G K has the same invariant
    polynomials as Fp + Gp Kp.
    """
    x = tuple(_frac(v) for v in x)
    obs = nu(chart, x)
    n, m, rr = chart.n, chart.m, chart.rank_g
    try:
        K1 = phi(obs, chart.bd.k)
    except SingularMatrixError as e:
        raise ChartDomainError(
            "coordinates leave the chart domain: assembled member is "
            f"singular (column {e.column} dependent)"
        ) from None
    if m > rr:
        if K2 is None:
            K2 = RatMatrix.zeros(m - rr, n)
        if K2.shape != (m - rr, n):
            raise ValueError(f"K2 must be {m - rr} x {n}, got {K2.rows} x {K2.cols}")
        Kp = RatMatrix.vstack([K1, K2])
    else:
        if K2 is not None and K2.rows:
            raise ValueError("K2 given but every input already carries a gain row")
        K2 = None
        Kp = K1
    bd = chart.bd
    K = bd.psi_inv(Kp)
    if K @ bd.P != bd.Q @ Kp + bd.R or invariant_polynomials(bd.Fp + bd.Gp @ Kp) != chart.chain:
        raise VerificationError(
            "synthesized gain failed the invariant-polynomial check"
        )
    return FeedbackGain(K=K, coords=x, K2=K2)


def recover_member(chart: Chart, K: RatMatrix) -> TruncObsMatrix:
    """An invertible intertwining member P with P A = (closed loop) P.

    Solves the generator-row linear system; any invertible solution is a
    valid representative (all lie in one orbit of the centralizer action).
    Raises NotInClassError when the gain does not assign the target class.

    Generator row j asks sum_a sum_i W_i[j, a] p_a A^i = 0, p_a row a of the
    top block, with W = [W_0 | ... | W_{k_1}] = U - [K1 | 0] taken through
    the chart's column map: W_i[j, a] = [i = k_j][j = a] - K1[j, start_i + a],
    and zero in the K1 term where level i has no row a. Block beta's unknowns
    solve S_beta = sum_i W_i (x) (A_beta^i)^T, permutation-similar to the
    direct sum over its Jordan blocks t of sum_i W_i (x) (J_{s_t}^i)^T, so one
    (rank G * h * s)-square null space, of dimension h * sum_u min(s, s_u), is
    placed at each Jordan block of size s, block-diagonally in Jordan order.
    In the class the solutions are P0 Y with Y in the centralizer of A, so the
    placed bases hold N vectors in all, or VerificationError is raised.

    Each candidate combines the placed bases with seeded integer weights in
    [-n, n], read back in Weyr order by the block's permutation. The assembled
    member's determinant is a polynomial of degree at most n in the weights,
    nonzero as an invertible solution exists, so by the Schwartz-Zippel lemma
    a draw is singular with probability at most n/(2n+1) < 1/2; 400 draws all
    fail with probability below 2^-400, and then VerificationError is raised.
    """
    if K.shape != (chart.m, chart.n):
        raise ValueError(f"gain must be {chart.m} x {chart.n}, got {K.rows} x {K.cols}")
    n, rr = chart.n, chart.rank_g
    K1 = chart.bd.psi(K).take_rows(range(rr))
    M = chart.bd.Fp + chart.bd.Gp.take_cols(range(rr)) @ K1
    if invariant_polynomials(M) != chart.chain:
        raise NotInClassError(
            "closed-loop matrix does not have the prescribed invariant polynomials"
        )
    U, cols, systems = chart.generator_system
    W = U - RatMatrix.hstack([K1, RatMatrix.zeros(rr, 1)]).take_cols(cols)
    bases = []
    for ws, (powers, perm) in zip(chart.structures, systems):
        parts = {s: kron_sum(W, block).nullspace() for s, block in powers.items()}
        bases.append((ws.real_cols, RatMatrix.block_diag(*(parts[s] for s in ws.segre)), perm))
    if sum(basis.rows for _, basis, _ in bases) != chart.N:
        raise VerificationError("intertwining solutions do not have the centralizer dimension")
    rng = random.Random(0x5EED)
    for _ in range(400):
        slabs = []
        for w, basis, perm in bases:  # vec in Jordan order; perm reads slab a off it
            vec = RatMatrix([[rng.randint(-n, n) for _ in range(basis.rows)]]) @ basis
            slabs.append(RatMatrix.vstack(vec.take_cols(perm[a * w : a * w + w]) for a in range(rr)))
        obs = assemble(chart.A, chart.r, RatMatrix.hstack(slabs))
        if obs.P.rank() == n:
            if obs.P @ chart.A != M @ obs.P:
                raise VerificationError("recovered member fails to intertwine")
            return obs
    raise VerificationError("no invertible intertwining member found")


def coordinates(chart: Chart, K: RatMatrix, member: TruncObsMatrix | None = None):
    """Chart coordinates of a gain, plus its free K2 block.

    ``member``, if given, is one recovered for K on a chart of the same pair
    and class (as ``chart_for_gain`` returns it). Raises NotInClassError when
    K does not assign the class, and NotInChartError when it does but this
    chart's multi-index is not admissible for it.
    """
    obs = recover_member(chart, K) if member is None else member
    cells = member_cells(obs, chart.structures)
    for block_cells, ws, seq in zip(cells, chart.structures, chart.mi):
        if not is_admissible(block_cells, ws, seq):
            raise NotInChartError(
                "gain lies in the class manifold but outside this chart "
                "(a stage minor of the multi-index is singular)"
            )
    x = list(reduce(obs, chart.structures, chart.mi).params)
    if chart.m == chart.rank_g:
        return x, None
    return x, chart.bd.psi(K).take_rows(range(chart.rank_g, chart.m))


def chart_for_gain(F: RatMatrix, G: RatMatrix, sd: SpectralData, K: RatMatrix):
    """The chart (smallest admissible multi-index) containing a given gain.

    Returns (chart, member): the member recovered for K does not depend on
    the multi-index, so ``coordinates`` can take it.
    """
    base = build_chart(F, G, sd)
    obs = recover_member(base, K)
    return replace(base, mi=find_multi_index(obs, base.structures)), obs
