"""Independent oracles the tests check library results against.

These deliberately avoid the library's computation paths: matrix products by
the summation definition, invariant polynomials by gcds of all k x k minors
of sI - A (memoized Laplace expansion) and by the gcd Smith elimination over
Q[s] that the library ran before its integer kernel, on ``UniPoly`` entries
and on the whole of sI - A rather than on a chain-form remainder, the
characteristic polynomial by determinants at n + 1 points and interpolation,
emptiness of the generating-block set by exhaustive search over a 0/1 grid of
top blocks, the chart gain block from dense powers of the state matrix, and
exact elimination by the two routines the library used before it had one: a
Bareiss echelon loop for rank and determinant, and a field Gauss-Jordan over
``Fraction`` or ``GaussRat`` entries for inverse, null space and row-span
membership. The controllability chains come from an entrywise scan of the
Krylov columns built by the summation definition.

``GaussRat`` is a reference scalar of Q[i] for checking the library's packed
rows, where each entry z of a Gaussian matrix is stored as (Re z, Im z).

The normal form of a top block is checked against the elementary-factor
sweep the library ran before its back-substitution through the stage minors
(``sweep_reduce_block_cells``, with its type I and II centralizer factors):
it reaches the same unique form by products with whole factors.

The feedback transform is checked against the chain-major construction the
library ran before it assembled P^{-1} level by level
(``chain_major_p_brunovsky``): P^{-1} stacked chain by chain, one row
product at a time, then regrouped into levels by ``jordan_weyr_order``, with
the canonical pair built as the Weyr block of eigenvalue 0.

The paper's theorem is checked on tangent spaces, with no chart code
between: ``gain_tangent_space`` takes the rank of the transversality map
L(dK, X) = G dK - (M X - X M) and the dimension of the tangent space T of
the gain set at K, and ``chart_jacobian`` differentiates the chart exactly,
since its member is affine in the coordinates. ``decimal_digits`` writes an
integer's digits from its remainders, beside the library's chunked writer.

The member that ``coordinates`` reduces is checked against the one
whole-system null space the library took before it split the generator-row
system by spectral block and then by Jordan block size
(``whole_system_member``): the same system, built one n x n block at a
time by ``linear_combination``, a sum of scaled matrices on integer rows,
with its null space taken at once, and a member drawn from it by seeded
integer combinations. The library's ``kron_sum``, which builds the system
of one Jordan block size at once, is checked against the block matrix of
those sums.

The rest are references the library itself does not need: the real Jordan
form and its Weyr permutation, a parametrization of the centralizer of a
Weyr form from its parameter blocks (the free band ``band``, the parameter
count ``block_param_count`` and the corner rule ``centralizer_cells``, which
``reduce`` applies one column group at a time), partition enumeration and
majorization, the orbit element Y of a reduction, small membership
helpers, and polynomial arithmetic over Q on the ``UniPoly`` coefficient
tuples that ``coeffs`` reads (sum, difference, negation, scaling, long
division and evaluation), which the library's integer polynomials no
longer carry.

Centralizer parameters (see the layout in ``gainchart.reduction``) are
enumerated j ascending, then i, then k, row-major inside each cell block
D^(j)_{i,k}; complex cells contribute a (real, imaginary) scalar pair, which
is their packed order.
"""

import random
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import lcm

from gainchart import NotInChartError, Partition, RatMatrix, SingularMatrixError, nu
from gainchart.canonical import (
    WeyrStructure,
    centralizer_dimension_weyr,
    chain_block,
    weyr_structures,
)
from gainchart.errors import UncontrollableError, VerificationError
from gainchart.feedback import BrunovskyData, feasibility
from gainchart.linalg import _lowest
from gainchart.observability import assemble, check_sequence
from gainchart.poly import InvariantChain, UniPoly


class GaussRat:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        return x if isinstance(x, GaussRat) else GaussRat(x)

    def __add__(self, other):
        o = GaussRat.of(other)
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        return self + -GaussRat.of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = GaussRat.of(other)
        return GaussRat(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussRat.of(other)
        d = o.re * o.re + o.im * o.im
        return self * GaussRat(o.re / d, -o.im / d)

    def __eq__(self, other):
        o = GaussRat.of(other)
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return bool(self.re or self.im)


def packed(m) -> RatMatrix:
    """Packed real rows of a Gaussian list matrix: (Re z, Im z) per entry z."""
    return RatMatrix([[c for z in row for c in (GaussRat.of(z).re, GaussRat.of(z).im)] for row in m])


def gauss_matmul(a, b):
    """Product of Gaussian list matrices by the summation definition."""
    return [[sum((x * y for x, y in zip(row, col)), GaussRat()) for col in zip(*b)] for row in a]


def scaled(a: RatMatrix, c) -> RatMatrix:
    """c * a, entry by entry."""
    return RatMatrix([[c * x for x in a.rowlist(i)] for i in range(a.rows)])


def naive_matmul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = Fraction(0)
            for t in range(a.cols):
                acc += a[i, t] * b[t, j]
            row.append(acc)
        out.append(row)
    return RatMatrix(out)


def char_matrix(a: RatMatrix) -> list[list[UniPoly]]:
    """sI - a as a dense polynomial matrix."""
    n = a.rows
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(UniPoly((-a[i, j], 1)))
            else:
                row.append(UniPoly((-a[i, j],)))
        out.append(row)
    return out


def coeffs(p: UniPoly) -> tuple[Fraction, ...]:
    """The coefficients of p as Fractions, lowest degree first."""
    return tuple(Fraction(x, p._den) for x in p._num)


def monic(p: UniPoly) -> UniPoly:
    """p divided by its leading coefficient (zero stays zero)."""
    c = coeffs(p)
    return p if p.is_zero() else UniPoly(tuple(x / c[-1] for x in c))


def poly_add(a: UniPoly, b: UniPoly) -> UniPoly:
    """a + b, on the coefficient tuples."""
    x, y = coeffs(a), coeffs(b)
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    for i, c in enumerate(y):
        out[i] += c
    return UniPoly(out)


def poly_neg(a: UniPoly) -> UniPoly:
    return UniPoly(tuple(-c for c in coeffs(a)))


def poly_sub(a: UniPoly, b: UniPoly) -> UniPoly:
    return poly_add(a, poly_neg(b))


def poly_scale(a: UniPoly, c) -> UniPoly:
    """c a for a rational c."""
    return UniPoly(tuple(x * c for x in coeffs(a)))


def poly_divmod(a: UniPoly, b: UniPoly):
    """(q, r) with a = q b + r and deg r < deg b, by long division over Q."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem, div = list(coeffs(a)), coeffs(b)
    d, lead = len(div) - 1, div[-1]
    if len(rem) - 1 < d:
        return UniPoly.zero(), a
    quot = [Fraction(0)] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        if c := rem[i]:
            quot[i - d] = q = c / lead
            for j, y in enumerate(div):
                rem[i - d + j] -= q * y
    return UniPoly(quot), UniPoly(rem)


def poly_eval(p: UniPoly, x) -> Fraction:
    """p(x) by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(coeffs(p)):
        acc = acc * x + c
    return acc


def rational_smith_diagonal(mat: list[list[UniPoly]]) -> list[UniPoly]:
    """Monic diagonal of the Smith form of a polynomial matrix over Q[s], by
    gcd steps on ``UniPoly`` entries (the library's elimination before it ran
    on integer polynomials)."""
    m = [[p for p in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    for t in range(min(rows, cols)):
        while True:
            # minimal-degree nonzero pivot in the trailing submatrix, first in row order
            cells = [
                (m[i][j].degree, i, j)
                for i in range(t, rows) for j in range(t, cols) if not m[i][j].is_zero()
            ]
            if not cells:
                break
            _, bi, bj = min(cells)
            if bi != t:
                m[t], m[bi] = m[bi], m[t]
            if bj != t:
                for row in m:
                    row[t], row[bj] = row[bj], row[t]
            piv = m[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if not m[i][t].is_zero():
                    q = poly_divmod(m[i][t], piv)[0]
                    m[i] = [poly_sub(a, q * b) for a, b in zip(m[i], m[t])]
                    if not m[i][t].is_zero():
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if not m[t][j].is_zero():
                    q = poly_divmod(m[t][j], piv)[0]
                    for i in range(rows):
                        m[i][j] = poly_sub(m[i][j], q * m[i][t])
                    if not m[t][j].is_zero():
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry
            rest = range(t + 1, cols)
            bad = next(
                (i for i in range(t + 1, rows) for j in rest
                 if not poly_divmod(m[i][j], piv)[1].is_zero()),
                None,
            )
            if bad is None:
                break
            m[t] = [poly_add(a, b) for a, b in zip(m[t], m[bad])]
        if m[t][t].is_zero():
            diag.extend([UniPoly.zero()] * (min(rows, cols) - t))
            break
        diag.append(monic(m[t][t]))
    return diag


def smith_chain(a: RatMatrix) -> InvariantChain:
    """Invariant polynomials from the Smith form of the whole of sI - a."""
    return InvariantChain(tuple(rational_smith_diagonal(char_matrix(a))))


def minors_gcd_chain(a: RatMatrix) -> InvariantChain:
    """Invariant polynomials as quotients of minor gcds of sI - a."""
    n = a.rows
    m = char_matrix(a)
    memo = {}

    def det(rows, cols):
        if not rows:
            return UniPoly.one()
        key = (rows, cols)
        if key in memo:
            return memo[key]
        r0 = rows[0]
        acc = UniPoly.zero()
        for idx, c in enumerate(cols):
            e = m[r0][c]
            if e.is_zero():
                continue
            sub = det(rows[1:], cols[:idx] + cols[idx + 1 :])
            term = e * sub
            acc = poly_add(acc, term) if idx % 2 == 0 else poly_sub(acc, term)
        memo[key] = acc
        return acc

    gcds = [UniPoly.one()]
    for k in range(1, n + 1):
        g = UniPoly.zero()
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                g = poly_gcd(g, det(rows, cols))
        gcds.append(g)
    alphas = [monic(poly_divmod(gcds[k], gcds[k - 1])[0]) for k in range(1, n + 1)]
    return InvariantChain(tuple(alphas))


def grid_has_member(A: RatMatrix, r: Partition) -> bool:
    """Whether some 0/1 top block generates a full-column-rank matrix.

    For a nilpotent Weyr state matrix the generating blocks built from unit
    rows already witness nonemptiness, so the grid verdict is exact there.
    """
    d = A.rows
    r1 = r.part(1)
    for bits in product((0, 1), repeat=r1 * d):
        P1 = RatMatrix([list(bits[i * d : (i + 1) * d]) for i in range(r1)])
        if assemble(A, r, P1).P.rank() == d:
            return True
    return False


def interpolate(points, values) -> UniPoly:
    """Unique polynomial through (points[i], values[i]), Newton form."""
    pts = [Fraction(p) for p in points]
    coefs = [Fraction(v) for v in values]
    n = len(pts)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            coefs[i] = (coefs[i] - coefs[i - 1]) / (pts[i] - pts[i - level])
    poly = UniPoly.zero()
    basis = UniPoly.one()
    for i in range(n):
        poly = poly_add(poly, poly_scale(basis, coefs[i]))
        basis = basis * UniPoly((-pts[i], 1))
    return poly


def charpoly(a: RatMatrix) -> UniPoly:
    """det(sI - a), exact, via evaluation at n+1 points and interpolation."""
    if not a.is_square():
        raise ValueError("characteristic polynomial of non-square matrix")
    n = a.rows
    pts = list(range(n + 1))
    vals = []
    for x in pts:
        shifted = scaled(RatMatrix.identity(n), x) - a
        vals.append(bareiss_det(shifted))
    return interpolate(pts, vals)


def phi_by_powers(obs, k: Partition) -> RatMatrix:
    """Canonical-pair gain block p_j A^{k_j} P^{-1}, from dense powers of A.

    Each power is built from the identity by repeated products and applied to
    the generator row p_j of the top block; no other row of the member is used.
    """
    P = obs.P
    if P.rows != P.cols:
        raise ValueError("the chart pipeline needs a square member")
    Pinv = P.inverse()
    rows = []
    for j in range(len(k)):
        power = RatMatrix.identity(obs.A.rows)
        for _ in range(k.part(j + 1)):
            power = power @ obs.A
        rows.append((obs.P1.row(j) @ power).rowlist(0))
    return RatMatrix(rows) @ Pinv


def bareiss(a: RatMatrix):
    """Bareiss echelon elimination of a row-integerized copy of ``a``.

    Returns (rank, pivot, scale): for a nonsingular square matrix the last
    pivot is det * scale, signed by the row swaps, where scale is the product
    of the row multipliers.
    """
    m = []
    scale = 1
    for i in range(a.rows):
        row = a.rowlist(i)
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        m.append([int(x * mult) for x in row])
    rows, cols = a.rows, a.cols
    sign = prev = 1
    pr = 0
    for pc in range(cols):
        if pr == rows:
            break
        piv = next((i for i in range(pr, rows) if m[i][pc]), None)
        if piv is None:
            continue
        if piv != pr:
            m[pr], m[piv] = m[piv], m[pr]
            sign = -sign
        mp = m[pr]
        for i in range(pr + 1, rows):
            mi = m[i]
            f = mi[pc]
            for j in range(pc + 1, cols):
                mi[j] = (mi[j] * mp[pc] - f * mp[j]) // prev
            mi[pc] = 0
        prev = mp[pc]
        pr += 1
    return pr, sign * prev, scale


def bareiss_det(a: RatMatrix) -> Fraction:
    rank, pivot, scale = bareiss(a)
    return Fraction(pivot, scale) if rank == a.rows else Fraction(0)


def field_rref(a, cols=None):
    """Gauss-Jordan elimination of the rows of ``a`` over the entries' field.

    Rows are reordered and replaced in the list ``a``; only the first ``cols``
    columns take pivots, each at the first nonzero entry at or below the
    current row. Returns the pivot columns; row i ends with a 1 at pivots[i].
    """
    rows = len(a)
    if cols is None:
        cols = len(a[0]) if a else 0
    pivots = []
    for pc in range(cols):
        pr = len(pivots)
        if pr == rows:
            break
        piv = next((i for i in range(pr, rows) if a[i][pc]), None)
        if piv is None:
            continue
        a[pr], a[piv] = a[piv], a[pr]
        p = a[pr][pc]
        if p != 1:
            a[pr] = [x / p for x in a[pr]]
        for i in range(rows):
            if i != pr and a[i][pc]:
                f = a[i][pc]
                a[i] = [x - f * y for x, y in zip(a[i], a[pr])]
        pivots.append(pc)
    return pivots


def field_inverse(m):
    """Gauss-Jordan inverse of a square list-of-lists matrix; None when singular."""
    n = len(m)
    one = next((x / x for row in m for x in row if x), None)
    if one is None:
        return None if n else []
    zero = one - one
    a = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(m)]
    if len(field_rref(a, n)) < n:
        return None
    return [row[n:] for row in a]


def gauss_jordan_inverse(a: RatMatrix) -> RatMatrix:
    """Inverse of a square RatMatrix; SingularMatrixError names the first dependent column."""
    n = a.rows
    rows = [a.rowlist(i) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pivots = field_rref(rows, n)
    if len(pivots) < n:
        raise SingularMatrixError(min(set(range(n)) - set(pivots)))
    return RatMatrix([row[n:] for row in rows])


def gauss_jordan_nullspace(a: RatMatrix) -> list:
    """Right null space basis, one vector per free column, from the reduced form."""
    rows = a.tolists()
    pivots = field_rref(rows, a.cols)
    basis = []
    for fc in (c for c in range(a.cols) if c not in pivots):
        v = [Fraction(0)] * a.cols
        v[fc] = Fraction(1)
        for prow, pc in enumerate(pivots):
            v[pc] = -rows[prow][fc]
        basis.append(v)
    return basis


def span_answers(vectors) -> list:
    """For each vector in turn: is it independent of the ones kept so far?"""
    kept = []
    out = []
    for vec in vectors:
        rows = kept + [list(vec)]
        grew = len(field_rref(rows)) > len(kept)
        if grew:
            kept = rows
        out.append(grew)
    return out


def krylov_chains(F: RatMatrix, G: RatMatrix):
    """Degree-major greedy scan of [G FG F^2G ...], one candidate at a time.

    At each degree the next Krylov column F^d g_j of every live input, smallest
    j first, is kept when ``span_answers`` finds it independent of the columns
    kept before it; an input whose column is dropped stays dead. Returns the
    per-input chain lengths and the kept columns, in the order kept.
    """
    n, m = F.rows, G.cols
    cols = [[G[i, j] for i in range(n)] for j in range(m)]
    lengths = [0] * m
    kept = []
    alive = list(range(m))
    while alive:
        surviving = []
        for j in alive:
            if span_answers(kept + [cols[j]])[-1]:
                kept.append(cols[j])
                lengths[j] += 1
                surviving.append(j)
        alive = surviving
        for j in alive:
            cols[j] = [sum(F[i, t] * cols[j][t] for t in range(n)) for i in range(n)]
    return lengths, kept


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm (zero when both are zero)."""
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    return monic(a)


def monomial(k: int, c=1) -> UniPoly:
    """c s^k."""
    return UniPoly((0,) * k + (c,))


def chain_product(chain: InvariantChain) -> UniPoly:
    """Product of the invariant polynomials: the characteristic polynomial."""
    acc = UniPoly.one()
    for p in chain:
        acc = acc * p
    return acc


def partitions_of(n: int, max_part: int | None = None):
    """All partitions of n, largest part first, in lexicographic descent."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield Partition()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield Partition((first,) + rest.parts)


def majorized_by(a: Partition, b: Partition) -> bool:
    """True when every prefix sum of a is <= b's and totals agree."""
    if a.total() != b.total():
        return False
    run_a = run_b = 0
    for i in range(1, max(len(a), len(b)) + 1):
        run_a += a.part(i)
        run_b += b.part(i)
        if run_a > run_b:
            return False
    return True


def nonempty(target, r: Partition) -> bool:
    """Whether any generating top block exists for this class and r.

    This is the feasibility test for indices k = r^T, in its weak form when
    r has more rows than the state size; both criteria are evaluated and
    checked to agree.
    """
    return feasibility(r.conjugate(), target).segre_ok


def block_memberships(obs, structures) -> list:
    """Per-block full-column-rank test of the product-set factors.

    Each column slab must have rank equal to its width; a square assembled
    matrix can still be singular when every factor passes.
    """
    out = []
    off = 0
    for ws in structures:
        slab = obs.P.take_cols(range(off, off + ws.real_cols))
        out.append(slab.rank() == ws.real_cols)
        off += ws.real_cols
    return out


def block_free_param_count(ws, nrows: int) -> int:
    """rows x scalar columns minus the block's centralizer dimension."""
    return ws.h * (nrows * ws.s - sum(w * w for w in ws.weyr))


def chart_dimension_check(chart) -> bool:
    """Coordinate count equals the sum of blockwise free-parameter counts."""
    total = sum(block_free_param_count(ws, chart.rank_g) for ws in chart.structures)
    return total == chart.dim


def jordan_from_spectral(sd) -> RatMatrix:
    """Real Jordan canonical form, blocks in sd order."""
    return RatMatrix.block_diag(
        *(chain_block(ws, (1,) * k) for ws in weyr_structures(sd) for k in ws.segre)
    )


def jordan_weyr_order(segre: Partition) -> list:
    """Chain-major Jordan coordinate of each level-major Weyr position.

    Positions run level by level, chain by chain inside a level.
    """
    starts = [0]
    for part in segre:
        starts.append(starts[-1] + part)
    return [
        starts[chain] + level
        for level, width in enumerate(segre.conjugate())
        for chain in range(width)
    ]


def jordan_weyr_permutation(segre: Partition, is_complex: bool = False) -> RatMatrix:
    """Permutation Q with Q^T J Q = W for a single eigenvalue or pair.

    Column t of Q selects the Jordan coordinate of Weyr position t; for a
    pair each position is a 2x2 coordinate slab.
    """
    h = 2 if is_complex else 1
    order = [h * o + half for o in jordan_weyr_order(segre) for half in range(h)]
    return RatMatrix.identity(len(order)).take_cols(order)


def band(ws, j: int, i: int) -> range:
    """Column bands k of the free cells D^(j)_{i,k}: k >= i - j + 1, k <= m - j + 1."""
    return range(max(i - j + 1, 1), ws.m - j + 2)


def block_param_count(ws) -> int:
    """Number of real scalars parameterizing one block's centralizer."""
    return ws.h * sum(w * w for w in ws.weyr)


def centralizer_cells(ws, first_row) -> RatMatrix:
    """A centralizer element (packed rows) from its first block row Y_11 .. Y_1m.

    ``first_row`` holds the packed w_1 x w_j blocks Y_1j. Block (i, j) with
    j >= i is the top-left w_i x w_j corner of Y_{1, j-i+1}; the blocks
    below the diagonal are zero.
    """
    h, w = ws.h, ws.weyr
    rows = [RatMatrix.hstack(first_row)]
    for i in range(2, ws.m + 1):
        lead = RatMatrix.zeros(w.part(i), h * sum(w.parts[: i - 1]))
        corners = (
            first_row[j - i].take_rows(range(w.part(i))).take_cols(range(h * w.part(j)))
            for j in range(i, ws.m + 1)
        )
        rows.append(RatMatrix.hstack([lead, *corners]))
    return RatMatrix.vstack(rows)


def centralizer_slots(ws):
    """Free parameter blocks (j, i, k) with shapes, in canonical order."""
    m = ws.m
    slots = []
    for j in range(1, m + 1):
        for i in range(1, m + 1):
            for k in band(ws, j, i):
                h = ws.tau(i) - ws.tau(i - 1)
                wdt = ws.tau(k) - ws.tau(k - 1)
                if h and wdt:
                    slots.append((j, i, k, h, wdt))
    return slots


def centralizer_cells_from_blocks(ws, blocks) -> RatMatrix:
    """Assemble a centralizer element (packed rows) from its parameter blocks.

    ``blocks`` maps band slots (j, i, k) to packed rows of the slot's shape;
    missing slots are zero. The slots fill the first block row Y_11 .. Y_1m,
    which ``centralizer_cells`` copies down by the corner rule.
    """
    h, w = ws.h, ws.weyr
    first_row = [packed_zeros(ws, w.part(1), w.part(j)) for j in range(1, ws.m + 1)]
    for (j, i, k), blk in blocks.items():
        if k not in band(ws, j, i):
            raise ValueError(f"slot ({j}, {i}, {k}) outside the free parameter band")
        r0, c0 = ws.tau(i - 1), h * ws.tau(k - 1)
        for a, row in enumerate(blk):
            first_row[j - 1][r0 + a][c0 : c0 + len(row)] = row
    return centralizer_cells(ws, [RatMatrix(rows) for rows in first_row])


def packed_zeros(ws, rows: int, cols: int) -> list:
    """Packed rows of the zero rows x cols cell matrix."""
    return [[Fraction(0)] * (ws.h * cols) for _ in range(rows)]


def packed_identity(ws, size: int) -> list:
    """Packed rows of the size x size identity cell matrix."""
    rows = packed_zeros(ws, size, size)
    for a in range(size):
        rows[a][ws.h * a] = Fraction(1)
    return rows


def elementary_type_i(ws, slot: int, T):
    """Type I factor: block T at diagonal slot, identity elsewhere (packed rows)."""
    blocks = {}
    for k in range(1, ws.m + 1):
        size = ws.tau(k) - ws.tau(k - 1)
        if size:
            blocks[(1, k, k)] = T if k == slot else packed_identity(ws, size)
    return centralizer_cells_from_blocks(ws, blocks)


def elementary_type_ii(ws, j: int, i: int, k: int, D):
    """Type II factor: identity diagonal plus an off-diagonal band block at (j, i, k)."""
    if (j, k) == (1, i):
        raise ValueError("type II slot on the diagonal")
    blocks = {(j, i, k): D}
    for t in range(1, ws.m + 1):
        size = ws.tau(t) - ws.tau(t - 1)
        if size:
            blocks[(1, t, t)] = packed_identity(ws, size)
    return centralizer_cells_from_blocks(ws, blocks)


def sweep_reduce_block_cells(P1: RatMatrix, ws, seq) -> RatMatrix:
    """Reference normal form of one block's top block by elementary factors.

    This re-enacts the uniqueness proof: for each stage in the multi-index
    order, a type I factor makes the stage's pivot minor the identity, then
    type II factors clear every other band cell of the stage's rows. Each
    factor E acts as M @ ws.expand(E) on the packed rows. Returns R1, or
    raises NotInChartError naming the first singular stage minor.
    """
    check_sequence(seq, ws, P1.rows)
    h, m = ws.h, ws.m

    def col_span(j, k):
        base = sum(ws.weyr.part(t) for t in range(1, j))
        return base + ws.tau(k - 1), base + ws.tau(k)

    M = P1
    for stage in range(1, m + 1):
        rows = [i - 1 for i in seq[ws.tau(stage - 1) : ws.tau(stage)]]
        if not rows:
            continue
        c0, c1 = col_span(1, stage)
        try:
            inv = ws.expand(M.take_rows(rows).take_cols(range(h * c0, h * c1))).inverse()
        except SingularMatrixError:
            raise NotInChartError(
                f"stage {stage} minor of the multi-index is singular"
            ) from None
        M = M @ ws.expand(elementary_type_i(ws, stage, inv.tolists()[::h]))
        clear = [
            (j, k) for j in range(1, m + 1) for k in band(ws, j, stage) if (j, k) != (1, stage)
        ]
        for j, k in clear:
            d0, d1 = col_span(j, k)
            blk = [[-x for x in M.rowlist(i)[h * d0 : h * d1]] for i in rows]
            if any(any(row) for row in blk):
                M = M @ ws.expand(elementary_type_ii(ws, j, stage, k, blk))
    return M


def centralizer_block_from_params(ws, params) -> RatMatrix:
    """Packed rows of the centralizer element with the given scalar parameters."""
    it = iter(params)
    blocks = {
        (j, i, k): [[next(it) for _ in range(ws.h * wdt)] for _ in range(rows)]
        for (j, i, k, rows, wdt) in centralizer_slots(ws)
    }
    return centralizer_cells_from_blocks(ws, blocks)


def centralizer_element(structures, params) -> RatMatrix:
    """The centralizer element of the full Weyr form for given parameters.

    ``params`` concatenates every block's scalars in sd order; its length
    must equal the centralizer dimension.
    """
    params = [Fraction(p) for p in params]
    need = centralizer_dimension_weyr(structures)
    if len(params) != need:
        raise ValueError(f"expected {need} parameters, got {len(params)}")
    blocks = []
    pos = 0
    for ws in structures:
        cnt = block_param_count(ws)
        blocks.append(ws.expand(centralizer_block_from_params(ws, params[pos : pos + cnt])))
        pos += cnt
    return RatMatrix.block_diag(*blocks)


def centralizer_basis(a: RatMatrix, structures):
    """(dimension, basis): one element per free scalar of the centralizer of a Weyr form."""
    expected = RatMatrix.block_diag(*(chain_block(ws, ws.weyr.parts) for ws in structures))
    if a != expected:
        raise ValueError("matrix is not the real Weyr form of the given structures")
    n = centralizer_dimension_weyr(structures)
    basis = []
    for idx in range(n):
        params = [0] * n
        params[idx] = 1
        basis.append(centralizer_element(structures, params))
    return n, tuple(basis)


def orbit_element(obs, rf) -> RatMatrix:
    """The Y with obs.P @ Y == rf.obs.P, unique since obs.P has full column rank.

    Solved by the normal equations, Y = (P^T P)^{-1} P^T R, without the
    reduction's own factors.
    """
    Pt = obs.P.transpose()
    return (Pt @ obs.P).inverse() @ Pt @ rf.obs.P


# ---------------------------------------------------------------------------
# the feedback transform, chain by chain
# ---------------------------------------------------------------------------


def weyr_p_brunovsky_pair(r: Partition, m: int):
    """The canonical pair as the Weyr block of eigenvalue 0 with levels r, and
    the identity columns of the coordinates that do not persist to the next
    level, deepest level first, padded with zero columns to m inputs."""
    n = r.total()
    starts = [0, *accumulate(r.parts)]
    fed = [
        starts[i] + t for i in reversed(range(len(r))) for t in range(r.part(i + 2), r.part(i + 1))
    ]
    Fp = chain_block(WeyrStructure(r.conjugate(), False, 0), r.parts)
    return Fp, RatMatrix.hstack([RatMatrix.identity(n).take_cols(fed), RatMatrix.zeros(n, m - len(fed))])


def rescan_chain_lengths(cp):
    """The Krylov scan of ``ControlPair.chains`` by re-elimination at each degree.

    Degree by degree, the pivots of [kept | F^d g_j for the inputs still
    alive] beyond the kept columns name the inputs that survive, so the whole
    kept block is eliminated again at every degree. Returns (k, kept, owner)
    as ``ControlPair.chains`` does, owner as a list, and raises
    UncontrollableError with the rank of the controllability matrix.
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


def chain_major_p_brunovsky(cp) -> BrunovskyData:
    """The feedback transform built chain-major, then regrouped into levels.

    P^{-1} is first stacked chain by chain: q_j, q_j F, ..., one 1 x n
    product per row, with q_j the dual row of chain j's end in the
    chain-major nice basis. Inverting it and permuting by
    ``jordan_weyr_order`` gives P, P^{-1} and R in level-major order.
    """
    n, m = cp.n, cp.m
    k, kept, owner = rescan_chain_lengths(cp)
    r = k.conjugate()
    Fp, Gp = weyr_p_brunovsky_pair(r, m)

    sigma = sorted(set(owner), key=lambda j: (-owner.count(j), j))
    X = kept.take_cols(c for j in sigma for c, o in enumerate(owner) if o == j)
    ends = [e - 1 for e in accumulate(owner.count(j) for j in sigma)]
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
    gamma = Gh.take_rows(ends)
    others = [c for c in range(m) if c not in sigma]
    eye = RatMatrix.identity(m)
    SG = eye.take_cols(sigma) @ gamma.take_cols(sigma).inverse()
    Q = RatMatrix.hstack([SG, eye.take_cols(others) - SG @ gamma.take_cols(others)])
    Qinv = RatMatrix.vstack([gamma, *(eye.row(c) for c in others)])
    R = SG @ -(RatMatrix.vstack(tails) @ Pti)

    order = jordan_weyr_order(k)
    P, Pinv = Pti.take_cols(order), Pt.take_rows(order)
    Rt = R.take_cols(order)
    if cp.F @ P + cp.G @ Rt != P @ Fp or cp.G @ Q != P @ Gp:
        raise VerificationError("canonical pair pattern mismatch")
    return BrunovskyData(k=k, r=r, rank_g=r.part(1), P=P, Pinv=Pinv, Q=Q, Qinv=Qinv,
                         R=Rt, Fp=Fp, Gp=Gp)


# ---------------------------------------------------------------------------
# the tangent space of the gain set, and the chart's exact Jacobian
# ---------------------------------------------------------------------------


def _ad_columns(M: RatMatrix) -> list:
    """The columns of X -> M X - X M on row-major vec(X), one per entry X[p][q]."""
    n = M.rows
    cols = []
    for p in range(n):
        for q in range(n):
            v = [Fraction(0)] * (n * n)
            for i in range(n):
                v[i * n + q] += M[i, p]
            for j in range(n):
                v[p * n + j] -= M[q, j]
            cols.append(v)
    return cols


def _rank(vectors) -> int:
    """Rank of a list of equal-length vectors, by the Bareiss loop above."""
    return bareiss(RatMatrix(vectors))[0] if vectors else 0


def _vec(X: RatMatrix) -> list:
    return [x for row in X.tolists() for x in row]


def gain_tangent_space(F: RatMatrix, G: RatMatrix, K: RatMatrix):
    """(rank L, dim T, in_T) at a gain K, with M = F + G K.

    The orbit of M has tangent space im ad_M (Arnold 1971, "On matrices
    depending on parameters"), of codimension N = dim ker ad_M. The gains
    whose closed loop stays in the class have tangent space
    T = {dK : G dK in im ad_M}. L(dK, X) = G dK - (M X - X M) is
    transversality's map; its kernel projects onto T with the centralizer of
    M as fibre, so dim T = n m + n^2 - rank L - N. ``in_T(dKs)`` tells
    whether every n-column matrix in dKs lies in T.
    """
    n, m = G.rows, G.cols
    ad = _ad_columns(F + G @ K)
    rank_ad = _rank(ad)
    g_cols = []
    for a in range(m):
        for b in range(n):
            v = [Fraction(0)] * (n * n)
            for i in range(n):
                v[i * n + b] = G[i, a]
            g_cols.append(v)
    rank_l = _rank(g_cols + ad)

    def in_T(dKs):
        return _rank(ad + [_vec(G @ dK) for dK in dKs]) == rank_ad

    return rank_l, n * m + n * n - rank_l - (n * n - rank_ad), in_T


def chart_jacobian(chart, x, K2=None):
    """(K, columns): the gain at chart coordinates x and the exact Jacobian.

    P(x), the assembled member, is affine in x, so dP = P(x + e_i) - P(x)
    exactly. The canonical gain K1 satisfies K1 P = L A with L the chain-end
    rows of P (chain j, longest first, ends at level k_j in position j), so
    dK1 = (dL A - K1 dP) P^-1. With K = (Q Kp + R) P_bd^-1 for Kp = [K1; K2],
    dK = Q dKp P_bd^-1; each free K2 entry adds one column.
    """
    n, rr, bd = chart.n, chart.rank_g, chart.bd
    r, k = chart.r, chart.r.conjugate()
    ends = [sum(r.parts[: k.part(j + 1) - 1]) + j for j in range(rr)]
    P = nu(chart, x).P
    Pinv = P.inverse()
    K1 = P.take_rows(ends) @ chart.A @ Pinv
    free = RatMatrix.zeros(chart.m - rr, n) if K2 is None else K2
    K = (bd.Q @ RatMatrix.vstack([K1, free]) + bd.R) @ bd.Pinv
    dKps = []
    for i in range(chart.dim):
        step = [v + (j == i) for j, v in enumerate(x)]
        dP = nu(chart, step).P - P
        dK1 = (dP.take_rows(ends) @ chart.A - K1 @ dP) @ Pinv
        dKps.append(RatMatrix.vstack([dK1, RatMatrix.zeros(chart.m - rr, n)]))
    for a in range(chart.m - rr):
        for b in range(n):
            E = [[int((i, j) == (a, b)) for j in range(n)] for i in range(chart.m - rr)]
            dKps.append(RatMatrix.vstack([RatMatrix.zeros(rr, n), RatMatrix(E)]))
    return K, [bd.Q @ dKp @ bd.Pinv for dKp in dKps]


def jacobian_rank(columns) -> int:
    return _rank([_vec(dK) for dK in columns])


# ---------------------------------------------------------------------------
# decimal text
# ---------------------------------------------------------------------------


def decimal_digits(n: int) -> str:
    """Decimal digits of n built from its remainders, with no int-to-str call."""
    out = []
    m = abs(n)
    while True:
        m, d = divmod(m, 10)
        out.append("0123456789"[d])
        if not m:
            break
    return ("-" if n < 0 else "") + "".join(reversed(out))


# ---------------------------------------------------------------------------
# the intertwining system, whole
# ---------------------------------------------------------------------------


def linear_combination(terms, rows: int, cols: int) -> RatMatrix:
    """The rows x cols matrix sum of c * M over the pairs (c, M) in ``terms``.

    The weights share one denominator, and row i of every M is rescaled to
    the lcm of their row-i denominators, so the sum is taken over integers
    and each row is reduced once. Zero entries are skipped; no terms give
    the zero matrix.
    """
    dw = lcm(*[c.denominator for c, _ in terms])
    int_rows = [m.int_rows() for _, m in terms]
    dm = [lcm(*[rs[i][1] for rs in int_rows]) for i in range(rows)]
    num = [[0] * cols for _ in range(rows)]
    for (c, _), rs in zip(terms, int_rows):
        w = c.numerator * (dw // c.denominator)
        for i, (row, d) in enumerate(rs):
            f = w * (dm[i] // d)
            num[i] = [s + f * x if x else s for s, x in zip(num[i], row)]
    return _lowest(num, [dw * d for d in dm], cols)


def whole_system_member(chart, K):
    """(basis, member): the null space of the whole generator-row system of
    P A = M P, with M the canonical closed loop of K, and an invertible
    member drawn from it.

    The unknowns are the top-block entries p_a, row-major, and block row j
    holds the transposes of C_{j,a} = [j = a] A^{k_j} - sum_i K1[j, start_i
    + a] A^i, so the system is (rank G * n) square and its null space has
    dimension N. Members are seeded integer combinations of the basis, kept
    at the first one of full rank.
    """
    n, rr, A, r, k = chart.n, chart.rank_g, chart.A, chart.r, chart.bd.k
    K1 = chart.bd.psi(K).take_rows(range(rr))
    M = chart.bd.Fp + chart.bd.Gp.take_cols(range(rr)) @ K1
    powers = [RatMatrix.identity(n)]
    for _ in range(k.part(1)):
        powers.append(A @ powers[-1])
    transposed = [p.transpose() for p in powers]
    starts = [0, *accumulate(r.parts)]
    system = []
    for j in range(rr):
        blocks = []
        for a in range(rr):
            terms = [(1, transposed[k.part(j + 1)])] if a == j else []
            for i in range(len(r)):
                f = K1[j, starts[i] + a] if a < r.part(i + 1) else 0
                if f:
                    terms.append((-f, transposed[i]))
            blocks.append(linear_combination(terms, n, n))
        system.append(RatMatrix.hstack(blocks))
    basis = RatMatrix.vstack(system).nullspace()
    rng = random.Random(0x5EED)
    for _ in range(400):
        vec = RatMatrix([[rng.randint(-n, n) for _ in range(basis.rows)]]) @ basis
        obs = assemble(A, r, RatMatrix.vstack(vec.take_cols(range(a * n, (a + 1) * n)) for a in range(rr)))
        if obs.P.rank() == n:
            if obs.P @ A != M @ obs.P:
                raise VerificationError("whole-system member fails to intertwine")
            return basis, obs
    raise VerificationError("no invertible whole-system member found")
