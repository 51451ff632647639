"""Independent oracles the tests check library results against.

These deliberately avoid the library's computation paths: matrix products by
the summation definition, invariant polynomials by gcds of all k x k minors
of sI - A (memoized Laplace expansion), the characteristic polynomial by
determinants at n + 1 points and interpolation, emptiness of the
generating-block set by exhaustive search over a 0/1 grid of top blocks, and
the chart gain block from dense powers of the state matrix.
"""

from fractions import Fraction
from itertools import combinations, product

from gainchart import Partition, RatMatrix
from gainchart.observability import RankDeficientError, assemble
from gainchart.poly import InvariantChain, UniPoly, char_matrix


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
            acc = acc + term if idx % 2 == 0 else acc - term
        memo[key] = acc
        return acc

    gcds = [UniPoly.one()]
    for k in range(1, n + 1):
        g = UniPoly.zero()
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                g = g.gcd(det(rows, cols))
        gcds.append(g)
    alphas = [(gcds[k] // gcds[k - 1]).monic() for k in range(1, n + 1)]
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
        try:
            assemble(A, r, P1)
            return True
        except RankDeficientError:
            continue
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
        poly = poly + basis * coefs[i]
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
        shifted = RatMatrix.identity(n).scale(x) - a
        vals.append(shifted.det())
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
