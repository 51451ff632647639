"""Univariate polynomials over Q and the invariant polynomials of a matrix.

``UniPoly`` stores coefficients lowest degree first with no trailing zeros,
so the zero polynomial has an empty coefficient tuple.

``invariant_polynomials`` reads the invariant polynomials of A off the Smith
form of sI - A over Q[s], but runs that Smith form on a k x k matrix only:

1. ``hessenberg`` reduces A by Gaussian similarity over Q to an upper
   Hessenberg H, which has the same invariant polynomials. Each zero
   subdiagonal entry h_{r,r-1} starts a new diagonal block; k counts them.
2. ``hessenberg_remainder`` clears, bottom-up and by row operations only,
   the constant subdiagonal pivots -h_{r,r-1} of sI - H in the rows that do
   not start a block. What is left in the k block-start rows and the k
   block-end columns is the k x k remainder T.
3. ``smith_diagonal`` diagonalizes T by gcd elimination (swap a
   minimal-degree pivot into place, kill its row and column by division with
   remainder, fold in any entry the pivot does not divide, repeat) and
   normalizes the diagonal to monic.

The rows that do not start a block, restricted to the columns that do not
end one, form a triangular matrix with a constant nonzero diagonal, which is
unimodular over Q[s]. So sI - H is equivalent to diag(I_{n-k}, T), and since
the monic Smith form is unique the chain is n - k ones followed by the Smith
diagonal of T, equal term for term to the Smith form of the whole of sI - A.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import RatMatrix, _frac


class UniPoly:
    """Polynomial in one variable with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = [_frac(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((1,))

    # -- basics ----------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return UniPoly(tuple(c / lead for c in self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly(())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return UniPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "UniPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        if len(rem) - 1 < d:
            return UniPoly(()), UniPoly(rem)
        quot = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quot[i - d] = q
            for j, ob in enumerate(other.coeffs):
                rem[i - d + j] -= q * ob
        return UniPoly(quot), UniPoly(rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def divides(self, other: "UniPoly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def power(self, k: int) -> "UniPoly":
        acc = UniPoly.one()
        for _ in range(k):
            acc = acc * self
        return acc

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- display -----------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(c)
            else:
                var = "s" if k == 1 else f"s^{k}"
                if c == 1:
                    body = var
                elif c == -1:
                    body = f"-{var}"
                else:
                    body = f"{c}*{var}"
            terms.append(body)
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    __repr__ = __str__


@dataclass(frozen=True)
class InvariantChain:
    """Monic polynomials a_1 | a_2 | ... | a_n with total degree n."""

    polys: tuple[UniPoly, ...]

    def __post_init__(self):
        for p in self.polys:
            if not p.is_monic():
                raise ValueError("invariant polynomials must be monic")
        for a, b in zip(self.polys, self.polys[1:]):
            if not a.divides(b):
                raise ValueError("divisibility chain violated")

    @property
    def n(self) -> int:
        return len(self.polys)

    def degrees_desc(self) -> tuple[int, ...]:
        """Degrees listed from the last (largest) polynomial down."""
        return tuple(p.degree for p in reversed(self.polys))

    def __iter__(self):
        return iter(self.polys)

    def __eq__(self, other):
        return isinstance(other, InvariantChain) and self.polys == other.polys


def smith_diagonal(mat: list[list[UniPoly]]) -> list[UniPoly]:
    """Monic diagonal of the Smith form of a polynomial matrix over Q[s]."""
    m = [[p for p in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    for t in range(min(rows, cols)):
        while True:
            # minimal-degree nonzero pivot in the trailing submatrix
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if not m[i][j].is_zero():
                        if best is None or m[i][j].degree < m[best[0]][best[1]].degree:
                            best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != t:
                m[t], m[bi] = m[bi], m[t]
            if bj != t:
                for row in m:
                    row[t], row[bj] = row[bj], row[t]
            piv = m[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if not m[i][t].is_zero():
                    q = m[i][t] // piv
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    if not m[i][t].is_zero():
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if not m[t][j].is_zero():
                    q = m[t][j] // piv
                    for i in range(rows):
                        m[i][j] = m[i][j] - q * m[i][t]
                    if not m[t][j].is_zero():
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry
            bad = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if not (m[i][j] % piv).is_zero():
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            m[t] = [a + b for a, b in zip(m[t], m[bad])]
        if m[t][t].is_zero():
            diag.extend([UniPoly.zero()] * (min(rows, cols) - t))
            break
        diag.append(m[t][t].monic())
    return diag


def hessenberg(a: RatMatrix) -> list[list[Fraction]]:
    """An upper Hessenberg matrix similar to ``a`` over Q.

    For column j the pivot is the first nonzero entry at or below row j + 1,
    swapped into row j + 1 together with the matching column swap. Each row
    operation R_i -= f R_{j+1} that clears an entry below it is paired with
    the column operation C_{j+1} += f C_i, so every step is a similarity.
    The row operations of one column commute and leave row j + 1 alone, and
    the column operations touch column j + 1 only, so all row operations run
    first, against one pivot row, and the column operations after them.
    """
    h = a.tolists()
    n = len(h)
    for j in range(n - 2):
        p = next((i for i in range(j + 1, n) if h[i][j]), None)
        if p is None:
            continue
        if p != j + 1:
            h[p], h[j + 1] = h[j + 1], h[p]
            for row in h:
                row[p], row[j + 1] = row[j + 1], row[p]
        top = h[j + 1]
        fs = [(i, h[i][j] / top[j]) for i in range(j + 2, n) if h[i][j]]
        for i, f in fs:
            h[i] = [x - f * y if y else x for x, y in zip(h[i], top)]
        for row in h:
            row[j + 1] = sum((f * row[i] for i, f in fs if row[i]), row[j + 1])
    return h


def hessenberg_remainder(h: list[list[Fraction]]) -> list[list[UniPoly]]:
    """The k x k remainder T of sI - h, for an upper Hessenberg h with k blocks.

    Block-start rows are those with a zero subdiagonal entry (and row 0);
    block-end columns are those just before a block start (and the last).
    Going bottom-up over the columns c that do not end a block, the constant
    pivot -h[c+1][c] clears column c from every row above it. Column c of
    those rows is still the original entry of sI - h (a constant, or
    s - h[c][c] on the diagonal), because the pivot rows used before hold
    nonzeros only in their own pivot column and the block-end columns. So
    each row is carried only in the block-end columns, and T is what the
    block-start rows hold there at the end.
    """
    n = len(h)
    starts = [r for r in range(n) if r == 0 or not h[r][r - 1]]
    ends = [c for c in range(n) if c == n - 1 or not h[c + 1][c]]
    rows = [[UniPoly((-h[r][e], 1) if r == e else (-h[r][e],)) for e in ends] for r in range(n)]
    for c in range(n - 2, -1, -1):
        if not h[c + 1][c]:
            continue
        pivot_row = rows[c + 1]
        inv = 1 / h[c + 1][c]
        for i in range(c + 1):
            # R_i -= (m_ic / -h[c+1][c]) R_{c+1}, m_ic the entry (i, c) of sI - h
            if i == c:
                f = UniPoly((-h[c][c] * inv, inv))
            elif h[i][c]:
                f = -h[i][c] * inv
            else:
                continue
            rows[i] = [x + f * y if y else x for x, y in zip(rows[i], pivot_row)]
    return [rows[r] for r in starts]


def invariant_polynomials(a: RatMatrix) -> InvariantChain:
    """Invariant polynomials a_1 | ... | a_n of a square matrix.

    They are the monic Smith form of sI - a over Q[s], and their product is
    the characteristic polynomial. The Smith form runs only on the k x k
    remainder T of a Hessenberg form of a (see the module docstring): the
    chain is n - k ones followed by the Smith diagonal of T.
    """
    if not a.is_square():
        raise ValueError("invariant polynomials require a square matrix")
    remainder = hessenberg_remainder(hessenberg(a))
    ones = (UniPoly.one(),) * (a.rows - len(remainder))
    return InvariantChain(ones + tuple(smith_diagonal(remainder)))
