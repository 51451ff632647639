"""Univariate polynomials over Q and the Smith form of sI - A.

``UniPoly`` stores coefficients lowest degree first with no trailing zeros,
so the zero polynomial has an empty coefficient tuple. ``invariant_polynomials``
diagonalizes sI - A over Q[s] by gcd elimination (swap a minimal-degree pivot
into place, kill its row and column by division with remainder, fold in any
entry the pivot does not divide, repeat) and normalizes the diagonal to monic.
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

    def total_degree(self) -> int:
        return sum(p.degree for p in self.polys)

    def degrees_desc(self) -> tuple[int, ...]:
        """Degrees listed from the last (largest) polynomial down."""
        return tuple(p.degree for p in reversed(self.polys))

    def __iter__(self):
        return iter(self.polys)

    def __eq__(self, other):
        return isinstance(other, InvariantChain) and self.polys == other.polys


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


def invariant_polynomials(a: RatMatrix) -> InvariantChain:
    """Invariant polynomials a_1 | ... | a_n of a square matrix.

    Computed as the Smith normal form of sI - a over Q[s]; the product of the
    chain is the characteristic polynomial.
    """
    if not a.is_square():
        raise ValueError("invariant polynomials require a square matrix")
    diag = smith_diagonal(char_matrix(a))
    return InvariantChain(tuple(diag))
