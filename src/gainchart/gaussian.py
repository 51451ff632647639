"""Gaussian rationals and small generic field-matrix helpers.

A conjugate eigenvalue pair is handled by packing each 1x2 column cell
``(x, y)`` of a real matrix into the scalar ``x + iy``. Under that packing the
2x2 cell expansion ``[[x, y], [-y, x]]`` is exactly multiplication by
``x + iy``, so all block algorithms (assembly, admissibility, reduction) run
unchanged over this field and results expand back to real matrices at the
boundary.

The ``fm_*`` helpers operate on plain lists of lists whose scalars are either
``Fraction`` or ``GaussRat``; both support the same arithmetic protocol. Rank
and inverse go through ``linalg``, over Q[i] by way of the 2x2 cell expansion.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import RatMatrix, SingularMatrixError


class GaussRat:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("float components are not allowed")
        self.re = Fraction(re)
        self.im = Fraction(im)

    def _coerce(self, other):
        if isinstance(other, GaussRat):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRat(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRat(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def __repr__(self):
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


# ---------------------------------------------------------------------------
# list-of-list field matrices; rank and inverse by way of linalg
# ---------------------------------------------------------------------------


def fm_zeros(rows, cols, one):
    z = one - one
    return [[z] * cols for _ in range(rows)]


def fm_identity(n, one):
    z = one - one
    return [[one if i == j else z for j in range(n)] for i in range(n)]


def fm_mul(a, b):
    if not a:
        return []
    if len(a[0]) != len(b):
        raise ValueError("dimension mismatch in field-matrix product")
    bt = list(zip(*b))
    out = []
    for arow in a:
        row = []
        for bcol in bt:
            acc = None
            for x, y in zip(arow, bcol):
                term = x * y
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def _expanded(m):
    """(R, k): the rational matrix ``m`` (k = 1), or over Q[i] its 2x2 cell
    expansion (k = 2), whose rank is twice that of ``m`` and whose inverse is
    the expansion of the inverse."""
    if any(isinstance(x, GaussRat) for row in m for x in row):
        return RatMatrix(diamond_rows_from_cells(m)), 2
    return RatMatrix(m), 1


def fm_inverse(m):
    """Exact inverse of a square field matrix; returns None when singular."""
    real, k = _expanded(m)
    try:
        inv = real.inverse().tolists()
    except SingularMatrixError:
        return None
    return cells_from_real_rows(inv[::2]) if k == 2 else inv


def fm_is_invertible(m) -> bool:
    real, k = _expanded(m)
    return bool(m) and real.rank() == k * len(m)


class RowSpan:
    """Incremental row-space membership test over a block field."""

    def __init__(self):
        self._rows = []

    def try_add(self, vec) -> bool:
        """Add vec and return True if it is independent of the span."""
        rows = self._rows + [list(vec)]
        real, k = _expanded(rows)
        if real.rank() == k * len(self._rows):
            return False
        self._rows = rows
        return True


# ---------------------------------------------------------------------------
# packing between real matrices and Gaussian cell matrices
# ---------------------------------------------------------------------------


def cells_from_real_rows(rows):
    """Pack consecutive column pairs of real rows into GaussRat cells."""
    out = []
    for row in rows:
        if len(row) % 2:
            raise ValueError("cell packing needs an even number of columns")
        out.append([GaussRat(row[2 * j], row[2 * j + 1]) for j in range(len(row) // 2)])
    return out


def real_rows_from_cells(cells):
    """Unpack cells back to real rows: each cell z becomes (Re z, Im z)."""
    out = []
    for row in cells:
        real_row = []
        for z in row:
            real_row.append(z.re)
            real_row.append(z.im)
        out.append(real_row)
    return out


def diamond_rows_from_cells(cells):
    """Expand every cell z to the 2x2 block [[Re, Im], [-Im, Re]]."""
    out = []
    for row in cells:
        top, bot = [], []
        for z in row:
            top.extend((z.re, z.im))
            bot.extend((-z.im, z.re))
        out.append(top)
        out.append(bot)
    return out
