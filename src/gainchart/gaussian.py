"""Gaussian rationals and small generic field-matrix helpers.

A conjugate eigenvalue pair is handled by packing each 1x2 column cell
``(x, y)`` of a real matrix into the scalar ``x + iy``. Under that packing the
2x2 cell expansion ``[[x, y], [-y, x]]`` is exactly multiplication by
``x + iy``, so all block algorithms (assembly, admissibility, reduction) run
unchanged over this field and results expand back to real matrices at the
boundary.

The ``fm_*`` helpers operate on plain lists of lists whose scalars are either
``Fraction`` or ``GaussRat``; both support the same arithmetic protocol.
"""

from __future__ import annotations

from fractions import Fraction


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
# generic elimination helpers on list-of-list field matrices
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


def fm_rref(a, cols=None):
    """Gauss-Jordan elimination of the rows of ``a`` to reduced echelon form.

    The one field elimination routine: rows are reordered and replaced in the
    list ``a`` (a row list itself is never mutated). Only the first ``cols``
    columns (all by default) take pivots; in each column the pivot is the
    first nonzero entry at or below the current row. Returns the pivot
    columns; row i of the result has a 1 at ``pivots[i]``.
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


def fm_inverse(m):
    """Gauss-Jordan inverse; returns None when singular."""
    n = len(m)
    one = next((x / x for row in m for x in row if x), None)
    if one is None:
        return None if n else []
    a = [list(row) + e for row, e in zip(m, fm_identity(n, one))]
    if len(fm_rref(a, n)) < n:
        return None
    return [row[n:] for row in a]


def fm_is_invertible(m) -> bool:
    return bool(m) and len(fm_rref(list(m))) == len(m)


class RowSpan:
    """Incremental row-space membership test; the rows are kept reduced."""

    def __init__(self):
        self._rows = []

    def try_add(self, vec) -> bool:
        """Add vec and return True if it is independent of the span."""
        rows = self._rows + [list(vec)]
        if len(fm_rref(rows)) == len(self._rows):
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
