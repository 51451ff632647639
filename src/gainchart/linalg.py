"""Dense exact linear algebra over the rationals.

Matrices are immutable, entries are ``fractions.Fraction`` (always in lowest
terms with positive denominator). Rank, pivot columns, inverse and null
space share one elimination routine, ``_eliminate``: fraction-free Bareiss on
a row-integerized copy, which bounds intermediate growth, carried on to the
reduced (Gauss-Jordan) form where a solve needs it.

Products (``@`` and ``linear_combination``) run on Python ints as well: the
operands are scaled to integers over shared denominators (one per row of
the left factor and one per column of the right factor; one for the weights
and one for the matrices of a combination), the integer sums are
accumulated, and each output entry is built once as Fraction(sum, denom).
A rational in lowest terms with positive denominator is unique, so the
entries, and every digest or printed byte derived from them, are the same
as those of entry-by-entry Fraction arithmetic.

A conjugate-pair block stores a matrix over Q[i] as packed real rows: the
1x2 slab (x, y) for each cell x + iy. ``diamond`` expands every slab to the
real 2x2 block [[x, y], [-y, x]]; it is a ring homomorphism, so
packed(X) @ diamond(packed(E)) = packed(XE), and rank, inverse and row-span
membership over Q[i] are read off the expansion.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class SingularMatrixError(ValueError):
    """Raised when inverting a singular matrix.

    ``column`` is the index (0-based) of the first column that is linearly
    dependent on the columns before it.
    """

    def __init__(self, column):
        super().__init__(f"matrix is singular: column {column} is dependent")
        self.column = column


def _eliminate(data, cols, reduced=True):
    """Fraction-free (Bareiss) elimination of rational rows; returns (m, pivots, d).

    Each row is scaled to integers by the lcm of its denominators. Pivots are
    taken in the first ``cols`` columns, left to right, each at the first
    nonzero entry at or below the current row. The rows below it, and with
    ``reduced`` those above too, become (x*p - f*y) // prev, an exact
    division. With ``reduced`` every pivot row
    ends holding the last pivot d, so m / d is the reduced echelon form.
    """
    m = []
    for row in data:
        mult = lcm(*[x.denominator for x in row])
        m.append([x.numerator * (mult // x.denominator) for x in row])
    rows = len(m)
    prev = 1
    pivots = []
    for pc in range(cols):
        pr = len(pivots)
        if pr == rows:
            break
        piv = next((i for i in range(pr, rows) if m[i][pc]), None)
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        mp = m[pr]
        p = mp[pc]
        for i in range(0 if reduced else pr + 1, rows):
            if i != pr:
                f = m[i][pc]
                m[i] = [(x * p - f * y) // prev for x, y in zip(m[i], mp)]
        prev = p
        pivots.append(pc)
    return m, pivots, prev


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("float values are not allowed in exact arithmetic")
    return Fraction(x)


class RatMatrix:
    """Immutable dense matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data):
        data = [[_frac(x) for x in row] for row in data]
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows in matrix literal")
        self._data = data

    # -- construction -----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMatrix":
        z = Fraction(0)
        return RatMatrix([[z] * cols for _ in range(rows)])

    @staticmethod
    def block_diag(*blocks: "RatMatrix") -> "RatMatrix":
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = [[Fraction(0)] * cols for _ in range(rows)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                out[r0 + i][c0 : c0 + b.cols] = b._data[i]
            r0 += b.rows
            c0 += b.cols
        return RatMatrix(out)

    @staticmethod
    def hstack(blocks) -> "RatMatrix":
        blocks = list(blocks)
        rows = blocks[0].rows
        if any(b.rows != rows for b in blocks):
            raise ValueError("hstack: row counts differ")
        return RatMatrix([sum((b._data[i] for b in blocks), []) for i in range(rows)])

    @staticmethod
    def vstack(blocks) -> "RatMatrix":
        blocks = list(blocks)
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise ValueError("vstack: column counts differ")
        return RatMatrix([row for b in blocks for row in b._data])

    # -- access ------------------------------------------------------------

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> "RatMatrix":
        return RatMatrix([self._data[i]])

    def rowlist(self, i: int) -> list[Fraction]:
        return list(self._data[i])

    def tolists(self) -> list[list[Fraction]]:
        return [list(row) for row in self._data]

    def take_rows(self, row_idx) -> "RatMatrix":
        return RatMatrix([list(self._data[i]) for i in row_idx])

    def take_cols(self, col_idx) -> "RatMatrix":
        idx = list(col_idx)
        return RatMatrix([[row[j] for j in idx] for row in self._data])

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._data for x in row)

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.shape == other.shape
            and self._data == other._data
        )

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self._data))

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in addition")
        return RatMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ]
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in subtraction")
        return RatMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ]
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix([[-a for a in row] for row in self._data])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch in product: {self.shape} @ {other.shape}"
            )
        # Row i of self is an integer row over d_i, column j of other an
        # integer column over c_j (the lcms of their denominators), so entry
        # (i, j) is one integer sum over d_i c_j, built once as a Fraction;
        # its unique lowest terms equal those of Fraction arithmetic. Zero
        # weights and entries are skipped, which keeps sparse (Weyr) operands
        # cheap. lcm gets lists: a generator unpacked into a call parks one
        # tuple on CPython's tuple free list per call, up to 2,000 per size.
        bden = [[x.denominator for x in row] for row in other._data]
        cden = [lcm(*col) for col in zip(*bden)]
        brows = [
            [x.numerator * (c // d) for x, d, c in zip(row, drow, cden)]
            for row, drow in zip(other._data, bden)
        ]
        zero, izero = Fraction(0), [0] * other.cols
        out = []
        for row in self._data:
            d = lcm(*[x.denominator for x in row])
            acc = izero
            for x, brow in zip(row, brows):
                if x:
                    a = x.numerator * (d // x.denominator)
                    acc = [s + a * y if y else s for s, y in zip(acc, brow)]
            out.append([Fraction(s, d * c) if s else zero for s, c in zip(acc, cden)])
        return RatMatrix(out)

    def transpose(self) -> "RatMatrix":
        return RatMatrix([list(col) for col in zip(*self._data)])

    # -- elimination ---------------------------------------------------------

    def pivots(self) -> list[int]:
        """Pivot columns: each column independent of the columns before it."""
        return _eliminate(self._data, self.cols, reduced=False)[1]

    def rank(self) -> int:
        """Exact rank."""
        return len(self.pivots())

    def inverse(self) -> "RatMatrix":
        """Exact inverse: the reduced form of [A | I] is [I | A^{-1}].

        Raises SingularMatrixError carrying the first dependent column index.
        """
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        a = [row + e for row, e in zip(self._data, RatMatrix.identity(n)._data)]
        m, pivots, d = _eliminate(a, n)
        if len(pivots) < n:
            raise SingularMatrixError(min(set(range(n)) - set(pivots)))
        return RatMatrix([[Fraction(x, d) for x in row[n:]] for row in m])

    def nullspace(self) -> list[list[Fraction]]:
        """Basis of the right null space, one vector per free column."""
        m, pivots, d = _eliminate(self._data, self.cols)
        basis = []
        for fc in (c for c in range(self.cols) if c not in pivots):
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for prow, pc in enumerate(pivots):
                v[pc] = Fraction(-m[prow][fc], d)
            basis.append(v)
        return basis

    # -- misc ---------------------------------------------------------------

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self._data
        )
        return f"RatMatrix[{body}]"


def linear_combination(terms, rows: int, cols: int) -> RatMatrix:
    """The rows x cols matrix sum of c * M over the pairs (c, M) in ``terms``.

    The weights share one denominator and the entries of the matrices
    another, so the sum is taken over integers and each entry is divided
    once. Only the nonzero entries of each M are visited, so sparse terms
    (the powers of a Weyr form) cost what they hold; no terms give the zero
    matrix.
    """
    nonzero = [
        (c, [(i, j, x) for i, row in enumerate(m._data) for j, x in enumerate(row) if x])
        for c, m in terms
    ]
    dw = lcm(*[c.denominator for c, _ in terms])
    dm = lcm(*[x.denominator for _, entries in nonzero for _, _, x in entries])
    acc = [[0] * cols for _ in range(rows)]
    for c, entries in nonzero:
        w = c.numerator * (dw // c.denominator)
        for i, j, x in entries:
            acc[i][j] += w * x.numerator * (dm // x.denominator)
    d, zero = dw * dm, Fraction(0)
    return RatMatrix([[Fraction(s, d) if s else zero for s in row] for row in acc])


def diamond(Z: RatMatrix) -> RatMatrix:
    """Expand each 1x2 cell (x, y) of Z into the 2x2 block [[x, y], [-y, x]]."""
    if Z.cols % 2:
        raise ValueError("diamond expansion needs an even column count")
    out = []
    for row in Z._data:
        out.append(list(row))
        out.append([v for x, y in zip(row[::2], row[1::2]) for v in (-y, x)])
    return RatMatrix(out)

