"""Dense exact linear algebra over the rationals.

Matrices are immutable. Each row is stored as Python ints over one positive
denominator, in lowest terms, and entries are read as ``fractions.Fraction``.
Rank, pivot columns, inverse, solve and null space share one forward
elimination, ``_eliminate``: fraction-free Bareiss on the integer rows, which
bounds intermediate growth. Inverse, solve and null space read the reduced
form, in the columns they need, off one exact back-substitution, ``_back``.

Products (``@`` and ``kron_sum``, a sum of Kronecker products), sums and
transposes run on the ints too: the rows of the right factor (the mats of
``kron_sum``) are brought to one denominator, the integer sums are
accumulated, and each output row is reduced once by a gcd.
A row in lowest terms is unique, so the entries, and every digest or
printed byte derived from them, are those of entry-by-entry Fraction
arithmetic.

Every exact rational the program prints, a matrix or polynomial entry or a
JSON field, is written by ``rational_text`` from a stored integer over its
positive denominator. It cuts the digits into chunks, so no length meets the
interpreter's limit on integer-to-string conversion; ``_integer`` reads
digits back the same way.

A conjugate-pair block stores a matrix over Q[i] as packed real rows: the
1x2 slab (x, y) for each cell x + iy. ``diamond`` expands every slab to the
real 2x2 block [[x, y], [-y, x]]; it is a ring homomorphism, so
packed(X) @ diamond(packed(E)) = packed(XE), and rank, inverse and row-span
membership over Q[i] are read off the expansion.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class SingularMatrixError(ValueError):
    """Raised when inverting a singular matrix.

    ``column`` is the index (0-based) of the first column that is linearly
    dependent on the columns before it.
    """

    def __init__(self, column):
        super().__init__(f"matrix is singular: column {column} is dependent")
        self.column = column


def _eliminate(rows, cols):
    """Forward fraction-free (Bareiss) elimination of integer rows; returns (m, pivots, d).

    Pivots are taken in the first ``cols`` columns, left to right, each at
    the first nonzero entry at or below the current row. Each row below it
    becomes (x*p - f*y) // prev, an exact division; its entries left of the
    pivot are zero, and are carried whole, as slicing them off costs more than
    they do. One pass over the columns, so it terminates. d is the last pivot
    (1 with none); the input rows are not modified.
    """
    m = list(rows)
    prev = 1
    pivots = []
    for pc in range(cols):
        pr = len(pivots)
        if pr == len(m):
            break
        piv = next((i for i in range(pr, len(m)) if m[i][pc]), None)
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        mp = m[pr]
        p = mp[pc]
        for i in range(pr + 1, len(m)):
            f = m[i][pc]
            m[i] = [(x * p - f * y) // prev for x, y in zip(m[i], mp)]
        prev = p
        pivots.append(pc)
    return m, pivots, prev


def _back(m, pivots, rhs):
    """d X over the columns ``rhs`` of an ``_eliminate`` result, d its last pivot.

    Row i of X is row i of the reduced echelon form in those columns. Each
    entry of d X is a minor (Cramer's rule), so every division here is exact.
    """
    k = len(pivots)
    d = m[k - 1][pivots[-1]] if k else 1
    xs = [None] * k
    for i in range(k - 1, -1, -1):
        row = m[i]
        acc = [d * row[c] for c in rhs]
        for j in range(i + 1, k):
            if f := row[pivots[j]]:
                acc = [a - f * x for a, x in zip(acc, xs[j])]
        p = row[pivots[i]]
        xs[i] = [a // p for a in acc]
    return xs


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("float values are not allowed in exact arithmetic")
    return Fraction(x)


# 600 digits per chunk stays below 640, the least digit limit the
# interpreter accepts, so no setting of that limit stops the output
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(n: int) -> str:
    """Exact decimal digits of n at any length, without the int-to-str limit."""
    if n < 0:
        return "-" + _decimal(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _cut(text: str) -> str:
    """``text`` cut to its first 40 characters, so an error line stays bounded."""
    return text if len(text) <= 40 else text[:40] + "..."


def _integer(s: str) -> int:
    """The int of an optional sign and ASCII digits at any length: ``_decimal``'s inverse.

    Horner's rule over 600-digit chunks, each read by ``int`` below any
    digit limit the interpreter accepts. One pass over the chunks, so it
    terminates. It costs no more than ``_decimal`` writing the same digits.
    """
    if len(s) <= _CHUNK_DIGITS:  # one chunk
        return int(s)
    digits = s.lstrip("+-")
    head = len(digits) % _CHUNK_DIGITS or _CHUNK_DIGITS
    n = int(digits[:head])
    for i in range(head, len(digits), _CHUNK_DIGITS):
        n = n * _CHUNK + int(digits[i:i + _CHUNK_DIGITS])
    return -n if s[0] == "-" else n


def rational_text(x: int, d: int) -> str:
    """The exact text of x / d with d > 0: "p/q" in lowest terms, or "p" when q is 1."""
    g = gcd(x, d)
    x, d = x // g, d // g
    return _decimal(x) if d == 1 else f"{_decimal(x)}/{_decimal(d)}"


def _reduced(row, d):
    """An integer row over a nonzero denominator d, in lowest terms with d > 0."""
    g = gcd(d, *row) if d > 0 else -gcd(d, *row)
    return ([x // g for x in row], d // g) if g != 1 else (row, d)


def _lowest(num, den, cols) -> "RatMatrix":
    """The matrix of the integer rows num[i] over den[i], each in lowest terms."""
    for i, (row, d) in enumerate(zip(num, den)):
        num[i], den[i] = _reduced(row, d)
    return RatMatrix._of(num, den, cols)


def _common(num, den):
    """Integer rows rescaled to one denominator, the lcm of den, and that lcm."""
    L = lcm(*den)
    return [row if d == L else [x * (L // d) for x in row] for row, d in zip(num, den)], L


class RatMatrix:
    """Immutable dense matrix with exact rational entries.

    Row i is stored as integers ``_num[i]`` over a positive denominator
    ``_den[i]`` in lowest terms (their gcd is 1). That form is unique, so
    equal matrices have equal storage. Entries are read as Fractions.
    """

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, data):
        num, den = [], []
        for row in data:
            row = [_frac(x) for x in row]
            d = lcm(*[x.denominator for x in row])
            num.append([x.numerator * (d // x.denominator) for x in row])
            den.append(d)
        self.rows, self.cols = len(num), len(num[0]) if num else 0
        if any(len(row) != self.cols for row in num):
            raise ValueError("ragged rows in matrix literal")
        self._num, self._den = num, den

    @classmethod
    def _of(cls, num, den, cols) -> "RatMatrix":
        """Wrap rows in lowest terms that a kernel here built, skipping the entry checks.

        ``cols`` is given, not read off a row, so a matrix with no rows keeps its width.
        """
        m = object.__new__(cls)
        m.rows, m.cols, m._num, m._den = len(num), cols, num, den
        return m

    # -- construction -----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        m = RatMatrix.zeros(n, n)
        for i, row in enumerate(m._num):
            row[i] = 1
        return m

    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMatrix":
        if rows < 0 or cols < 0:
            raise ValueError(f"negative matrix size {rows} x {cols}")
        return RatMatrix._of([[0] * cols for _ in range(rows)], [1] * rows, cols)

    @staticmethod
    def block_diag(*blocks: "RatMatrix") -> "RatMatrix":
        cols = sum(b.cols for b in blocks)
        num, den, c0 = [], [], 0
        for b in blocks:
            num += [[0] * c0 + row + [0] * (cols - c0 - b.cols) for row in b._num]
            den += b._den
            c0 += b.cols
        return RatMatrix._of(num, den, cols)

    @staticmethod
    def hstack(blocks) -> "RatMatrix":
        blocks = list(blocks)
        rows = blocks[0].rows
        if any(b.rows != rows for b in blocks):
            raise ValueError("hstack: row counts differ")
        # each row over the lcm of its block denominators stays in lowest terms
        num, den = [], []
        for i in range(rows):
            parts, d = _common([b._num[i] for b in blocks], [b._den[i] for b in blocks])
            num.append(sum(parts, []))
            den.append(d)
        return RatMatrix._of(num, den, sum(b.cols for b in blocks))

    @staticmethod
    def vstack(blocks) -> "RatMatrix":
        blocks = list(blocks)
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise ValueError("vstack: column counts differ")
        return RatMatrix._of(
            sum((b._num for b in blocks), []), sum((b._den for b in blocks), []), cols
        )

    # -- access ------------------------------------------------------------

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return Fraction(self._num[i][j], self._den[i])

    def row(self, i: int) -> "RatMatrix":
        return RatMatrix._of([self._num[i]], [self._den[i]], self.cols)

    def rowlist(self, i: int) -> list[Fraction]:
        return [Fraction(x, self._den[i]) for x in self._num[i]]

    def tolists(self) -> list[list[Fraction]]:
        return [self.rowlist(i) for i in range(self.rows)]

    def int_rows(self) -> list[tuple[list[int], int]]:
        """Each row as (integer list, positive denominator) in lowest terms; fresh lists."""
        return [(list(row), d) for row, d in zip(self._num, self._den)]

    def take_rows(self, row_idx) -> "RatMatrix":
        idx = list(row_idx)
        return RatMatrix._of([self._num[i] for i in idx], [self._den[i] for i in idx], self.cols)

    def take_cols(self, col_idx) -> "RatMatrix":
        idx = list(col_idx)
        return _lowest([[row[j] for j in idx] for row in self._num], list(self._den), len(idx))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(any(row) for row in self._num)

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        # lowest terms are unique, so the storage compares; with no rows only the width differs
        return isinstance(other, RatMatrix) and (self.cols, self._den, self._num) == (
            other.cols, other._den, other._num
        )

    def __hash__(self):
        return hash((tuple(map(tuple, self._num)), tuple(self._den)))

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return self._plus(other, 1, "addition")

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self._plus(other, -1, "subtraction")

    def _plus(self, other, sign, what):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch in {what}")
        num, den = [], []
        for a, d, b, e in zip(self._num, self._den, other._num, other._den):
            L = lcm(d, e)
            u, v = L // d, sign * (L // e)
            num.append([x * u + y * v for x, y in zip(a, b)])
            den.append(L)
        return _lowest(num, den, self.cols)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._of([[-x for x in row] for row in self._num], self._den, self.cols)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch in product: {self.shape} @ {other.shape}"
            )
        # the rows of other over one denominator L: row i of the product is an
        # integer row over d_i L, brought to lowest terms once; zero entries
        # are skipped, which keeps sparse (Weyr) operands cheap
        brows, L = _common(other._num, other._den)
        izero = [0] * other.cols
        num = []
        for row in self._num:
            acc = izero
            for x, brow in zip(row, brows):
                if x:
                    acc = [s + x * y if y else s for s, y in zip(acc, brow)]
            num.append(acc)
        return _lowest(num, [d * L for d in self._den], other.cols)

    def transpose(self) -> "RatMatrix":
        rows, L = _common(self._num, self._den)
        cols = [[row[j] for row in rows] for j in range(self.cols)]
        return _lowest(cols, [L] * self.cols, self.rows)

    # -- elimination ---------------------------------------------------------

    def pivots(self) -> list[int]:
        """Pivot columns: each column independent of the columns before it."""
        return _eliminate(self._num, self.cols)[1]

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
        # row i of [A | I] over d_i is the integer row [a_i | d_i e_i]
        a = [row + [d * (i == j) for j in range(n)]
             for i, (row, d) in enumerate(zip(self._num, self._den))]
        m, pivots, d = _eliminate(a, n)
        if len(pivots) < n:
            raise SingularMatrixError(min(set(range(n)) - set(pivots)))
        return _lowest(_back(m, pivots, range(n, 2 * n)), [d] * n, n)

    def solve(self, B: "RatMatrix") -> "RatMatrix":
        """X = B @ self^{-1}, solved from X @ self = B without the inverse.

        With self = D^-1 N and B = E^-1 M over their row denominators, [N^T | M^T]
        reduces to [I | Y / d], and X = E^-1 Y^T D / d. Raises
        SingularMatrixError carrying the first dependent column index of self.
        """
        if not self.is_square() or B.cols != self.cols:
            raise ValueError(f"solve needs self square and B as wide: {self.shape}, {B.shape}")
        n = self.rows
        a = [[row[j] for row in self._num] + [row[j] for row in B._num] for j in range(n)]
        m, pivots, d = _eliminate(a, n)
        if len(pivots) < n:
            # the pivots of N^T are the independent rows of self; name a column
            raise SingularMatrixError(min(set(range(n)) - set(self.pivots())))
        ys = _back(m, pivots, range(n, n + B.rows))
        return _lowest([[y[k] * e for y, e in zip(ys, self._den)] for k in range(B.rows)],
                       [d * e for e in B._den], n)

    def nullspace(self) -> "RatMatrix":
        """Basis of the right null space, one row per free column.

        With X / d the reduced form read in the free columns, the vector of
        free column f is d at f and -X[i][f] at the pivot column of row i, over d.
        """
        m, pivots, d = _eliminate(self._num, self.cols)
        free = [c for c in range(self.cols) if c not in pivots]
        num = [[0] * self.cols for _ in free]
        for v, fc in zip(num, free):
            v[fc] = d
        for x, pc in zip(_back(m, pivots, free), pivots):
            for v, y in zip(num, x):
                v[pc] = -y
        return _lowest(num, [d] * len(num), self.cols)

    # -- misc ---------------------------------------------------------------

    def __repr__(self):
        body = "; ".join(
            " ".join(rational_text(x, d) for x in row) for row, d in zip(self._num, self._den)
        )
        return f"RatMatrix[{body}]"


def kron_sum(W: RatMatrix, mats) -> RatMatrix:
    """The sum of W_i (x) mats[i] over the equal column slabs of W = [W_0 | W_1 | ...].

    Row (j, u) holds in its slab a the rows u of the mats weighted by
    W[j, i * c + a], c the slab width. As in ``@``, the rows of the mats share
    one denominator L, each output row is an integer sum over d_j L reduced
    once, and zero weights and entries are skipped, so sparse (Weyr) mats are cheap.
    """
    mats = list(mats)
    shapes = [m.shape for m in mats]
    if len(set(shapes)) != 1 or W.cols % len(mats):
        raise ValueError(f"kron_sum: weights {W.shape} do not split into slabs for mats {shapes}")
    (p, q), c = shapes[0], W.cols // len(mats)
    rows, L = _common(sum((m._num for m in mats), []), sum((m._den for m in mats), []))
    num = []
    for wrow in W._num:
        slabs = [[(w, i * p) for i, w in enumerate(wrow[a::c]) if w] for a in range(c)]
        for u in range(p):
            out = []
            for terms in slabs:
                acc = None  # the first term starts the sum
                for w, off in terms:
                    y = rows[off + u]
                    acc = ([w * x for x in y] if acc is None
                           else [s + w * x if x else s for s, x in zip(acc, y)])
                out += acc or [0] * q
            num.append(out)
    return _lowest(num, [d * L for d in W._den for _ in range(p)], c * q)


def diamond(Z: RatMatrix) -> RatMatrix:
    """Expand each 1x2 cell (x, y) of Z into the 2x2 block [[x, y], [-y, x]]."""
    if Z.cols % 2:
        raise ValueError("diamond expansion needs an even column count")
    num, den = [], []
    for row, d in zip(Z._num, Z._den):
        num += [row, [v for x, y in zip(row[::2], row[1::2]) for v in (-y, x)]]
        den += [d, d]
    return RatMatrix._of(num, den, Z.cols)
