"""Univariate polynomials over Q and the invariant polynomials of a matrix.

``UniPoly`` stores its coefficients as integers over one positive
denominator in lowest terms, the form of a ``RatMatrix`` row, so products
are integer convolutions and the kernels below wrap their integer results
without building a ``Fraction``.

``invariant_polynomials`` reads the invariant polynomials of A off the Smith
form of sI - A over Q[s], but runs that Smith form on a k x k matrix only.
``chain_form`` brings A by similarity over Q to a chain form h: its indices
split into k chains (c_0, ..., c_{d-1}), and every index that does not end
its chain is a shift row, the unit row h[c_t] = e_{c_{t+1}}. Two steps:

1. Claim the rows of A that already are unit rows e_c, c != r, rows
   ascending, skipping a c already claimed and the link that would close a
   cycle. No arithmetic: on a closed loop Fp + Gp Kp whose controllability
   indices are all >= 2 this step alone gives the k = rank G chains.
2. While a chain end q holds h[q][c] != 0 at a singleton c (a chain of
   length 1 other than q's), apply Danilevsky's similarity y_c = h[q] x:
   row q becomes e_c, c the end of q's chain. Column c, nobody's successor,
   is zero on every shift row, so the shift rows stay as they are.

The remainder D holds D[q][j] = [q ends j] s^{d_j} - sum_t h[q][c^j_t] s^t
for chain ends q and chains j. With v_j = sum_t s^t e_{c^j_t}, (sI - h) v_j
is zero on the shift rows and column j of D on the end rows. The v_j and the
unit vectors of the indices that start no chain form a unimodular V, and on
the shift rows those unit vectors give -I + sN, N nilpotent. So sI - h ~
diag(I_{n-k}, D), and as the monic Smith form is unique the chain is n - k
ones followed by ``smith_diagonal(D)``.

D is built from integers: chain end q's row of h, integers over den, scaled
by den gives integer coefficient lists, and scaling a row by a nonzero
rational is a unit of Q[s]. ``smith_diagonal`` runs the gcd elimination
fraction-free (Collins 1967): each quotient is a pseudo-quotient,
c a = q piv + r with c a nonzero integer, each step is c row_i - q row_t (or
the same on columns), "piv divides a" is "r = 0", and every row or column a
step touches is divided by the gcd of its coefficients, which keeps them
from growing exponentially. Each of these is a unimodular operation over
Q[s], so the elimination reaches the Smith form up to unit scalings, and
making the finished diagonal monic (each entry over its leading coefficient,
reduced by one gcd) gives the unique monic Smith form: the same chain, byte
for byte, as a gcd elimination over Q[s]. No ``Fraction`` is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .linalg import RatMatrix, _frac, _reduced, rational_text


class UniPoly:
    """Polynomial in one variable with exact rational coefficients.

    Stored as integers ``_num``, lowest degree first with no trailing zeros,
    over one positive denominator ``_den``, in lowest terms: the form that
    ``linalg._reduced`` gives a ``RatMatrix`` row. That form is unique, so
    equal polynomials have equal storage. The zero polynomial is ((), 1).
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=()):
        c = [_frac(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        d = lcm(*[x.denominator for x in c])
        self._num, self._den = tuple(x.numerator * (d // x.denominator) for x in c), d

    @classmethod
    def _of(cls, num, den) -> "UniPoly":
        """Wrap trimmed integers over den > 0 in lowest terms that a kernel built."""
        p = object.__new__(cls)
        p._num, p._den = tuple(num), den
        return p

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly._of((), 1)

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly._of((1,), 1)

    # -- basics ----------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._num) - 1

    def is_zero(self) -> bool:
        return not self._num

    def is_monic(self) -> bool:
        return bool(self._num) and self._num[-1] == self._den

    def __eq__(self, other):
        return isinstance(other, UniPoly) and (self._den, self._num) == (other._den, other._num)

    def __hash__(self):
        return hash((self._den, self._num))

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        """Integer convolution of the numerators, over the product of the denominators."""
        a, b = self._num, other._num
        if not a or not b:
            return UniPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return UniPoly._of(*_reduced(out, self._den * other._den))

    def divides(self, other: "UniPoly") -> bool:
        """Whether self divides other: a zero pseudo-remainder of the numerators."""
        if self.is_zero():
            return other.is_zero()
        return not _pdivmod(other._num, self._num)[2]

    def power(self, k: int) -> "UniPoly":
        acc = UniPoly.one()
        for _ in range(k):
            acc = acc * self
        return acc

    # -- display -----------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            if x := self._num[k]:
                c = rational_text(x, self._den)
                if k:
                    var = "s" if k == 1 else f"s^{k}"
                    c = var if c == "1" else f"-{var}" if c == "-1" else f"{c}*{var}"
                terms.append(c)
        return terms[0] + "".join(f" - {t[1:]}" if t[0] == "-" else f" + {t}" for t in terms[1:])

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
            if a.degree and not a.divides(b):  # a monic constant is 1
                raise ValueError("divisibility chain violated")

    def degrees_desc(self) -> tuple[int, ...]:
        """Degrees listed from the last (largest) polynomial down."""
        return tuple(p.degree for p in reversed(self.polys))

    def __iter__(self):
        return iter(self.polys)


def _trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _submul(c: int, p: list[int], q: list[int], v: list[int]) -> list[int]:
    """c p - q v on integer coefficient lists, trimmed."""
    out = [c * x for x in p]
    if q and v:
        out.extend([0] * (len(q) + len(v) - 1 - len(out)))
        for i, x in enumerate(q):
            if x:
                for j, y in enumerate(v):
                    out[i + j] -= x * y
    return _trim(out)


def _pdivmod(a: list[int], b: list[int]):
    """(c, q, r) with c a positive integer, c a = q b + r and deg r < deg b.

    Pseudo-division with the least multiplier: a step whose leading
    coefficient x is not a multiple of lc(b) scales by lc(b) / gcd(x, lc(b)).
    """
    r, q, c, top = list(a), [0] * max(len(a) - len(b) + 1, 0), 1, len(b) - 1
    lb = b[-1]
    for i in range(len(q) - 1, -1, -1):
        if x := r[i + top]:
            g = gcd(x, lb) if lb > 0 else -gcd(x, lb)
            if (u := lb // g) != 1:
                r, q, c = [y * u for y in r], [y * u for y in q], c * u
            q[i] = w = x // g
            for j, y in enumerate(b):
                r[i + j] -= w * y
    return c, q, _trim(r)


def _primitive(ps: list[list[int]]) -> list[list[int]]:
    """The polynomials ps divided by the gcd of all their coefficients."""
    g = gcd(*[x for p in ps for x in p])
    return [[x // g for x in p] for p in ps] if g > 1 else ps


def smith_diagonal(mat: list[list[list[int]]]) -> list[UniPoly]:
    """Monic diagonal of the Smith form over Q[s] of an integer polynomial matrix.

    Entries are integer coefficient lists, lowest degree first and trimmed.
    Each step is c row_i - q row_t (or the same on columns) with c and q from
    the pseudo-division of the entry by the pivot, and the row or column it
    touches is divided by the gcd of its coefficients; both are unimodular
    over Q[s]. Only the finished diagonal is made monic.

    Each ``while True`` ends: every ``continue`` leaves a nonzero pseudo-remainder of
    lower degree than the pivot, which has the least degree in the trailing block, so
    that least degree strictly falls, and the entry degrees bound it. A row the pivot
    does not divide, added to the pivot row, makes the next pass continue so.
    """
    m = [list(row) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    for t in range(min(rows, cols)):
        while True:
            # minimal-degree nonzero pivot in the trailing submatrix, first in row order
            cells = [(len(m[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if m[i][j]]
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
                if m[i][t]:
                    c, q, _ = _pdivmod(m[i][t], piv)
                    m[i] = _primitive([_submul(c, a, q, b) for a, b in zip(m[i], m[t])])
                    if m[i][t]:
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if m[t][j]:
                    c, q, _ = _pdivmod(m[t][j], piv)
                    col = _primitive([_submul(c, row[j], q, row[t]) for row in m])
                    for row, p in zip(m, col):
                        row[j] = p
                    if m[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry (a zero pseudo-remainder);
            # a nonzero constant divides everything
            rest = range(t + 1, cols)
            bad = None if len(piv) == 1 else next(
                (i for i in range(t + 1, rows) for j in rest if m[i][j] and _pdivmod(m[i][j], piv)[2]),
                None,
            )
            if bad is None:
                break
            m[t] = _primitive([_submul(1, a, [-1], b) for a, b in zip(m[t], m[bad])])  # row_t += row_bad
        if not m[t][t]:
            diag.extend([UniPoly.zero()] * (min(rows, cols) - t))
            break
        diag.append(UniPoly._of(*_reduced(m[t][t], m[t][t][-1])))
    return diag


def _danilevsky(m, q, c):
    """y_c = t x, t = m[q] with t_c != 0, on rows m of (numerators, denominator).

    Columns first: col_j -= (t_j / t_c) col_c and col_c /= t_c in every row
    with an entry at c; then row c := sum_j t_j row_j. Row q becomes e_c.
    """
    (t, dt), tc = m[q], m[q][0][c]
    for i, (nums, d) in enumerate(m):
        if f := nums[c]:
            nums = [x * tc - f * u for x, u in zip(nums, t)]
            nums[c] = f * dt
            m[i] = _reduced(nums, d * tc)
    den = lcm(*[d for u, (_, d) in zip(t, m) if u])
    acc = [0] * len(m)
    for u, (nums, d) in zip(t, m):
        if u:
            w = u * (den // d)
            acc = [s + w * x for s, x in zip(acc, nums)]
    m[c] = _reduced(acc, dt * den)


def chain_form(a: RatMatrix):
    """A chain form h of ``a`` and its chains, by start (see the module docstring).

    h is a list of rows (integers, denominator) as ``RatMatrix.int_rows``
    gives them. Row c_t of h is the unit row e_{c_{t+1}} for t < d - 1 in
    each chain (c_0, ..., c_{d-1}); the end row c_{d-1} is arbitrary.
    """
    h = a.int_rows()
    n = len(h)
    succ, pred = {}, {}
    for r, (row, d) in enumerate(h):
        nz = [c for c, x in enumerate(row) if x]
        c = end = nz[0] if len(nz) == 1 and row[nz[0]] == d else r
        while end in succ:
            end = succ[end]
        if end != r and c not in pred:  # no link r -> r, and none closing a cycle
            succ[r] = pred[c] = c
    while step := next(
        ((q, c) for q in range(n) if q not in succ
         for c, x in enumerate(h[q][0]) if x and c != q and c not in succ and c not in pred),
        None,
    ):
        _danilevsky(h, *step)
        succ[step[0]] = pred[step[1]] = step[1]
    chains = [[i] for i in range(n) if i not in pred]
    for chain in chains:
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
    return h, chains


def invariant_polynomials(a: RatMatrix) -> InvariantChain:
    """Invariant polynomials a_1 | ... | a_n of a square matrix.

    They are the monic Smith form of sI - a over Q[s], and their product is
    the characteristic polynomial: n - k ones, then the Smith diagonal of the
    k x k remainder D of a chain form of a (see the module docstring).
    """
    if not a.is_square():
        raise ValueError("invariant polynomials require a square matrix")
    h, chains = chain_form(a)
    d = []
    for e in chains:
        row, den = h[e[-1]]
        d.append([_trim([-row[c] for c in ch] + [den] * (ch is e)) for ch in chains])
    return InvariantChain((UniPoly.one(),) * (a.rows - len(d)) + tuple(smith_diagonal(d)))
