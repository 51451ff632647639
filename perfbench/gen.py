"""Seeded input generation for the benchmark, independent of the library.

Everything here is plain Python over ``fractions.Fraction``: matrices are
lists of rows, a target is ``(real, complex)`` with ``real`` a list of
``(eigenvalue, segre)`` and ``complex`` a list of ``(a, b, segre)``.  The
construction mirrors the test suite's ``feasible_instance`` (a random
feedback-group conjugate of the canonical pair whose controllability indices
are majorized by the target's degree sequence), but the class *shape* of each
rung is fixed, so a seed changes the numbers and not the algorithmic path.
Changing the test helpers therefore never changes the benchmark's load.
"""

from __future__ import annotations

import random
from fractions import Fraction

# -- small exact matrix helpers ---------------------------------------------


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def mat_inverse(a):
    """Gauss-Jordan inverse over Q; None when singular."""
    n = len(a)
    m = [list(row) + ident for row, ident in zip(a, identity(n))]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


# -- partitions --------------------------------------------------------------


def conjugate(parts):
    return [sum(1 for p in parts if p > i) for i in range(parts[0])] if parts else []


def majorized_by(a, b):
    """Dominance order for partitions of equal total (a below b)."""
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa > sb:
            return False
    return sa == sb


def degrees_desc(real, cpx):
    depth = max(len(s) for s in [s for _, s in real] + [s for _, _, s in cpx])

    def part(s, i):
        return s[i] if i < len(s) else 0

    return [
        sum(part(s, i) for _, s in real) + 2 * sum(part(s, i) for _, _, s in cpx)
        for i in range(depth)
    ]


# -- the canonical pair and its random conjugates ----------------------------


def brunovsky_pair(r, m):
    """Canonical pair with level sizes r (a partition) and m inputs.

    Same layout as the library's ``p_brunovsky_pair``; the benchmark keeps
    its own copy so that the inputs do not depend on library code.
    """
    k = len(r)
    n = sum(r)
    starts = [0]
    for ri in r:
        starts.append(starts[-1] + ri)
    fp = zeros(n, n)
    for i in range(k - 1):
        for t in range(r[i + 1]):
            fp[starts[i] + t][starts[i + 1] + t] = Fraction(1)
    gp = zeros(n, m)
    col = 0
    for i in range(k, 0, -1):
        nxt = r[i] if i < k else 0
        width = r[i - 1] - nxt
        for t in range(width):
            gp[starts[i - 1] + nxt + t][col + t] = Fraction(1)
        col += width
    return fp, gp


def rand_int_matrix(rng, rows, cols, lo, hi):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]


def rand_invertible(rng, n, lo=-2, hi=2):
    while True:
        a = rand_int_matrix(rng, n, n, lo, hi)
        inv = mat_inverse(a)
        if inv is not None:
            return a, inv


def conjugated_pair(rng, r, m):
    """F = (P Fp - G R) P^-1, G = P Gp Q^-1 for random small integer P, Q, R."""
    n = sum(r)
    fp, gp = brunovsky_pair(r, m)
    P, Pinv = rand_invertible(rng, n)
    _, Qinv = rand_invertible(rng, m)
    R = rand_int_matrix(rng, m, n, -2, 2)
    G = mat_mul(mat_mul(P, gp), Qinv)
    F = mat_mul(mat_sub(mat_mul(P, fp), mat_mul(G, R)), Pinv)
    return F, G


# -- instances ---------------------------------------------------------------


class Shape:
    """Fixed class shape of one ladder rung.

    real / cpx: Segre partitions of the real eigenvalues and conjugate
    pairs; k: the controllability indices of the generated pair (must be
    majorized by the degree sequence); extra: inputs beyond rank G.
    """

    def __init__(self, name, real, cpx, k, extra=0):
        self.name, self.real, self.cpx, self.k, self.extra = name, real, cpx, k, extra
        self.n = sum(map(sum, real)) + 2 * sum(map(sum, cpx))
        degs = degrees_desc([(0, s) for s in real], [(0, 1, s) for s in cpx])
        if sum(k) != self.n or not majorized_by(k, degs):
            raise ValueError(f"shape {name}: indices {k} not majorized by {degs}")


class Instance:
    """A generated problem: exact F, G and a factored target."""

    def __init__(self, name, F, G, real, cpx, rank_g):
        self.name, self.F, self.G, self.real, self.cpx = name, F, G, real, cpx
        self.rank_g = rank_g

    @property
    def n(self):
        return len(self.F)


def worked_example():
    """The five-dimensional instance of the paper and of problems/example_n5.json."""
    F = [[Fraction(int(j == i + 2)) for j in range(5)] for i in range(5)]
    G = [[Fraction(v) for v in row] for row in ([0, 0], [0, 0], [0, 0], [0, 1], [1, 0])]
    return Instance("n5-worked", F, G, [(Fraction(0), [2, 1])], [(Fraction(0), Fraction(1), [1])], 2)


def distinct_ints(rng, count, lo, hi):
    return [Fraction(v) for v in rng.sample(range(lo, hi + 1), count)]


def feasible_instance(rng, shape):
    """Seeded instance of a fixed shape: eigenvalues, pairs and the conjugation vary."""
    lams = distinct_ints(rng, len(shape.real), -4, 4)
    real = [(lam, list(s)) for lam, s in zip(lams, shape.real)]
    cpx = []
    used = set()
    for s in shape.cpx:
        while True:
            a, b = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(1, 2))
            if (a, b) not in used:
                used.add((a, b))
                break
        cpx.append((a, b, list(s)))
    m = len(shape.k) + shape.extra
    F, G = conjugated_pair(rng, conjugate(shape.k), m)
    return Instance(shape.name, F, G, real, cpx, len(shape.k))


def scalar_infeasible_instance(rng, n, m):
    """A controllable pair with m < n inputs and the scalar target lambda*I.

    The class of lambda*I has n invariant polynomials of degree one, and the
    controllability indices (at most m < n parts summing to n) cannot be
    majorized by (1, ..., 1): the target is provably infeasible (exit 3).
    """
    if not 1 <= m < n:
        raise ValueError("needs 1 <= m < n")
    k = [n // m + (1 if i < n % m else 0) for i in range(m)]
    F, G = conjugated_pair(rng, conjugate(k), m)
    lam = Fraction(rng.randint(-4, 4))
    return Instance(f"n{n}-scalar", F, G, [(lam, [1] * n)], [], m)


def rand_rational(rng, lo, hi, dens):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def draw_coords(rng, dim, lo, hi, dens):
    return [rand_rational(rng, lo, hi, dens) for _ in range(dim)]


def draw_block(rng, rows, cols, lo, hi):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]


# -- the documents the command line reads -----------------------------------


def fmt(q):
    """Exact JSON form of a rational: an int, or a "p/q" string."""
    if q.denominator == 1:
        return q.numerator if -(2**53) < q.numerator < 2**53 else str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def matrix_doc(a):
    return [[fmt(v) for v in row] for row in a]


def problem_doc(inst, x=None):
    doc = {
        "F": matrix_doc(inst.F),
        "G": matrix_doc(inst.G),
        "target": {
            "real": [{"eigenvalue": fmt(lam), "segre": list(s)} for lam, s in inst.real],
            "complex": [{"a": fmt(a), "b": fmt(b), "segre": list(s)} for a, b, s in inst.cpx],
        },
    }
    if x is not None:
        doc["options"] = {"x": [fmt(v) for v in x]}
    return doc


def chart_dim(inst):
    """Chart dimension n * rank G - N, from the generator's own data.

    N = sum (2k - 1) d_k over the nonincreasing degree sequence d of the
    target.  Sizes coordinate draws for documents without building a chart.
    """
    degs = degrees_desc(inst.real, inst.cpx)
    N = sum((2 * k - 1) * d for k, d in enumerate(degs, start=1))
    return inst.n * inst.rank_g - N


# -- the cli-small document stream ------------------------------------------

# One round of cli-small: twelve feasible shapes at n = 3..7 and four scalar
# targets (n, m).  Every document gets fresh numbers from the seed, so no two
# documents repeat, but each round has the same mix of shapes: with shapes
# drawn at random too, the median task moved by up to a fifth between seeds.
# Six documents are cheaper than the four n = 5 ones and six dearer, so that
# the median task falls among the n = 5 documents, not in a gap between sizes.
CLI_SHAPES = [
    Shape("n3", [[2, 1]], [], [2, 1]),
    Shape("n4", [[2]], [[1]], [2, 2]),
    Shape("n5-a", [[2, 1]], [[1]], [3, 2]),
    Shape("n5-b", [[3, 1], [1]], [], [4, 1]),
    Shape("n5-c", [[1], [1], [1]], [[1]], [3, 2]),
    Shape("n5-d", [[2, 2, 1]], [], [2, 2, 1]),
    Shape("n6-a", [[1, 1]], [[1, 1]], [3, 3]),
    Shape("n6-b", [[3], [2, 1]], [], [4, 2]),
    Shape("n6-c", [], [[2], [1]], [3, 3]),
    Shape("n7-a", [[2, 1], [2]], [[1]], [4, 3]),
    Shape("n7-b", [[3, 2, 1], [1]], [], [3, 2, 2]),
    Shape("n7-c", [[2, 1]], [[1], [1]], [5, 2]),
]
CLI_INFEASIBLE = [(3, 1), (4, 2), (5, 2), (6, 2)]


def cli_document(seed, i):
    """Document i of the stream: (instance, x), with x None for a scalar target.

    Every fourth document is infeasible.
    """
    rng = new_rng(seed, "cli-small", "doc", i)
    slot, rest = divmod(i % 16, 4)
    if rest == 3:
        return scalar_infeasible_instance(rng, *CLI_INFEASIBLE[slot]), None
    inst = feasible_instance(rng, CLI_SHAPES[3 * slot + rest])
    return inst, draw_coords(rng, chart_dim(inst), -3, 3, (1, 1, 2, 3))


def new_rng(seed, *tags):
    """Independent stream per (seed, tags), stable across Python versions."""
    return random.Random(f"{seed}:" + ":".join(map(str, tags)))
