"""The integer Smith kernel against the rational gcd elimination.

``poly.smith_diagonal`` eliminates on integer polynomials: pseudo-division,
c row_i - q row_t steps and content removal, with only the finished diagonal
made monic. ``oracles.rational_smith_diagonal`` is the gcd elimination over
Q[s] on ``UniPoly`` entries. The monic Smith form is unique, so the two agree
exactly on every input; multiplying by unimodular matrices over Z[s] leaves it
unchanged.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gainchart import RatMatrix, SpectralData, UniPoly, invariant_chain, invariant_polynomials
from gainchart.poly import smith_diagonal

from oracles import monic, rational_smith_diagonal
from test_smith_oracle import synthesized_closed_loops


def trimmed(c):
    """Integer coefficients, lowest degree first, without trailing zeros."""
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return trimmed(out)


def pmul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trimmed(out)


def matmul(a, b):
    """Product of integer polynomial matrices by the summation definition."""
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            acc = []
            for x, brow in zip(row, b):
                acc = padd(acc, pmul(x, brow[j]))
            out[-1].append(acc)
    return out


def rand_poly(rng, deg, lo=-30, hi=30):
    return trimmed(rng.randint(lo, hi) for _ in range(deg + 1))


def rand_poly_matrix(rng, rows, cols, deg=3, lo=-30, hi=30):
    return [[rand_poly(rng, rng.randint(-1, deg), lo, hi) for _ in range(cols)] for _ in range(rows)]


def rand_unimodular(rng, k, steps=None):
    """Integer polynomial matrix with determinant +-1: elementary operations on I."""
    u = [[[int(i == j)] if i == j else [] for j in range(k)] for i in range(k)]
    for _ in range(2 * k if steps is None else steps):
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        kind = rng.randrange(3)
        if kind == 0 and i != j:  # row_i += p row_j
            p = rand_poly(rng, rng.randint(0, 2), -3, 3)
            u[i] = [padd(x, pmul(p, y)) for x, y in zip(u[i], u[j])]
        elif kind == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [[-c for c in x] for x in u[i]]
    return u


def rational(mat):
    return rational_smith_diagonal([[UniPoly(p) for p in row] for row in mat])


def agrees(mat):
    diag = smith_diagonal(mat)
    assert diag == rational(mat)
    for d in diag:
        assert d.is_zero() or d.is_monic()
    return diag


def seeded(name):
    return random.Random(f"smith-kernel-{name}")


def test_random_matrices_against_the_rational_oracle():
    rng = seeded("random")
    for _ in range(120):
        k = rng.randint(1, 5)
        agrees(rand_poly_matrix(rng, k, k if rng.random() < 0.8 else rng.randint(1, 5)))


def test_rank_deficient_matrices_end_in_zeros():
    rng = seeded("deficient")
    for _ in range(40):
        k = rng.randint(2, 5)
        r = rng.randint(0, k - 1)
        m = matmul(rand_poly_matrix(rng, k, r, 2), rand_poly_matrix(rng, r, k, 2)) if r else [
            [[] for _ in range(k)] for _ in range(k)]
        diag = agrees(m)
        assert all(d.is_zero() for d in diag[r:])


def test_unimodular_multiples_of_a_divisibility_chain():
    rng = seeded("unimodular")
    for _ in range(40):
        k = rng.randint(1, 5)
        chain, acc = [], [rng.choice((-3, -1, 1, 2))]
        for _ in range(k):
            acc = pmul(acc, rand_poly(rng, rng.randint(0, 1), -4, 4) or [1])
            chain.append(acc)
        zeros = rng.randint(0, 1) if k > 1 else 0
        chain[k - zeros:] = [[]] * zeros
        d = [[chain[i] if i == j else [] for j in range(k)] for i in range(k)]
        m = matmul(matmul(rand_unimodular(rng, k), d), rand_unimodular(rng, k))
        expected = [monic(UniPoly(p)) for p in chain]
        assert agrees(m) == expected


def test_rows_with_a_large_common_content():
    rng = seeded("content")
    big = 2**61 * 3**17 * 7
    for _ in range(30):
        k = rng.randint(1, 5)
        m = rand_poly_matrix(rng, k, k)
        units = [big * rng.choice((-1, 1, 5)) if rng.random() < 0.6 else 1 for _ in m]
        scaled = [[[c * u for c in p] for p in row] for u, row in zip(units, m)]
        assert agrees(scaled) == smith_diagonal(m)


def test_negative_leading_coefficients():
    rng = seeded("negative")
    for _ in range(40):
        k = rng.randint(1, 4)
        m = rand_poly_matrix(rng, k, k, lo=-30, hi=-1)
        diag = agrees(m)
        flipped = [[[-c for c in p] for p in row] for row in m]
        assert smith_diagonal(flipped) == diag


def test_empty_and_one_by_one():
    assert smith_diagonal([]) == []
    assert smith_diagonal([[[]]]) == [UniPoly.zero()]
    assert smith_diagonal([[[-6]]]) == [UniPoly.one()]
    assert smith_diagonal([[[4, 0, -2]]]) == [UniPoly((-2, 0, 1))]
    rng = seeded("one")
    for _ in range(20):
        agrees([[rand_poly(rng, rng.randint(0, 4))]])


def test_column_steps_scale_the_whole_column():
    # pivot 2s: s + 1 needs the multiplier 2, 2s + 1 none, so a step that
    # scaled only the pivot row's entry would lose the factor s of a_2
    m = [[[0, 2], [1, 1], [1, 2]], [[], [1, 1], [1, 1]]]
    assert agrees(m) == [UniPoly.one(), UniPoly((0, 1, 1))]


@st.composite
def _poly(draw):
    return trimmed(draw(st.lists(st.integers(-20, 20), max_size=4)))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.data())
def test_smith_form_is_invariant_under_unimodular_multiplication(data):
    k = data.draw(st.integers(1, 4))
    d = [[data.draw(_poly()) for _ in range(k)] for _ in range(k)]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    m = matmul(matmul(rand_unimodular(rng, k), d), rand_unimodular(rng, k))
    assert smith_diagonal(m) == smith_diagonal(d)


def test_no_fraction_is_built_before_the_monic_diagonal(monkeypatch):
    # the Smith elimination, the chain form, the factored chain and the null
    # space run on integers, and their results are wrapped without a Fraction
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    rng = seeded("count")
    mats = [rand_poly_matrix(rng, k, k) for k in (1, 2, 3, 4, 5)]
    loops = [M for _, *pair in synthesized_closed_loops("count", lambda k: min(k) >= 2, 2)
             for M in pair]
    targets = [
        SpectralData(real=[(Fraction(1, 3), (2, 1)), (Fraction(-5, 7), (1,))],
                     complex=[(Fraction(1, 2), Fraction(1, 2), (2,)), (Fraction(-2, 5), 3, (1,))]),
        SpectralData(complex=[(Fraction(-3, 4), Fraction(5, 6), (3, 1))]),
    ]
    systems = [RatMatrix([[1, Fraction(1, 2), 3], [2, 1, 6]]), RatMatrix.identity(3),
               RatMatrix.zeros(2, 4)]
    systems += [RatMatrix.vstack([m, m.row(0)]) for m in (
        RatMatrix([[rng.randint(-5, 5) for _ in range(6)] for _ in range(4)]) for _ in range(5))]
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    Fraction(1, 3)
    assert built == [(1, 3)]  # the count sees a Fraction built
    built.clear()
    diags = [smith_diagonal(m) for m in mats]
    chains = [invariant_polynomials(M) for M in loops] + [invariant_chain(sd) for sd in targets]
    bases = [A.nullspace() for A in systems]
    assert built == []
    monkeypatch.undo()
    assert all(d.is_zero() or d.is_monic() for diag in diags for d in diag)
    assert chains[-2].polys[-1].degree == 9 and chains[-1].polys[-1].degree == 6
    assert [b.shape for b in bases[:3]] == [(2, 3), (0, 3), (4, 4)]
    for A, b in zip(systems, bases):
        assert (A @ b.transpose()).is_zero() and b.rank() == b.rows == A.cols - A.rank()
