"""The one elimination routine against the two it replaced.

``RatMatrix`` rank, inverse, null space and pivot columns, and
over Q[i] the inverse, invertibility and row-span membership (read off the
pivots) of diamond-expanded packed rows, are checked on seeded inputs
against the Bareiss echelon loop and the field Gauss-Jordan kept in
``oracles``. Every answer is unique (rank, inverse, reduced
echelon form, pivot columns, first dependent column), so they must agree
exactly, singular and rank-deficient inputs included. Packed arithmetic
itself is checked against the ``GaussRat`` reference.
"""

import random
from fractions import Fraction

import pytest

from gainchart import RatMatrix, SingularMatrixError, diamond

from conftest import rand_frac, rand_matrix
from oracles import (
    GaussRat,
    bareiss,
    field_inverse,
    field_rref,
    gauss_jordan_inverse,
    gauss_jordan_nullspace,
    gauss_matmul,
    packed,
    span_answers,
)


def _real_cases(rng, count):
    """Full, rectangular, low-rank product and zeroed-column matrices up to 9x9."""
    for t in range(count):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        if t % 3 == 0:  # square, so det and inverse are exercised
            cols = rows
        kind = t % 4
        if kind == 0:
            m = rand_matrix(rng, rows, cols)
        elif kind == 1:  # rank at most k < min(rows, cols)
            k = rng.randint(0, max(0, min(rows, cols) - 1))
            m = rand_matrix(rng, rows, k) @ rand_matrix(rng, k, cols) if k else RatMatrix.zeros(rows, cols)
        elif kind == 2:  # some columns zeroed
            m = rand_matrix(rng, rows, cols).tolists()
            for c in rng.sample(range(cols), rng.randint(1, cols)):
                for row in m:
                    row[c] = Fraction(0)
            m = RatMatrix(m)
        else:  # one column a combination of two earlier ones
            m = rand_matrix(rng, rows, cols, lo=-9, hi=9, dens=(1, 2, 5, 7)).tolists()
            if cols >= 3:
                a, b, c = sorted(rng.sample(range(cols), 3))
                u, v = rand_frac(rng), rand_frac(rng)
                for row in m:
                    row[c] = u * row[a] + v * row[b]
            m = RatMatrix(m)
        yield m


def test_real_kernel_matches_old_routines():
    rng = random.Random(0xE11)
    singular = 0
    for m in _real_cases(rng, 400):
        rank, _, _ = bareiss(m)
        assert m.rank() == rank
        assert m.pivots() == field_rref(m.tolists())
        basis = m.nullspace()
        assert basis.tolists() == gauss_jordan_nullspace(m)
        assert basis.cols == m.cols
        if not m.is_square():
            continue
        try:
            expect = gauss_jordan_inverse(m)
        except SingularMatrixError as old:
            singular += 1
            with pytest.raises(SingularMatrixError) as new:
                m.inverse()
            assert new.value.column == old.column
        else:
            assert m.inverse() == expect
    assert singular >= 30  # the singular branch is really exercised


def _gauss(rng, lo=-3, hi=3):
    return GaussRat(rand_frac(rng, lo, hi), rand_frac(rng, lo, hi))


def _gauss_cases(rng, count):
    """Square GaussRat matrices up to 4x4, about half of them singular."""
    for t in range(count):
        n = rng.randint(1, 4)
        m = [[_gauss(rng) for _ in range(n)] for _ in range(n)]
        if t % 2 and n > 1:  # one row a Gaussian multiple of another
            i, j = rng.sample(range(n), 2)
            c = _gauss(rng)
            m[i] = [c * x for x in m[j]]
        elif t % 5 == 0:
            for row in m:
                row[rng.randrange(n)] = GaussRat(0)
        yield m


def test_gaussian_inverse_and_invertibility_match_field_gauss_jordan():
    rng = random.Random(0xC311)
    singular = 0
    for m in _gauss_cases(rng, 200):
        expect = field_inverse(m)
        singular += expect is None
        real = diamond(packed(m))
        if expect is None:
            with pytest.raises(SingularMatrixError):
                real.inverse()
        else:
            assert real.inverse() == diamond(packed(expect))
        assert (real.rank() == 2 * len(m)) == (len(field_rref([list(r) for r in m])) == len(m))
    assert singular >= 50


def test_pivot_answers_match_field_gauss_jordan():
    # vector pos is independent of the ones before it exactly when its first
    # expanded row is a pivot column of the transposed stack
    rng = random.Random(0x5BA)
    for t in range(120):
        width = rng.randint(1, 4)
        if t % 2:
            vecs = [[_gauss(rng, -1, 1) for _ in range(width)] for _ in range(6)]
            vecs.insert(rng.randrange(len(vecs)), [GaussRat(1, 1) * x for x in vecs[0]])
        else:
            vecs = rand_matrix(rng, 7, width, lo=-1, hi=1).tolists()
        h = 2 if t % 2 else 1
        rows = diamond(packed(vecs)) if t % 2 else RatMatrix(vecs)
        pivots = rows.transpose().pivots()
        assert [h * pos in pivots for pos in range(len(vecs))] == span_answers(vecs)


def test_packed_rows_multiply_as_gaussian_matrices():
    # packed(X) @ diamond(packed(E)) = packed(X E), and diamond is multiplicative
    rng = random.Random(0xD1A)
    for _ in range(60):
        r, s = rng.randint(1, 4), rng.randint(1, 4)
        X = [[_gauss(rng) for _ in range(s)] for _ in range(r)]
        E = [[_gauss(rng) for _ in range(s)] for _ in range(s)]
        if rng.random() < 0.3:  # zero cells and pure real or imaginary ones
            X[0] = [GaussRat(0), GaussRat(0, 2), GaussRat(-1), GaussRat(1, 1)][:s]
        XE = gauss_matmul(X, E)
        assert packed(X) @ diamond(packed(E)) == packed(XE)
        assert diamond(packed(X)) @ diamond(packed(E)) == diamond(packed(XE))
        EE = gauss_matmul(E, E)
        assert diamond(packed(E)) @ diamond(packed(E)) == diamond(packed(EE))
