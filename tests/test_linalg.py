from fractions import Fraction

import pytest

from gainchart import Partition, RatMatrix, SingularMatrixError, SpectralData, weyr_from_spectral

from gainchart.linalg import linear_combination

from conftest import rand_matrix, worked_example
from oracles import bareiss_det, naive_matmul, scaled


def test_matmul_identity(rng):
    m = rand_matrix(rng, 3, 3)
    assert RatMatrix.identity(3) @ m == m
    assert m @ RatMatrix.identity(3) == m


def test_rotation_block_squares_to_minus_identity():
    b0 = RatMatrix([[0, 1], [-1, 0]])
    assert b0 @ b0 == scaled(RatMatrix.identity(2), -1)


def test_matmul_against_summation_definition(rng):
    A, _ = weyr_from_spectral(
        SpectralData(real=[(2, Partition([3, 1, 1]))], complex=[(1, 2, Partition([2, 1]))])
    )
    pairs = []
    for _ in range(5):
        pairs.append((rand_matrix(rng, 4, 4), rand_matrix(rng, 4, 4)))
        r, s, t = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = rand_matrix(rng, r, s).tolists(), rand_matrix(rng, s, t).tolists()
        a[rng.randrange(r)] = [0] * s  # a zero row on the left
        for row in b:  # a zero column on the right
            row[rng.randrange(t)] = 0
        pairs.append((RatMatrix(a), RatMatrix(b)))
        pairs.append((A, rand_matrix(rng, 11, 3)))
        pairs.append((rand_matrix(rng, 2, 11), A))
    pairs += [(A, A), (A, A.transpose()), (RatMatrix.zeros(3, 11), A)]
    for a, b in pairs:
        prod = a @ b
        assert prod == naive_matmul(a, b)
        assert all(isinstance(prod[i, j], Fraction) for i in range(prod.rows) for j in range(prod.cols))


def test_linear_combination_against_scaled_sums(rng):
    A, _ = weyr_from_spectral(
        SpectralData(real=[(2, Partition([3, 1, 1]))], complex=[(1, 2, Partition([2, 1]))])
    )
    powers = [RatMatrix.identity(11)]
    for _ in range(3):
        powers.append(A @ powers[-1])
    for _ in range(10):
        mats = rng.sample(powers + [rand_matrix(rng, 11, 11)], 3)
        terms = [(rng.choice((1, -2, Fraction(3, 5))), m) for m in mats]
        expected = RatMatrix.zeros(11, 11)
        for c, m in terms:
            expected = expected + scaled(m, c)
        got = linear_combination(terms, 11, 11)
        assert got == expected
        assert all(isinstance(got[i, j], Fraction) for i in range(11) for j in range(11))
    assert linear_combination([], 2, 3) == RatMatrix.zeros(2, 3)


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        RatMatrix.zeros(2, 3) @ RatMatrix.zeros(2, 3)


def test_rank_zero_and_identity():
    assert RatMatrix.zeros(3, 5).rank() == 0
    assert RatMatrix.identity(4).rank() == 4


def test_rank_of_worked_example_state_matrix():
    F, _, _ = worked_example()
    assert F.rank() == 3  # rows three unit vectors, two zero rows


def test_rank_plus_nullity(rng):
    for _ in range(10):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols, lo=-2, hi=2)
        basis = m.nullspace()
        assert m.rank() + len(basis) == cols
        for v in basis:
            prod = m @ RatMatrix([[x] for x in v])
            assert prod.is_zero()
        if basis:
            assert RatMatrix(basis).rank() == len(basis)


def test_inverse_basics():
    assert RatMatrix.identity(4).inverse() == RatMatrix.identity(4)
    d = RatMatrix([[2, 0], [0, 3]])
    assert d.inverse() == RatMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])


def test_inverse_of_reduced_member_at_0_0_1():
    # the assembled reduced member of the worked example at (0, 0, 1)
    p = RatMatrix(
        [
            [0, 1, 0, 1, 0],
            [1, 0, 0, 0, 1],
            [0, 0, 0, 0, 1],
            [0, 0, 1, -1, 0],
            [0, 0, 0, -1, 0],
        ]
    )
    assert p @ p.inverse() == RatMatrix.identity(5)
    assert p.inverse() @ p == RatMatrix.identity(5)


def test_inverse_random_roundtrip(rng):
    from conftest import rand_invertible

    for n in (2, 3, 5):
        m = rand_invertible(rng, n)
        assert m @ m.inverse() == RatMatrix.identity(n)


def test_singular_inverse_reports_first_dependent_column():
    # third column = first + second
    m = RatMatrix([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    with pytest.raises(SingularMatrixError) as exc:
        m.inverse()
    assert exc.value.column == 2
    # a zero first column is dependent immediately
    z = RatMatrix([[0, 1], [0, 2]])
    with pytest.raises(SingularMatrixError) as exc:
        z.inverse()
    assert exc.value.column == 0


def test_det_matches_elimination(rng):
    assert bareiss_det(RatMatrix([[2, 1], [1, 1]])) == 1
    assert bareiss_det(RatMatrix([[1, 2], [2, 4]])) == 0
    for _ in range(5):
        m = rand_matrix(rng, 4, 4)
        n = rand_matrix(rng, 4, 4)
        assert bareiss_det(m @ n) == bareiss_det(m) * bareiss_det(n)


def test_block_helpers():
    a = RatMatrix([[1]])
    b = RatMatrix([[2, 3], [4, 5]])
    bd = RatMatrix.block_diag(a, b)
    assert bd == RatMatrix([[1, 0, 0], [0, 2, 3], [0, 4, 5]])
    assert RatMatrix.identity(3).take_cols(range(2)) == RatMatrix([[1, 0], [0, 1], [0, 0]])
    assert RatMatrix.hstack([a, RatMatrix([[9]])]) == RatMatrix([[1, 9]])
    assert RatMatrix.vstack([a, RatMatrix([[9]])]) == RatMatrix([[1], [9]])


def test_float_entries_rejected():
    with pytest.raises(TypeError):
        RatMatrix([[0.5]])
