import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gainchart import Partition, RatMatrix, SingularMatrixError, SpectralData, weyr_from_spectral

from gainchart import linalg
from gainchart.linalg import diamond, kron_sum

from conftest import rand_matrix, worked_example
from oracles import bareiss_det, decimal_digits, linear_combination, naive_matmul, scaled


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


# -- properties of the integer product kernels ---------------------------------

# denominators that share factors (6 and 10, 15 and 10), so a common
# denominator is an lcm, not a product
_DENS = (1, 2, 3, 6, 10, 15, 7)
_BIG = 10**600
_entries = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from(_DENS)),
    st.builds(Fraction, st.integers(_BIG, 2 * _BIG) | st.integers(-2 * _BIG, -_BIG), st.sampled_from(_DENS)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(_BIG, 2 * _BIG)),
)
_weights = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from(_DENS)),
    st.integers(_BIG, 2 * _BIG),
)
_WEYR = [
    weyr_from_spectral(SpectralData(real=[(2, Partition([3, 1, 1]))], complex=[(1, 2, Partition([2, 1]))]))[0],
    weyr_from_spectral(SpectralData(real=[(Fraction(-1, 6), Partition([2, 2])), (Fraction(3, 10), Partition([1]))]))[0],
]


def _powers(A, k):
    out = [RatMatrix.identity(A.rows)]
    for _ in range(k):
        out.append(naive_matmul(A, out[-1]))
    return out


_WEYR_POWERS = [_powers(A, 3) for A in _WEYR]  # sparse operands, as recover_member uses them
_properties = settings(derandomize=True, database=None, deadline=None, max_examples=25)


@st.composite
def _matrix(draw, rows, cols):
    """A rows x cols matrix, with some rows and columns zeroed."""
    data = [[draw(_entries) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows)):
        data[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        for row in data:
            row[j] = 0
    return RatMatrix(data)


def _lowest_terms(m):
    return all(
        isinstance(x, Fraction) and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1
        for i in range(m.rows)
        for x in m.rowlist(i)
    )


@_properties
@given(st.data())
def test_matmul_property_against_summation_definition(data):
    r, s, t = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = data.draw(_matrix(r, s)), data.draw(_matrix(s, t))
    prod = a @ b
    assert prod == naive_matmul(a, b) and prod.shape == (r, t)
    assert _lowest_terms(prod)


@_properties
@given(st.data())
def test_matmul_property_on_sparse_weyr_powers(data):
    powers = data.draw(st.sampled_from(_WEYR_POWERS))
    p, q = data.draw(st.sampled_from(powers)), data.draw(st.sampled_from(powers))
    b = data.draw(_matrix(p.rows, 3))
    for x, y in ((p, q), (p, b), (b.transpose(), p)):
        prod = x @ y
        assert prod == naive_matmul(x, y)
        assert _lowest_terms(prod)


@_properties
@given(st.data())
def test_matmul_property_integer_weights_times_rational_basis(data):
    # the recover_member draw: a 1 x k integer row times a rational basis
    k, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
    weights = RatMatrix([data.draw(st.lists(st.integers(-n, n), min_size=k, max_size=k))])
    basis = data.draw(_matrix(k, n))
    prod = weights @ basis
    assert prod == naive_matmul(weights, basis)
    assert _lowest_terms(prod)


@_properties
@given(st.data())
def test_linear_combination_property_against_scaled_sums(data):
    if data.draw(st.booleans()):
        rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        mats = _matrix(rows, cols)
    else:  # the recover_member terms: powers of one Weyr form
        powers = data.draw(st.sampled_from(_WEYR_POWERS))
        rows = cols = powers[0].rows
        mats = st.sampled_from(powers)
    terms = data.draw(st.lists(st.tuples(_weights, mats), max_size=4))
    expected = RatMatrix.zeros(rows, cols)
    for c, m in terms:
        expected = expected + scaled(m, c)
    got = linear_combination(terms, rows, cols)
    assert got == expected
    assert _lowest_terms(got)


def _kron_reference(W, mats):
    """Block (j, a) of sum_i W_i (x) mats[i]: the mats combined with the weights W[j, i c + a]."""
    c, (p, q) = W.cols // len(mats), mats[0].shape
    return RatMatrix.vstack(
        RatMatrix.hstack(
            linear_combination([(W[j, i * c + a], m) for i, m in enumerate(mats)], p, q)
            for a in range(c)
        )
        for j in range(W.rows)
    )


@_properties
@given(st.data())
def test_kron_sum_property_against_block_combinations(data):
    s, c, rows = (data.draw(st.integers(1, 4)) for _ in range(3))
    if data.draw(st.booleans()):  # non-square mats
        p, q = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        mats = [data.draw(_matrix(p, q)) for _ in range(s)]
    else:  # the recover_member operands: transposed powers of one Weyr form
        mats = [m.transpose() for m in data.draw(st.sampled_from(_WEYR_POWERS))[:s]]
    zero = data.draw(st.sets(st.integers(0, s - 1), max_size=s))  # all-zero slabs
    # row j over a denominator with the factor j + 2, so the rows' denominators differ
    W = RatMatrix([
        [0 if col // c in zero else x / (j + 2) for col, x in enumerate(row)]
        for j, row in enumerate(data.draw(_matrix(rows, s * c)).tolists())
    ])
    got = kron_sum(W, mats)
    assert got == _kron_reference(W, mats)
    assert got.shape == (rows * mats[0].rows, c * mats[0].cols)
    assert _lowest_terms(got)


def test_kron_sum_names_the_shapes_it_cannot_combine():
    a, b = RatMatrix.identity(2), RatMatrix.zeros(2, 3)
    with pytest.raises(ValueError, match=r"weights \(2, 5\) .* mats \[\(2, 2\), \(2, 2\)\]"):
        kron_sum(RatMatrix.zeros(2, 5), [a, a])  # 5 columns in 2 slabs
    with pytest.raises(ValueError, match=r"weights \(2, 4\) .* mats \[\(2, 2\), \(2, 3\)\]"):
        kron_sum(RatMatrix.zeros(2, 4), [a, b])
    with pytest.raises(ValueError, match=r"weights \(2, 4\) .* mats \[\]"):
        kron_sum(RatMatrix.zeros(2, 4), [])


def test_product_kernels_do_no_fraction_arithmetic(rng, monkeypatch):
    a, b = rand_matrix(rng, 12, 12), rand_matrix(rng, 12, 12)
    A = _WEYR[0]
    W = RatMatrix([[Fraction(1, 6), 0, Fraction(-3, 10), 1, 2, 0], [0, 5, 0, 0, Fraction(2, 7), 3]])
    mats = [A, A @ A, rand_matrix(rng, A.rows, A.cols)]
    expected = (naive_matmul(a, b), _kron_reference(W, mats), b @ a.inverse())
    count = 0

    def counting(op):
        def wrapper(*args):
            nonlocal count
            count += 1
            return op(*args)

        return wrapper

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, counting(getattr(Fraction, name)))
    got = (a @ b, kron_sum(W, mats), a.solve(b))
    monkeypatch.undo()
    assert count == 0
    assert got == expected


def test_kernels_skip_the_entry_checks(rng, monkeypatch):
    # results built from Fractions are wrapped unchecked; the public
    # constructor still checks every entry and rejects floats
    a, b = rand_matrix(rng, 6, 6), rand_matrix(rng, 6, 6)
    calls = []
    frac = linalg._frac
    monkeypatch.setattr(linalg, "_frac", lambda x: calls.append(x) or frac(x))
    p = a @ b
    kron_sum(a, [a, b, p])
    a.inverse(), a.transpose(), -(a + b - p), a.take_rows([1, 2]), a.take_cols([0, 5])
    a.solve(b.take_rows([0, 3]))
    RatMatrix.hstack([a, b]), RatMatrix.vstack([a, b]), RatMatrix.block_diag(a, b)
    assert calls == []
    assert RatMatrix([[1, Fraction(1, 2)]]).rowlist(0) == [1, Fraction(1, 2)]
    assert len(calls) == 2
    with pytest.raises(TypeError, match="float"):
        RatMatrix([[0.5]])


def test_kernel_results_are_stored_in_lowest_terms(rng):
    # rows are stored as integers over a denominator in lowest terms, so a
    # kernel result must equal (and hash like) the same entries read back in
    a, b = rand_matrix(rng, 5, 5), rand_matrix(rng, 5, 5)
    results = [
        a @ b, a + b, a - b, -a, a.transpose(), a.inverse(), a.solve(b.take_rows([2])),
        a.take_cols([0, 2]),
        a.take_rows([4, 1]), RatMatrix.hstack([a, b]), RatMatrix.vstack([a, b]),
        RatMatrix.block_diag(a, b), a.row(3), diamond(a.take_cols(range(4))),
        kron_sum(a.take_cols([0, 2]), [a, b]),
        RatMatrix([[Fraction(2, 3), Fraction(1, 2)]]).take_cols([0]),
    ]
    for r in results:
        again = RatMatrix(r.tolists())
        assert r == again and hash(r) == hash(again)


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        RatMatrix.zeros(2, 3) @ RatMatrix.zeros(2, 3)


def test_rank_zero_and_identity():
    assert RatMatrix.zeros(3, 5).rank() == 0
    assert RatMatrix.identity(4).rank() == 4


def test_rank_of_worked_example_state_matrix():
    F, _, _ = worked_example()
    assert F.rank() == 3  # rows three unit vectors, two zero rows


def test_a_matrix_with_no_rows_keeps_its_width():
    assert RatMatrix.zeros(0, 3).shape == (0, 3)
    assert RatMatrix.zeros(0, 3).transpose().shape == (3, 0)


def test_a_negative_size_is_rejected():
    for rows, cols in ((3, -1), (-1, 3)):
        with pytest.raises(ValueError, match="negative matrix size"):
            RatMatrix.zeros(rows, cols)
    with pytest.raises(ValueError, match="negative matrix size"):
        RatMatrix.identity(-2)


def test_repr_writes_each_entry_in_lowest_terms_at_any_length():
    # 2 shares its row's denominator 3 as 6/3; 7**6000 has 5,071 digits, over
    # the default limit of 4,300
    assert repr(RatMatrix([[Fraction(4, 6), 2], [0, Fraction(-5, 10)]])) == "RatMatrix[2/3 2; 0 -1/2]"
    assert repr(RatMatrix.zeros(0, 3)) == "RatMatrix[]"
    limit = sys.get_int_max_str_digits()
    d = 7**6000
    m = RatMatrix([[Fraction(1, d), -d], [2, Fraction(d, 3)]])
    expected = f"RatMatrix[1/{decimal_digits(d)} -{decimal_digits(d)}; 2 {decimal_digits(d)}/3]"
    assert repr(m) == expected
    try:  # the chunks stay under the least limit the interpreter accepts
        sys.set_int_max_str_digits(640)
        assert repr(m) == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_the_digit_reader_inverts_the_chunked_writer():
    # lengths at and beside multiples of the 600-digit chunk, both signs, read
    # back under the least digit limit the interpreter accepts
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        for digits in (1, 599, 600, 601, 1199, 1200, 1201, 3000, 6001):
            for n in (10 ** (digits - 1), 10**digits - 1, 7 * (10**digits - 1) // 9 - 10**(digits // 2)):
                for v in (n, -n):
                    text = linalg._decimal(v)
                    assert len(text.lstrip("-")) == digits
                    assert linalg._integer(text) == v
                assert linalg._integer("+" + linalg._decimal(n)) == n
        assert linalg._integer("0") == linalg._integer("-0") == 0
        assert linalg._integer("-" + "0" * 1199 + "7") == -7
    finally:
        sys.set_int_max_str_digits(limit)
    assert sys.get_int_max_str_digits() == limit


def test_a_product_with_no_rows_has_the_width_of_its_right_factor():
    assert RatMatrix.zeros(0, 3) @ RatMatrix.zeros(3, 2) == RatMatrix.zeros(0, 2)


def test_taking_no_rows_keeps_the_width():
    assert RatMatrix.identity(3).take_rows([]).shape == (0, 3)
    assert RatMatrix.identity(3).nullspace() == RatMatrix.zeros(0, 3)


def test_matrices_with_no_rows_and_different_widths_differ():
    assert RatMatrix.zeros(0, 3) != RatMatrix.zeros(0, 5)
    assert RatMatrix.zeros(0, 3) == RatMatrix.identity(3).take_rows([])


def test_rank_plus_nullity(rng):
    for _ in range(10):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols, lo=-2, hi=2)
        basis = m.nullspace()
        assert m.rank() + basis.rows == cols
        for i in range(basis.rows):
            prod = m @ basis.row(i).transpose()
            assert prod.is_zero()
        assert basis.rank() == basis.rows


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


def test_solve_is_the_product_with_the_inverse(rng):
    # X @ A = B, bit for bit B @ A^-1, for right sides of no, one, and more
    # rows than A, over mixed denominators on both sides
    from conftest import rand_invertible

    for t in range(24):
        n = rng.randint(1, 7)
        a = rand_invertible(rng, n) if t % 2 else rand_matrix(rng, n, n, dens=(1, 2, 3, 5, 7))
        if a.rank() < n:
            continue
        for r in (0, 1, rng.randint(1, n), n + rng.randint(1, 3)):
            b = rand_matrix(rng, r, n, dens=(1, 2, 3, 4, 9)) if r else RatMatrix.zeros(0, n)
            x = a.solve(b)
            assert x.shape == (r, n)
            assert x @ a == b
            assert x == b @ a.inverse()


def test_singular_solve_names_the_first_dependent_column():
    # [[0, 1], [0, 1]]: column 0 is dependent, row 1 is; solve eliminates the
    # transpose, whose first free column is the first dependent row
    cases = [
        (RatMatrix([[0, 1], [0, 1]]), 0),
        (RatMatrix([[1, 0, 1], [0, 1, 1], [1, 1, 2]]), 2),
        (RatMatrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]]), 1),
        (RatMatrix.zeros(3, 3), 0),
    ]
    for m, column in cases:
        for call in (m.inverse, lambda: m.solve(RatMatrix.identity(m.rows)),
                     lambda: m.solve(RatMatrix.zeros(0, m.cols))):
            with pytest.raises(SingularMatrixError) as exc:
                call()
            assert exc.value.column == column


def test_solve_rejects_wrong_shapes():
    for a, b in ((RatMatrix.zeros(2, 3), RatMatrix.zeros(1, 3)),
                 (RatMatrix.identity(3), RatMatrix.zeros(1, 2)),
                 (RatMatrix.identity(3), RatMatrix.zeros(3, 4))):
        with pytest.raises(ValueError, match=r"solve needs self square and B as wide: \(\d, \d\), \(\d, \d\)"):
            a.solve(b)


def test_elimination_never_writes_into_its_operand(rng):
    # the kernels hand the stored rows to the elimination itself; an in-place
    # row update would change an immutable matrix under its holder
    from conftest import rand_invertible

    operands = [rand_invertible(rng, 5), rand_matrix(rng, 4, 6), RatMatrix([[0, 1], [0, 1]]),
                rand_matrix(rng, 3, 2) @ rand_matrix(rng, 2, 5)]
    for m in operands:
        snapshot = RatMatrix(m.tolists())
        m.rank(), m.pivots(), m.nullspace()
        if m.is_square():
            b = rand_matrix(rng, 3, m.cols)
            for call in (m.inverse, lambda: m.solve(b)):
                try:
                    call()
                except SingularMatrixError:
                    pass
            assert b == RatMatrix(b.tolists())
        assert m == snapshot and hash(m) == hash(snapshot)


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
