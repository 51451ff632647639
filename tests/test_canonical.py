from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gainchart import (
    Partition,
    RatMatrix,
    SpectralData,
    UniPoly,
    centralizer_dimension,
    centralizer_dimension_weyr,
    invariant_chain,
    invariant_polynomials,
    weyr_from_spectral,
)
from gainchart.canonical import WeyrStructure

from conftest import rand_spectral
from oracles import (
    centralizer_basis,
    centralizer_element,
    coeffs,
    jordan_from_spectral,
    jordan_weyr_permutation,
    partitions_of,
    scaled,
)


def test_weyr_block_examples():
    a, _ = weyr_from_spectral(SpectralData(real=[(0, Partition([2, 1]))]))
    assert a == RatMatrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    a, _ = weyr_from_spectral(SpectralData(complex=[(0, 1, Partition([1]))]))
    assert a == RatMatrix([[0, 1], [-1, 0]])
    a, _ = weyr_from_spectral(SpectralData(real=[(5, Partition([1, 1]))]))
    assert a == scaled(RatMatrix.identity(2), 5)


def test_jordan_examples():
    j = jordan_from_spectral(SpectralData(real=[(0, Partition([2, 1]))]))
    assert j == RatMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    j = jordan_from_spectral(SpectralData(real=[(1, Partition([1]))]))
    assert j == RatMatrix([[1]])
    a, b = Fraction(2), Fraction(3)
    j = jordan_from_spectral(SpectralData(complex=[(a, b, Partition([2]))]))
    assert j == RatMatrix(
        [[2, 3, 1, 0], [-3, 2, 0, 1], [0, 0, 2, 3], [0, 0, -3, 2]]
    )


def test_permutation_trivial_and_small():
    assert jordan_weyr_permutation(Partition([1])) == RatMatrix([[1]])
    for segre in (Partition([2, 1]), Partition([3, 1, 1])):
        sd = SpectralData(real=[(7, segre)])
        q = jordan_weyr_permutation(segre)
        w, _ = weyr_from_spectral(sd)
        assert q.transpose() @ jordan_from_spectral(sd) @ q == w


def test_permutation_complex_small():
    segre = Partition([2])
    sd = SpectralData(complex=[(0, 1, segre)])
    q = jordan_weyr_permutation(segre, is_complex=True)
    w, _ = weyr_from_spectral(sd)
    assert q.transpose() @ jordan_from_spectral(sd) @ q == w


def test_permutation_exhaustive_small_segre():
    for n in range(1, 7):
        for segre in partitions_of(n):
            for is_complex in (False, True):
                if is_complex:
                    sd = SpectralData(complex=[(1, 2, segre)])
                else:
                    sd = SpectralData(real=[(-1, segre)])
                q = jordan_weyr_permutation(segre, is_complex=is_complex)
                w, _ = weyr_from_spectral(sd)
                j = jordan_from_spectral(sd)
                assert q.transpose() @ j @ q == w


def test_permutation_random_spectra(rng):
    for _ in range(25):
        sd = rand_spectral(rng, rng.randint(2, 10), max_real=3)
        blocks = [jordan_weyr_permutation(s, False) for _, s in sd.real]
        blocks += [jordan_weyr_permutation(s, True) for _, _, s in sd.complex]
        q = RatMatrix.block_diag(*blocks)
        w, _ = weyr_from_spectral(sd)
        assert q.transpose() @ jordan_from_spectral(sd) @ q == w


def test_centralizer_dimension_counts():
    segre = Partition([4, 2, 2, 2, 1, 1])
    a, ws = weyr_from_spectral(SpectralData(real=[(0, segre)]))
    assert centralizer_basis(a, ws)[0] == 54
    a, ws = weyr_from_spectral(SpectralData(complex=[(0, 1, segre)]))
    assert centralizer_basis(a, ws)[0] == 108
    # a scalar matrix commutes with everything
    a, ws = weyr_from_spectral(SpectralData(real=[(3, Partition([1] * 4))]))
    assert centralizer_basis(a, ws)[0] == 16


def test_centralizer_basis_commutes_and_is_independent(rng):
    for _ in range(6):
        sd = rand_spectral(rng, rng.randint(2, 6))
        a, ws = weyr_from_spectral(sd)
        dimension, basis = centralizer_basis(a, ws)
        for b in basis:
            assert a @ b == b @ a
        flat = [[b[i, j] for i in range(b.rows) for j in range(b.cols)] for b in basis]
        assert RatMatrix(flat).rank() == dimension


def test_centralizer_element_identity_and_copies():
    segre = Partition([4, 2, 2, 2, 1, 1])
    sd = SpectralData(real=[(0, segre)])
    a, ws = weyr_from_spectral(sd)
    n_params = centralizer_dimension_weyr(ws)
    # unit parameters on the diagonal slots give the identity
    from oracles import centralizer_slots

    params = []
    for (j, i, k, h, w) in centralizer_slots(ws[0]):
        block = [[1 if (j == 1 and i == k and r == c) else 0 for c in range(w)] for r in range(h)]
        params.extend(v for row in block for v in row)
    assert centralizer_element(ws, params) == RatMatrix.identity(12)
    # the single leading scalar propagates to every diagonal copy
    params = [0] * n_params
    params[0] = 2
    y = centralizer_element(ws, params)
    expected_positions = {(0, 0), (6, 6), (10, 10), (11, 11)}
    for i in range(12):
        for j in range(12):
            assert y[i, j] == (2 if (i, j) in expected_positions else 0)


def test_centralizer_element_commutes(rng):
    for _ in range(8):
        sd = rand_spectral(rng, rng.randint(2, 7))
        a, ws = weyr_from_spectral(sd)
        n_params = centralizer_dimension_weyr(ws)
        params = [Fraction(rng.randint(-3, 3)) for _ in range(n_params)]
        y = centralizer_element(ws, params)
        assert a @ y == y @ a


def test_centralizer_element_wrong_count():
    _, ws = weyr_from_spectral(SpectralData(real=[(0, Partition([2, 1]))]))
    with pytest.raises(ValueError, match="expected 5"):
        centralizer_element(ws, [1, 2, 3])


def test_centralizer_dimension_formulas_agree(rng):
    for _ in range(10):
        sd = rand_spectral(rng, rng.randint(1, 8))
        _, ws = weyr_from_spectral(sd)
        assert centralizer_dimension(invariant_chain(sd)) == centralizer_dimension_weyr(ws)


def test_invariant_chain_of_worked_example():
    from conftest import worked_example

    _, _, sd = worked_example()
    chain = invariant_chain(sd)
    assert [str(p) for p in chain] == ["1", "1", "1", "s", "s^4 + s^2"]


def test_weyr_form_realizes_the_chain(rng):
    for _ in range(8):
        sd = rand_spectral(rng, rng.randint(1, 6))
        a, _ = weyr_from_spectral(sd)
        assert invariant_polynomials(a) == invariant_chain(sd)


def test_jordan_form_realizes_the_chain(rng):
    for _ in range(5):
        sd = rand_spectral(rng, rng.randint(1, 6))
        assert invariant_polynomials(jordan_from_spectral(sd)) == invariant_chain(sd)


def test_spectral_data_validation():
    with pytest.raises(ValueError):
        SpectralData(real=[(1, Partition([1])), (1, Partition([2]))])
    with pytest.raises(ValueError):
        SpectralData(complex=[(1, 0, Partition([1]))])
    with pytest.raises(TypeError):
        SpectralData(real=[(0.5, Partition([1]))])
    with pytest.raises(TypeError):
        SpectralData(real=[(0, [2.5])])
    with pytest.raises(TypeError):
        SpectralData(complex=[(0, 1, [1.0])])
    # negative imaginary part is normalized
    sd = SpectralData(complex=[(1, -2, Partition([1]))])
    assert sd.complex[0][1] == 2


def test_centralizer_basis_rejects_non_weyr():
    sd = SpectralData(real=[(0, Partition([2, 1]))])
    _, ws = weyr_from_spectral(sd)
    with pytest.raises(ValueError, match="Weyr"):
        centralizer_basis(RatMatrix.identity(3), ws)


def test_weyr_cache_leaves_equality_and_hash_alone():
    a = WeyrStructure(Partition([3, 1]), False, Fraction(2))
    b = WeyrStructure(Partition([3, 1]), False, Fraction(2))
    before = hash(b)
    assert a.weyr == Partition([2, 1, 1])
    assert a == b and b == a
    assert hash(a) == hash(b) == before
    assert b.weyr is b.weyr
    assert {a: 1}[b] == 1


_rat = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
_segre = st.lists(st.integers(1, 2), min_size=1, max_size=2)


@st.composite
def _spectral(draw):
    """Factored classes of size at most 10, eigenvalues with denominators up to 10^6."""
    real = draw(st.lists(st.tuples(_rat, _segre), max_size=2, unique_by=lambda t: t[0]))
    cpx = draw(st.lists(st.tuples(_rat, _rat.filter(lambda b: b > 0), _segre),
                        min_size=0 if real else 1, max_size=2, unique_by=lambda t: t[:2]))
    return SpectralData(
        real=[(lam, sorted(s, reverse=True)) for lam, s in real],
        complex=[(a, b, sorted(s, reverse=True)) for a, b, s in cpx],
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_spectral())
@example(SpectralData(complex=[(Fraction(1, 2), Fraction(1, 2), [2])]))  # a^2 + b^2 shares 2
@example(SpectralData(real=[(Fraction(-7, 999983), [1])],
                      complex=[(Fraction(3, 999983), Fraction(5, 10**6), [2, 1])]))
def test_factored_chain_matches_the_smith_form_of_its_weyr_matrix(sd):
    chain = invariant_chain(sd)
    assert chain == invariant_polynomials(weyr_from_spectral(sd)[0])
    for p in chain:
        q = UniPoly(coeffs(p))
        assert q == p and hash(q) == hash(p) and str(q) == str(p)
