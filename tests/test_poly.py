import sys
from fractions import Fraction

import pytest

from gainchart import RatMatrix, UniPoly, invariant_polynomials
from gainchart.poly import InvariantChain, smith_diagonal

from conftest import rand_invertible, rand_matrix
from oracles import (
    chain_product,
    charpoly,
    decimal_digits,
    interpolate,
    minors_gcd_chain,
    poly_add,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_neg,
    poly_sub,
)
from test_smith_kernel import trimmed


def P(*coeffs):
    return UniPoly(coeffs)


class TestUniPoly:
    def test_arithmetic(self):
        a = P(1, 2)  # 1 + 2s
        b = P(0, 0, 1)  # s^2
        assert a * b == P(0, 0, 1, 2)
        assert P(0, Fraction(2, 3)) * P(0, Fraction(3, 2)) == P(0, 0, 1)  # reduced once
        assert poly_add(a, b) == P(1, 2, 1)
        assert poly_sub(a, a).is_zero()
        assert poly_neg(a) == P(-1, -2)
        assert str(P(0, -1, 1)) == "s^2 - s"

    def test_str_writes_each_coefficient_in_lowest_terms_at_any_length(self):
        assert str(P()) == "0"
        assert str(P(Fraction(-1, 2), 1, Fraction(-3, 4), -1)) == "-s^3 - 3/4*s^2 + s - 1/2"
        assert str(P(0, 0, Fraction(2, 6))) == "1/3*s^2"
        assert repr(P(-7)) == "-7"
        limit = sys.get_int_max_str_digits()
        d = 7**6000  # 5,071 digits, over the default limit of 4,300
        text = str(P(Fraction(-3, d), Fraction(d + 1, 3), 1))
        assert text == f"s^2 + {decimal_digits(d + 1)}/3*s - 3/{decimal_digits(d)}"
        assert sys.get_int_max_str_digits() == limit

    def test_divmod(self):
        num = P(-2, 0, 0, 1)  # s^3 - 2
        den = P(-1, 1)  # s - 1
        q, r = poly_divmod(num, den)
        assert poly_add(q * den, r) == num
        assert r.degree < den.degree

    def test_gcd_is_monic(self):
        a = P(-1, 0, 1) * P(2, 1)  # (s^2-1)(s+2)
        b = P(-1, 1) * P(3, 3)  # (s-1)*3(s+1)
        g = poly_gcd(a, b)
        assert g == P(-1, 0, 1)  # (s-1)(s+1)

    def test_eval(self):
        assert poly_eval(P(1, 0, 1), Fraction(2)) == 5

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            P(0.5)


def test_interpolate_quadratic():
    pts = [0, 1, 2]
    vals = [1, 2, 5]  # 1 + x^2
    assert interpolate(pts, vals) == P(1, 0, 1)


def test_invariant_polynomials_zero_matrix():
    chain = invariant_polynomials(RatMatrix.zeros(3, 3))
    assert list(chain) == [P(0, 1)] * 3


def test_invariant_polynomials_companion():
    comp = RatMatrix([[0, 0, 2], [1, 0, 0], [0, 1, 0]])  # companion of s^3 - 2
    chain = invariant_polynomials(comp)
    assert list(chain) == [P(1), P(1), P(-2, 0, 0, 1)]


def test_invariant_polynomials_of_worked_closed_loop():
    # F + G K for the worked example at coordinates (0, 0, 1)
    from conftest import worked_example

    F, G, _ = worked_example()
    K = RatMatrix([[0, 0, -1, 0, 0], [0, 0, -1, 0, 0]])
    chain = invariant_polynomials(F + G @ K)
    expected = [P(1), P(1), P(1), P(0, 1), P(0, 0, 1, 0, 1)]  # 1,1,1,s,s^2(s^2+1)
    assert list(chain) == expected
    assert list(minors_gcd_chain(F + G @ K)) == expected


def test_divisibility_chain_and_product(rng):
    for _ in range(5):
        m = rand_matrix(rng, 4, 4, lo=-2, hi=2, dens=(1,))
        chain = invariant_polynomials(m)
        for a, b in zip(chain, list(chain)[1:]):
            assert a.divides(b)
        assert chain_product(chain) == charpoly(m)


def test_similarity_invariance(rng):
    for n in (3, 4):
        m = rand_matrix(rng, n, n, lo=-2, hi=2, dens=(1,))
        t = rand_invertible(rng, n)
        assert invariant_polynomials(t.inverse() @ m @ t) == invariant_polynomials(m)


def test_agrees_with_minors_oracle_on_structured_matrices(rng):
    # matrices with nontrivial chains: repeated blocks plus a shuffle
    for _ in range(5):
        lam = rng.randint(-2, 2)
        blk = RatMatrix([[lam, 1], [0, lam]])
        m = RatMatrix.block_diag(blk, blk, RatMatrix([[lam]]))
        t = rand_invertible(rng, 5)
        m = t.inverse() @ m @ t
        assert invariant_polynomials(m) == minors_gcd_chain(m)


def test_three_way_agreement_on_conjugated_jordan_forms(rng):
    # Smith elimination, minors-gcd oracle and the factored chain must all
    # coincide on a conjugated Jordan form with known spectral data
    from conftest import rand_spectral, rand_unimodular
    from gainchart import invariant_chain
    from oracles import jordan_from_spectral

    done = 0
    while done < 5:
        sd = rand_spectral(rng, rng.randint(2, 6), max_real=2)
        j = jordan_from_spectral(sd)
        if any(x.denominator != 1 for row in j.tolists() for x in row):
            continue
        t = rand_unimodular(rng, j.rows)
        m = t.inverse() @ j @ t
        chain = invariant_chain(sd)
        assert invariant_polynomials(m) == chain
        assert minors_gcd_chain(m) == chain
        done += 1


def test_smith_diagonal_divisibility(rng):
    for _ in range(5):
        m = rand_matrix(rng, 3, 3, lo=-2, hi=2, dens=(1,))
        diag = smith_diagonal(
            [[trimmed((m[i, j].numerator, rng.randint(0, 1))) for j in range(3)] for i in range(3)]
        )
        nonzero = [d for d in diag if not d.is_zero()]
        for a, b in zip(nonzero, nonzero[1:]):
            assert a.divides(b)


def test_invariant_chain_validation():
    with pytest.raises(ValueError):
        InvariantChain((P(0, 2),))  # not monic
    with pytest.raises(ValueError):
        InvariantChain((P(-1, 1), P(0, 1)))  # s-1 does not divide s
