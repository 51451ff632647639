"""Differential check of the Hessenberg route to the invariant polynomials.

``invariant_polynomials`` runs the Smith form on the k x k remainder of a
Hessenberg form; ``oracles.smith_chain`` runs the same Smith elimination on
the whole of sI - A. The monic Smith form is unique, so the two must agree
exactly on every input. A counting wrapper around ``poly.smith_diagonal``
checks that the library hands it one k x k matrix per call, k the number of
blocks of the Hessenberg form.
"""

import random
from fractions import Fraction

import pytest

from gainchart import Partition, RatMatrix, SpectralData, weyr_from_spectral
from gainchart import chart as chart_mod
from gainchart import poly
from gainchart.errors import ChartDomainError

from conftest import feasible_instance, rand_matrix, rand_spectral, rand_unimodular
from oracles import jordan_from_spectral, scaled, smith_chain


def hessenberg_blocks(a: RatMatrix) -> int:
    h = poly.hessenberg(a)
    return sum(1 for r in range(a.rows) if r == 0 or not h[r][r - 1])


@pytest.fixture
def agree(monkeypatch):
    """check(a, k=None): the chain of a equals the oracle's, from one k x k Smith form."""
    shapes = []
    smith = poly.smith_diagonal

    def counting(mat):
        shapes.append((len(mat), {len(row) for row in mat}))
        return smith(mat)

    monkeypatch.setattr(poly, "smith_diagonal", counting)

    def check(a, k=None):
        shapes.clear()
        chain = poly.invariant_polynomials(a)
        blocks = hessenberg_blocks(a)
        assert shapes == [(blocks, {blocks})]
        if k is not None:
            assert blocks == k
        assert chain == smith_chain(a)

    return check


def seeded(name):
    return random.Random(f"smith-oracle-{name}")


def test_dense_random_matrices(agree):
    rng = seeded("dense")
    for t in range(110):
        n = rng.randint(1, 7) if t < 100 else rng.randint(8, 10)
        agree(rand_matrix(rng, n, n, lo=-3, hi=3, dens=(1, 1, 2)))


def test_conjugated_jordan_forms_with_repeated_blocks(agree):
    rng = seeded("jordan")
    for _ in range(40):
        size = rng.randint(1, 3)
        parts = sorted([size] * rng.randint(2, 3) + [rng.randint(1, size)], reverse=True)
        real = [(Fraction(rng.randint(-2, 2)), Partition(parts))]
        cpx = [(Fraction(1), Fraction(1), Partition([1, 1]))] if sum(parts) <= 8 else []
        j = jordan_from_spectral(SpectralData(real=real, complex=cpx))
        t = rand_unimodular(rng, j.rows)
        agree(t.inverse() @ j @ t)


def test_real_weyr_pair_blocks(agree):
    rng = seeded("weyr")
    for _ in range(30):
        sd = rand_spectral(rng, rng.randint(2, 10))
        if not sd.complex:
            a, b = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(1, 2))
            sd = SpectralData(real=[], complex=[(a, b, Partition([2, 1]))])
        w, _ = weyr_from_spectral(sd)
        agree(w)


def test_zero_matrix_and_scalar_matrices(agree):
    rng = seeded("scalar")
    for n in range(1, 13):
        agree(RatMatrix.zeros(n, n), k=n)
        lam = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        agree(scaled(RatMatrix.identity(n), lam), k=n)


def test_diagonal_matrices_with_repeated_entries(agree):
    rng = seeded("diagonal")
    for _ in range(30):
        n = rng.randint(2, 12)
        values = [Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]
        d = [rng.choice(values) for _ in range(n)]
        agree(RatMatrix([[d[i] if i == j else 0 for j in range(n)] for i in range(n)]), k=n)


def test_hessenberg_inputs_with_subdiagonal_zeros(agree):
    rng = seeded("hessenberg")
    for _ in range(40):
        n = rng.randint(2, 12)
        breaks = set(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
        h = [
            [
                Fraction(rng.randint(-2, 2)) if j >= i
                else Fraction(0 if i in breaks else rng.choice((-1, 1, 2)))
                if j == i - 1
                else Fraction(0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        agree(RatMatrix(h), k=1 + len(breaks))


def test_one_by_one_matrices(agree):
    rng = seeded("scalar-1")
    for _ in range(20):
        agree(RatMatrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 9))]]), k=1)


def test_closed_loops_of_synthesized_gains(agree):
    # sweep-mid shapes: F + G K of a synthesized gain, and the canonical
    # closed loop that recover_member tests, at n = 8 to 12
    rng = seeded("closed-loop")
    done = 0
    while done < 8:
        n = (8, 10, 12)[done % 3]
        F, G, sd = feasible_instance(rng, n, extra_inputs=done % 2)
        ch = chart_mod.build_chart(F, G, sd)
        x = [Fraction(rng.randint(-2, 2)) for _ in range(ch.dim)]
        try:
            K = chart_mod.synthesize(ch, x).K
        except ChartDomainError:
            continue
        agree(F + G @ K)
        K1 = ch.bd.psi(K).take_rows(range(ch.rank_g))
        agree(ch.bd.Fp + ch.bd.Gp.take_cols(range(ch.rank_g)) @ K1)
        done += 1
