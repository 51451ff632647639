"""Differential check of the chain-form route to the invariant polynomials.

``invariant_polynomials`` runs the Smith form on the k x k remainder of a
chain form; ``oracles.smith_chain`` runs a gcd Smith elimination over Q[s]
on the whole of sI - A. The monic Smith form is unique, so the two must agree
exactly on every input. A counting wrapper around ``poly.smith_diagonal``
checks that the library hands it one k x k matrix per call, k the number of
chains that ``poly.chain_form`` returns.
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
        blocks = len(poly.chain_form(a)[1])
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
        agree(RatMatrix(h))


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


def chain_form_checked(a):
    """poly.chain_form(a), after checking that it is one: chains partition the
    indices, and every index that does not end its chain is the unit row of
    its successor (integers over denominator 1)."""
    h, chains = poly.chain_form(a)
    assert sorted(i for ch in chains for i in ch) == list(range(a.rows))
    for ch in chains:
        for c, succ in zip(ch, ch[1:]):
            assert h[c] == ([int(j == succ) for j in range(a.rows)], 1)
    return h, chains


def claimable_links(a):
    """The links r -> c of the unit rows e_c (c != r) of a, rows ascending,
    skipping a c already linked to and any link closing a cycle."""
    links = {}
    for r in range(a.rows):
        row = a.rowlist(r)
        if sorted(row) != [0] * (a.rows - 1) + [1] or row.index(1) == r:
            continue
        c = end = row.index(1)
        while end in links:
            end = links[end]
        if end != r and c not in links.values():
            links[r] = c
    return links


def test_planted_unit_rows(agree):
    # unit rows e_c chained into dense rows, some meeting in one c; e_r in row
    # r and 2 e_c, which the first step must leave to the second
    rng = seeded("planted")
    for _ in range(80):
        n = rng.randint(2, 10)
        a = rand_matrix(rng, n, n, lo=-2, hi=2, dens=(1, 1, 2)).tolists()
        planted = rng.sample(range(n), rng.randint(1, n - 1))
        for r in planted:
            c = rng.choice((r, rng.randrange(n), rng.randrange(n)))
            a[r] = [Fraction(rng.choice((1, 1, 2)) if j == c else 0) for j in range(n)]
        a = RatMatrix(a)
        h, chains = chain_form_checked(a)
        succ = {c: d for ch in chains for c, d in zip(ch, ch[1:])}
        for r, c in claimable_links(a).items():  # kept as they are, links included
            assert h[r] == a.int_rows()[r] and succ[r] == c
        agree(a)


def test_permutation_matrices_give_one_chain_per_cycle(agree):
    # the link that would close each cycle of unit rows is dropped, fixed
    # points are e_r in row r, and no arithmetic runs
    rng = seeded("permutation")
    for _ in range(30):
        n = rng.randint(1, 10)
        perm = rng.sample(range(n), n)
        a = RatMatrix([[int(j == perm[i]) for j in range(n)] for i in range(n)])
        cycles, seen = 0, set()
        for i in range(n):
            if i not in seen:
                cycles += 1
                while i not in seen:
                    seen.add(i)
                    i = perm[i]
        h, chains = chain_form_checked(a)
        assert h == a.int_rows() and len(chains) == cycles
        agree(a, k=cycles)


def synthesized_closed_loops(name, want, count):
    """(chart, Fp + Gp Kp, Fp + Gp_1 K1) for charts whose indices pass ``want``."""
    rng = seeded(name)
    while count:
        F, G, sd = feasible_instance(rng, rng.choice((5, 6, 8, 10, 12)), rng.randint(0, 1))
        ch = chart_mod.build_chart(F, G, sd)
        if not want(ch.bd.k.parts):
            continue
        x = [Fraction(rng.randint(-2, 2)) for _ in range(ch.dim)]
        try:
            Kp = ch.bd.psi(chart_mod.synthesize(ch, x).K)
        except ChartDomainError:
            continue
        Fp, Gp, rr = ch.bd.Fp, ch.bd.Gp, ch.rank_g
        yield ch, Fp + Gp @ Kp, Fp + Gp.take_cols(range(rr)) @ Kp.take_rows(range(rr))
        count -= 1


def test_closed_loops_with_a_controllability_index_one_absorb_the_singleton(agree):
    for ch, *loops in synthesized_closed_loops("index-one", lambda k: 1 in k and len(k) > 1, 8):
        for M in loops:
            h, chains = chain_form_checked(M)
            assert len(chains) < ch.rank_g and h != M.int_rows()
            agree(M)


def test_chart_closed_loops_are_read_without_arithmetic(agree, monkeypatch):
    # every index >= 2: the unit rows of the Brunovsky shift are the chains,
    # the chain form is the input itself, and D is rank G x rank G
    for ch, *loops in synthesized_closed_loops("mechanism", lambda k: min(k) >= 2, 8):
        for M in loops:
            ops = []
            with monkeypatch.context() as mp:
                for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__"):
                    op = getattr(Fraction, name)
                    mp.setattr(Fraction, name, lambda *a, op=op: ops.append(op) or op(*a))
                h, chains = chain_form_checked(M)
            assert ops == []
            assert h == M.int_rows()
            assert sorted(map(len, chains), reverse=True) == list(ch.bd.k.parts)
            agree(M, k=ch.rank_g)
