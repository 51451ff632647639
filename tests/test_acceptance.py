"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every check is exact (bit-for-bit equality of rationals);
the stated wall-clock budgets are asserted too.
"""

import random
import time
from fractions import Fraction

from gainchart import (
    Partition,
    RatMatrix,
    SpectralData,
    assemble,
    build_chart,
    controllability_indices,
    coordinates,
    find_multi_index,
    invariant_chain,
    invariant_polynomials,
    manifold_dimension,
    reduce,
    rosenbrock_feasible,
    synthesize,
    weyr_from_spectral,
    weyr_union,
)
from gainchart.chart import ChartDomainError
from gainchart.feedback import ControlPair
from gainchart.poly import InvariantChain

from conftest import (
    dominating_partition,
    feasible_instance,
    rand_frac,
    rand_matrix,
    rand_spectral,
    random_invertible_centralizer,
    random_member,
    worked_example,
)
from oracles import (
    block_free_param_count,
    centralizer_basis,
    jordan_from_spectral,
    jordan_weyr_permutation,
    majorized_by,
    minors_gcd_chain,
    monomial,
    nonempty,
    partitions_of,
    scaled,
)


def _criterion(num, name, budget_s, fn):
    t0 = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    dt = time.perf_counter() - t0
    print(f"criterion {num} ({name}): PASS [{dt:.2f}s of {budget_s:.0f}s]")
    assert dt < budget_s, f"criterion {num} exceeded its {budget_s}s budget ({dt:.2f}s)"


def test_c1_centralizer_counts():
    def body():
        segre = Partition([4, 2, 2, 2, 1, 1])
        a, ws = weyr_from_spectral(SpectralData(real=[(0, segre)]))
        assert centralizer_basis(a, ws)[0] == 54
        a, ws = weyr_from_spectral(SpectralData(complex=[(0, 1, segre)]))
        assert centralizer_basis(a, ws)[0] == 108

    _criterion(1, "centralizer counts 54 / 108", 1.0, body)


def test_c2_weyr_jordan_conjugation():
    def body():
        rng = random.Random(2)
        checked = 0
        for _ in range(100):
            sd = rand_spectral(rng, rng.randint(1, 10), max_real=3)
            blocks = [jordan_weyr_permutation(s, False) for _, s in sd.real]
            blocks += [jordan_weyr_permutation(s, True) for _, _, s in sd.complex]
            q = RatMatrix.block_diag(*blocks)
            w, _ = weyr_from_spectral(sd)
            assert q.transpose() @ jordan_from_spectral(sd) @ q == w
            checked += 1
        for n in range(1, 7):
            for segre in partitions_of(n):
                for is_complex in (False, True):
                    sd = (
                        SpectralData(complex=[(2, 1, segre)])
                        if is_complex
                        else SpectralData(real=[(2, segre)])
                    )
                    q = jordan_weyr_permutation(segre, is_complex)
                    w, _ = weyr_from_spectral(sd)
                    assert q.transpose() @ jordan_from_spectral(sd) @ q == w
                    checked += 1
        assert checked >= 100

    _criterion(2, "Weyr-Jordan conjugation", 10.0, body)


def test_c3_feasibility_of_worked_instance():
    def body():
        F, G, sd = worked_example()
        k, r = controllability_indices(ControlPair(F, G))
        assert k == Partition([3, 2]) and r == Partition([2, 2, 1])
        chain = invariant_chain(sd)
        assert majorized_by(k, Partition(chain.degrees_desc()))
        assert weyr_union(sd) == Partition([2, 1, 1, 1])
        assert majorized_by(weyr_union(sd), r)
        assert rosenbrock_feasible(k, chain)
        assert manifold_dimension(5, 2, chain) == 3  # 5*2 - 7

    _criterion(3, "feasibility with dim 3", 1.0, body)


def test_c4_closed_form_chart_reproduction():
    def body():
        rng = random.Random(4)
        F, G, sd = worked_example()
        mi = ((2, 1), (1,))
        ch = build_chart(F, G, sd, multi_index=mi)
        target = invariant_chain(sd)
        done = 0
        while done < 20:
            x, y, z = (rand_frac(rng, -6, 6) for _ in range(3))
            if x * y == 1:
                continue
            gain = synthesize(ch, [x, y, z])
            d = x * y - 1
            assert gain.K == RatMatrix(
                [
                    [0, 0, Fraction(1) / d, -x / d, x * z / d],
                    [0, 0, z / d, -x * z / d, y + x * z * z / d],
                ]
            )
            assert invariant_polynomials(F + G @ gain.K) == target
            done += 1

    _criterion(4, "closed-form chart reproduction", 2.0, body)


def test_c5_reduced_form_uniqueness():
    def body():
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 8)
            sd = rand_spectral(rng, n, max_real=2)
            A, ws = weyr_from_spectral(sd)
            r = dominating_partition(rng, weyr_union(sd))
            obs = random_member(rng, A, r)
            mi = find_multi_index(obs, ws)
            y0 = random_invertible_centralizer(rng, ws)
            moved = assemble(A, r, obs.P1 @ y0)
            rf1 = reduce(obs, ws, mi)
            rf2 = reduce(moved, ws, mi)
            assert rf1.obs.P == rf2.obs.P
            assert rf1.params == rf2.params

    _criterion(5, "reduced-form uniqueness", 30.0, body)


def test_c6_parameter_count_twelve_dimensional():
    def body():
        rng = random.Random(6)
        sd = SpectralData(real=[(0, Partition([4, 2, 2, 2, 1, 1]))])
        A, ws = weyr_from_spectral(sd)
        r = Partition([7, 4, 2, 1])
        assert block_free_param_count(ws[0], 7) == 30  # 7*12 - 54 = 84 - 54
        obs = random_member(rng, A, r)
        rf = reduce(obs, ws, find_multi_index(obs, ws))
        assert len(rf.params) == 30

    _criterion(6, "reduced form exposes 30 parameters", 2.0, body)


def test_c7_round_trips():
    def body():
        rng = random.Random(7)
        instances = []
        F, G, sd = worked_example()
        instances.append((F, G, sd))
        for n in (4, 5, 5, 6, 7):
            instances.append(feasible_instance(rng, n, extra_inputs=rng.choice([0, 1])))
        for F, G, sd in instances:
            ch = build_chart(F, G, sd)
            m, n, rr = ch.m, ch.n, ch.rank_g
            done = 0
            while done < 50:
                x = [rand_frac(rng, -3, 3, dens=(1, 1, 2)) for _ in range(ch.dim)]
                K2 = rand_matrix(rng, m - rr, n, lo=-2, hi=2) if m > rr else None
                try:
                    gain = synthesize(ch, x, K2)
                except ChartDomainError:
                    continue
                got_x, got_k2 = coordinates(ch, gain.K)
                assert got_x == x
                if K2 is not None:
                    assert got_k2 == K2
                again = synthesize(ch, got_x, got_k2)
                assert again.K == gain.K
                done += 1

    _criterion(7, "chart round trips", 30.0, body)


def test_c8_nonemptiness_equivalence():
    def body():
        # the two criteria are asserted to agree inside nonempty(); sweep all
        # degree sequences and r-partitions with n <= 8, plus padded r
        for d in range(1, 9):
            for degs in partitions_of(d):
                polys = [monomial(deg) for deg in sorted(degs.parts)]
                chain = InvariantChain(tuple(polys))
                for extra in range(0, 9 - d):
                    for r in partitions_of(d + extra):
                        nonempty(chain, r)
        sd = SpectralData(real=[(1, Partition([1, 1, 1, 1]))])
        assert nonempty(invariant_chain(sd), Partition([2, 2])) is False

    _criterion(8, "nonemptiness criteria equivalence", 10.0, body)


def test_c9_smith_oracle_equivalence():
    def body():
        from conftest import rand_unimodular

        rng = random.Random(9)
        for case in range(50):
            n = rng.randint(2, 6)
            if case % 2 == 0:
                m = rand_matrix(rng, n, n, lo=-3, hi=3, dens=(1,))
            else:
                # derogatory integer samples: repeated small blocks under a
                # unimodular conjugation (entries stay integral)
                lam = rng.randint(-2, 2)
                blk = RatMatrix([[lam, 1], [0, lam]]) if n >= 4 else RatMatrix([[lam]])
                blocks = []
                size = 0
                while size + blk.rows <= n:
                    blocks.append(blk)
                    size += blk.rows
                if size < n:
                    blocks.append(scaled(RatMatrix.identity(n - size), lam))
                t = rand_unimodular(rng, n)
                m = t.inverse() @ RatMatrix.block_diag(*blocks) @ t
                assert all(x.denominator == 1 for row in m.tolists() for x in row)
            assert invariant_polynomials(m) == minors_gcd_chain(m)

    _criterion(9, "Smith form against minors-gcd oracle", 20.0, body)
