import random
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from gainchart import (
    ChartDomainError,
    InfeasibleError,
    NotInChartError,
    NotInClassError,
    Partition,
    RatMatrix,
    SingularMatrixError,
    SpectralData,
    VerificationError,
    build_chart,
    chart_for_gain,
    coordinates,
    invariant_chain,
    invariant_polynomials,
    manifold_dimension,
    nu,
    phi,
    reduce,
    synthesize,
    weyr_from_spectral,
)
from gainchart.canonical import centralizer_dimension_weyr
from gainchart.chart import in_domain, recover_member
from gainchart.feedback import BrunovskyData
from gainchart.observability import assemble, find_multi_index, is_admissible, member_cells
from gainchart.poly import InvariantChain, UniPoly

from conftest import (
    feasible_instance,
    rand_frac,
    rand_matrix,
    worked_example,
)
from oracles import (
    chart_jacobian,
    gain_tangent_space,
    jacobian_rank,
    monomial,
    phi_by_powers,
    whole_system_member,
)


def swapped_chart():
    # the worked chart: second generator row leads the real block
    F, G, sd = worked_example()
    mi = ((2, 1), (1,))
    return build_chart(F, G, sd, multi_index=mi)


def closed_form_gain(x, y, z):
    d = x * y - 1
    return RatMatrix(
        [
            [0, 0, Fraction(1) / d, -x / d, x * z / d],
            [0, 0, z / d, -x * z / d, y + x * z * z / d],
        ]
    )


def test_chart_dimensions():
    ch = swapped_chart()
    assert ch.dim == 3
    assert ch.N == 7
    assert manifold_dimension(5, 2, ch.chain) == 3
    from oracles import chart_dimension_check

    assert chart_dimension_check(ch)


def test_chart_dimension_bookkeeping(rng):
    # coordinate count is n * rankG - N; the free block adds (m - rankG) * n
    for _ in range(5):
        F, G, sd = feasible_instance(rng, rng.randint(3, 6), extra_inputs=rng.choice([0, 1]))
        ch = build_chart(F, G, sd)
        from oracles import chart_dimension_check

        assert chart_dimension_check(ch)
        assert ch.dim == ch.n * ch.rank_g - ch.N
        assert manifold_dimension(ch.n, ch.m, ch.chain) == ch.dim + (ch.m - ch.rank_g) * ch.n


def test_manifold_dimension_extremes():
    # nonderogatory chain, m = n: dimension n^2 - n
    n = 4
    chain = InvariantChain(
        tuple([UniPoly.one()] * (n - 1) + [monomial(n)])
    )
    assert manifold_dimension(n, n, chain) == n * n - n
    # scalar class: every polynomial degree one, centralizer is everything
    chain = InvariantChain(tuple([UniPoly((-1, 1))] * n))
    assert manifold_dimension(n, n, chain) == 0


def test_nu_reproduces_displayed_member(rng):
    ch = swapped_chart()
    x, y, z = (rand_frac(rng) for _ in range(3))
    obs = nu(ch, [x, y, z])
    assert obs.P == RatMatrix(
        [
            [x, 1, 0, 1, 0],
            [1, 0, 0, y, z],
            [0, 0, x, 0, 1],
            [0, 0, 1, -z, y],
            [0, 0, 0, -1, 0],
        ]
    )


def test_nu_zero_vector_is_pattern_skeleton():
    ch = swapped_chart()
    obs = nu(ch, [0, 0, 0])
    assert obs.P1 == RatMatrix([[0, 1, 0, 1, 0], [1, 0, 0, 0, 0]])


def test_nu_round_trip(rng):
    ch = swapped_chart()
    for _ in range(10):
        x = [rand_frac(rng) for _ in range(3)]
        assert list(reduce(nu(ch, x), ch.structures, ch.mi).params) == x


def test_nu_wrong_length():
    ch = swapped_chart()
    with pytest.raises(ValueError, match="expected 3"):
        nu(ch, [1, 2])


def test_phi_closed_form(rng):
    ch = swapped_chart()
    for _ in range(10):
        x, y, z = (rand_frac(rng) for _ in range(3))
        if x * y == 1:
            continue
        obs = nu(ch, [x, y, z])
        K1 = phi(obs, ch.bd.k)
        assert K1 == closed_form_gain(x, y, z)


def test_phi_at_0_0_1():
    ch = swapped_chart()
    obs = nu(ch, [0, 0, 1])
    assert phi(obs, ch.bd.k) == RatMatrix(
        [[0, 0, -1, 0, 0], [0, 0, -1, 0, 0]]
    )


def test_phi_nilpotent_single_chain():
    # single input chain, nilpotent target: the gain row vanishes
    n = 4
    sd = SpectralData(real=[(0, Partition([n]))])
    A, _ = weyr_from_spectral(sd)
    obs = assemble(A, Partition([1] * n), RatMatrix([[1, 0, 0, 0]]))
    k = Partition([n])
    assert phi(obs, k) == RatMatrix.zeros(1, n)


def test_phi_matches_dense_powers(rng):
    # phi reads p_j A^{k_j - 1} off the member; the oracle builds A^{k_j}
    charts = [swapped_chart()]
    while len(charts) < 5:
        F, G, sd = feasible_instance(rng, 8 + len(charts) % 3, extra_inputs=len(charts) % 2)
        if len(charts) == 1 and not sd.complex:
            continue
        charts.append(build_chart(F, G, sd))
    assert any(ch.sd.complex for ch in charts)
    assert any(ch.m > ch.rank_g for ch in charts)
    checked = 0
    for ch in charts:
        for _ in range(3):
            obs = nu(ch, [rand_frac(rng) for _ in range(ch.dim)])
            try:
                expected = phi_by_powers(obs, ch.bd.k)
            except SingularMatrixError:
                with pytest.raises(SingularMatrixError):
                    phi(obs, ch.bd.k)
                continue
            assert phi(obs, ch.bd.k) == expected
            checked += 1
    assert checked >= 10


def test_phi_rejects_indices_of_other_levels():
    ch = swapped_chart()
    obs = nu(ch, [1, 2, 3])
    assert ch.bd.k.conjugate() == obs.r
    for k in (Partition([4, 1]), Partition([5]), Partition([2, 2, 1])):
        with pytest.raises(ValueError, match="do not match the member levels"):
            phi(obs, k)


def test_phi_intertwines_closed_loop(rng):
    ch = swapped_chart()
    G1 = ch.bd.Gp.take_cols(range(ch.rank_g))
    for _ in range(5):
        x = [rand_frac(rng) for _ in range(3)]
        obs = nu(ch, x)
        try:
            K1 = phi(obs, ch.bd.k)
        except Exception:
            continue
        # closed loop acts on the member exactly as the state matrix does
        assert obs.P @ ch.A == (ch.bd.Fp + G1 @ K1) @ obs.P


def test_synthesize_and_phi_form_no_inverse(rng, monkeypatch):
    # the gain block X is solved from X P = rows, so P^-1 is never formed,
    # on the accepted path or the domain-error path
    F, G, sd = feasible_instance(rng, 8, extra_inputs=1)
    charts = [swapped_chart(), build_chart(F, G, sd)]
    calls = []
    inverse = RatMatrix.inverse
    monkeypatch.setattr(RatMatrix, "inverse", lambda self: calls.append(self) or inverse(self))
    synthesize(charts[0], [0, 0, 1])
    with pytest.raises(ChartDomainError):
        synthesize(charts[0], [2, Fraction(1, 2), 0])
    for ch in charts:
        for _ in range(3):
            x = [rand_frac(rng) for _ in range(ch.dim)]
            try:
                phi(nu(ch, x), ch.bd.k)
                synthesize(ch, x)
            except (SingularMatrixError, ChartDomainError):
                pass
    assert calls == []


def test_synthesize_verifies_and_round_trips(rng):
    ch = swapped_chart()
    for _ in range(10):
        x = [rand_frac(rng) for _ in range(3)]
        if x[0] * x[1] == 1:
            continue
        gain = synthesize(ch, x)
        assert gain.K == closed_form_gain(*x)
        assert invariant_polynomials(ch.pair.F + ch.pair.G @ gain.K) == ch.chain
        got_x, k2 = coordinates(ch, gain.K)
        assert got_x == x
        assert k2 is None


def test_synthesize_domain_violation():
    ch = swapped_chart()
    with pytest.raises(ChartDomainError):
        synthesize(ch, [Fraction(2), Fraction(1, 2), Fraction(3)])


def test_float_coordinates_are_rejected():
    F, G, sd = worked_example()
    ch = build_chart(F, G, sd)
    assert synthesize(ch, [Fraction(1, 10), 0, 1]).coords == (Fraction(1, 10), 0, 1)
    with pytest.raises(TypeError, match="float"):
        synthesize(ch, [0.1, 0.0, 1.0])
    with pytest.raises(TypeError, match="float"):
        in_domain(ch, [0.1, 0.0, 1.0])


def test_coordinates_rejects_wrong_class():
    ch = swapped_chart()
    with pytest.raises(NotInClassError):
        coordinates(ch, RatMatrix.zeros(2, 5))


def test_coordinates_outside_chart():
    # a gain whose member has a vanishing leading entry lives in the
    # lex-first chart but not in the swapped-row chart
    lex = build_chart(*worked_example())
    g2 = synthesize(lex, [0, 1, 0])
    xs, _ = coordinates(lex, g2.K)
    assert xs == [0, 1, 0]
    with pytest.raises(NotInChartError):
        coordinates(swapped_chart(), g2.K)


def test_default_chart_is_leading_rows():
    F, G, sd = worked_example()
    ch = build_chart(F, G, sd)
    assert list(ch.mi) == [(1, 2), (1,)]


def test_infeasible_target():
    F, G, _ = worked_example()
    # a diagonalizable target spreads every degree to one, but the pair has
    # a length-3 input chain: (3, 2) is not majorized by (1, 1, 1, 1, 1)
    sd = SpectralData(real=[(0, Partition([1, 1, 1, 1, 1]))])
    with pytest.raises(InfeasibleError):
        build_chart(F, G, sd)


def test_an_infeasible_class_builds_no_transform(monkeypatch):
    # the indices come from the pair's scan; the transform is built only for
    # a feasible class, and an uncontrollable pair still fails first
    import gainchart.chart as chart_module
    from gainchart import UncontrollableError, to_p_brunovsky

    calls = []
    monkeypatch.setattr(chart_module, "to_p_brunovsky", lambda pair: calls.append(pair) or to_p_brunovsky(pair))
    F, G, sd = worked_example()
    scalar = SpectralData(real=[(0, Partition([1, 1, 1, 1, 1]))])
    with pytest.raises(InfeasibleError) as exc:
        build_chart(F, G, scalar)
    assert calls == []
    assert str(exc.value) == (
        "no gain assigns this class: controllability indices (3, 2) are not "
        "majorized by the degree sequence (1, 1, 1, 1, 1)"
    )
    F3, G3 = RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]), RatMatrix([[1], [1], [0]])
    with pytest.raises(UncontrollableError) as exc:
        build_chart(F3, G3, SpectralData(real=[(0, Partition([1, 1, 1]))]))
    assert (exc.value.rank, calls) == (1, [])
    assert build_chart(F, G, sd).bd == to_p_brunovsky(calls[0])
    assert len(calls) == 1


def test_chart_on_non_canonical_pair(rng):
    # conjugate the worked pair and check gains still verify
    from conftest import conjugated_pair

    _, _, sd = worked_example()
    F, G = conjugated_pair(rng, Partition([2, 2, 1]), 2)
    mi = ((2, 1), (1,))
    ch = build_chart(F, G, sd, multi_index=mi)
    chain = invariant_chain(sd)
    for _ in range(5):
        x = [rand_frac(rng) for _ in range(3)]
        if x[0] * x[1] == 1:
            continue
        gain = synthesize(ch, x)
        assert invariant_polynomials(F + G @ gain.K) == chain
        got, _ = coordinates(ch, gain.K)
        assert got == x


def test_k2_block_round_trip(rng):
    # more inputs than rank G: the extra gain rows are free
    F, G, sd = feasible_instance(rng, 5, extra_inputs=1, allow_complex=False)
    ch = build_chart(F, G, sd)
    m, n, rr = ch.m, ch.n, ch.rank_g
    assert m - rr >= 1
    for _ in range(5):
        x = [rand_frac(rng) for _ in range(ch.dim)]
        K2 = rand_matrix(rng, m - rr, n, lo=-2, hi=2)
        try:
            gain = synthesize(ch, x, K2)
        except ChartDomainError:
            continue
        xs, k2 = coordinates(ch, gain.K)
        assert xs == x
        assert k2 == K2
        assert invariant_polynomials(F + G @ gain.K) == ch.chain


def test_wrong_shaped_gain_and_k2_name_their_shapes(rng):
    ch = build_chart(*worked_example())
    with pytest.raises(ValueError, match=r"^gain must be 2 x 5, got 1 x 3$"):
        coordinates(ch, RatMatrix([[1, 2, 3]]))
    F, G, sd = feasible_instance(rng, 5, extra_inputs=1, allow_complex=False)
    ch = build_chart(F, G, sd)
    draws = ([rand_frac(rng) for _ in range(ch.dim)] for _ in range(50))
    x = next(x for x in draws if in_domain(ch, x))
    with pytest.raises(ValueError, match=rf"^K2 must be {ch.m - ch.rank_g} x 5, got 1 x 3$"):
        synthesize(ch, x, RatMatrix([[1, 2, 3]]))


def test_k2_with_complex_target(rng):
    # free gain rows coexist with a conjugate-pair block
    for _ in range(10):
        F, G, sd = feasible_instance(rng, 5, extra_inputs=1)
        if not sd.complex:
            continue
        ch = build_chart(F, G, sd)
        x = [rand_frac(rng) for _ in range(ch.dim)]
        K2 = rand_matrix(rng, ch.m - ch.rank_g, ch.n, lo=-2, hi=2)
        try:
            gain = synthesize(ch, x, K2)
        except ChartDomainError:
            continue
        xs, k2 = coordinates(ch, gain.K)
        assert xs == x and k2 == K2
        return
    # random draw produced no usable complex instance; extremely unlikely
    raise AssertionError("no complex instance sampled")


def test_chart_overlap_independence(rng):
    # a gain lying in two charts gets the same K back through either
    F, G, sd = worked_example()
    swapped = swapped_chart()
    lex = build_chart(F, G, sd)
    for _ in range(8):
        x = [rand_frac(rng) for _ in range(3)]
        if x[0] * x[1] == 1 or x[0] == 0:
            continue
        gain = synthesize(swapped, x)
        try:
            x_lex, _ = coordinates(lex, gain.K)
        except NotInChartError:
            continue
        again = synthesize(lex, x_lex)
        assert again.K == gain.K


def test_chart_for_gain(rng):
    F, G, sd = worked_example()
    base = build_chart(F, G, sd)
    gain = synthesize(base, [Fraction(1), Fraction(2), Fraction(3)])
    ch, _ = chart_for_gain(F, G, sd, gain.K)
    xs, _ = coordinates(ch, gain.K)
    assert synthesize(ch, xs).K == gain.K


def test_build_chart_size_mismatch():
    F, G, _ = worked_example()
    sd = SpectralData(real=[(0, Partition([2]))])
    with pytest.raises(ValueError, match="size"):
        build_chart(F, G, sd)


def test_build_chart_multi_index_count():
    # too many and too few components both fail at build time
    F, G, sd = worked_example()
    for orders in ([[2, 1], [1], [1]], [[2, 1]]):
        seqs = tuple(tuple(o) for o in orders)
        for mi in (orders, seqs):
            with pytest.raises(
                ValueError, match=f"multi-index has {len(orders)} components, expected 2"
            ):
                build_chart(F, G, sd, multi_index=mi)


def test_build_chart_takes_index_lists():
    F, G, sd = worked_example()
    ch = build_chart(F, G, sd, multi_index=[[2, 1], [1]])
    assert (ch, hash(ch)) == (swapped_chart(), hash(swapped_chart()))
    assert ch.mi == ((2, 1), (1,))
    with pytest.raises(ValueError, match="out of range"):
        build_chart(F, G, sd, multi_index=[[3, 1], [1]])


def test_in_domain_predicate():
    from gainchart import in_domain

    ch = swapped_chart()
    assert in_domain(ch, [Fraction(0), Fraction(0), Fraction(1)])
    assert not in_domain(ch, [Fraction(2), Fraction(1, 2), Fraction(7)])  # xy = 1


def test_two_level_complex_block_round_trips(rng):
    # pair with Segre (2): the conjugate-pair staircase runs two stages
    sd = SpectralData(complex=[(1, 2, Partition([2]))])
    Fp, Gp = __import__("gainchart").p_brunovsky_pair(Partition([2, 2]), 2)
    ch = build_chart(Fp, Gp, sd)
    assert ch.dim == 4  # 4*2 - 2*(1+1)
    done = 0
    while done < 8:
        x = [rand_frac(rng) for _ in range(4)]
        try:
            gain = synthesize(ch, x)
        except ChartDomainError:
            continue
        assert invariant_polynomials(Fp + Gp @ gain.K) == ch.chain
        got, _ = coordinates(ch, gain.K)
        assert got == x
        done += 1


def test_rational_eigenvalues_round_trip(rng):
    # non-integer spectrum, conjugated pair
    from conftest import conjugated_pair

    sd = SpectralData(
        real=[(Fraction(1, 2), Partition([2]))],
        complex=[(Fraction(1, 3), Fraction(2, 5), Partition([1]))],
    )
    F, G = conjugated_pair(rng, Partition([2, 1, 1]), 2)
    ch = build_chart(F, G, sd)
    done = 0
    while done < 5:
        x = [rand_frac(rng) for _ in range(ch.dim)]
        try:
            gain = synthesize(ch, x)
        except ChartDomainError:
            continue
        got, _ = coordinates(ch, gain.K)
        assert got == x
        done += 1


def test_one_dimensional_system():
    F = RatMatrix([[3]])
    G = RatMatrix([[1]])
    sd = SpectralData(real=[(Fraction(-7, 2), Partition([1]))])
    ch = build_chart(F, G, sd)
    assert ch.dim == 0
    gain = synthesize(ch, [])
    assert gain.K == RatMatrix([[Fraction(-13, 2)]])
    got, k2 = coordinates(ch, gain.K)
    assert got == [] and k2 is None


def test_recover_member_assembles_fewer_members_than_n(rng, monkeypatch):
    # one seeded draw per candidate: fewer assemblies than the null-space
    # dimension N, and the same member on every call
    import gainchart.chart as chart_mod

    def some_gain(chart):
        while True:
            try:
                return synthesize(chart, [rand_frac(rng, -2, 2) for _ in range(chart.dim)]).K
            except ChartDomainError:
                continue

    charts = [build_chart(*worked_example()), build_chart(*feasible_instance(rng, 8))]
    cases = [(chart, some_gain(chart)) for chart in charts]
    calls = []
    real_assemble = chart_mod.assemble

    def counting_assemble(*args, **kwargs):
        calls.append(args)
        return real_assemble(*args, **kwargs)

    monkeypatch.setattr(chart_mod, "assemble", counting_assemble)
    for chart, K in cases:
        calls.clear()
        first = chart_mod.recover_member(chart, K)
        assert 1 <= len(calls) < chart.N
        assert chart_mod.recover_member(chart, K).P == first.P


def test_coordinates_maps_the_gain_once_per_needed_block(rng, monkeypatch):
    # psi carries K to the canonical pair: once for K1 in recover_member, and
    # a second time only when inputs beyond rank G carry a free K2 block
    F, G, sd = feasible_instance(rng, 5, extra_inputs=1, allow_complex=False)
    square, wide = build_chart(*worked_example()), build_chart(F, G, sd)
    assert square.m == square.rank_g and wide.m > wide.rank_g
    cases = []
    for ch, expected_calls in ((square, 1), (wide, 2)):
        K2 = rand_matrix(rng, ch.m - ch.rank_g, ch.n, lo=-2, hi=2) if ch.m > ch.rank_g else None
        while True:
            try:
                gain = synthesize(ch, [rand_frac(rng, -2, 2) for _ in range(ch.dim)], K2)
                break
            except ChartDomainError:
                continue
        cases.append((ch, gain, K2, expected_calls))
    calls = []
    real_psi = BrunovskyData.psi

    def counting_psi(self, K):
        calls.append(K)
        return real_psi(self, K)

    monkeypatch.setattr(BrunovskyData, "psi", counting_psi)
    for ch, gain, K2, expected_calls in cases:
        calls.clear()
        xs, k2 = coordinates(ch, gain.K)
        assert len(calls) == expected_calls
        assert xs == list(gain.coords) and k2 == K2


def _perturbed(M, i, j, delta=1):
    rows = M.tolists()
    rows[i][j] += delta
    return RatMatrix(rows)


def test_synthesize_rejects_a_wrong_pull_back(monkeypatch):
    # K P = Q Kp + R catches an arithmetic slip in psi_inv
    ch = swapped_chart()
    real_psi_inv = BrunovskyData.psi_inv
    monkeypatch.setattr(
        BrunovskyData, "psi_inv", lambda self, Kp: _perturbed(real_psi_inv(self, Kp), 1, 4)
    )
    with pytest.raises(VerificationError, match="invariant-polynomial check"):
        synthesize(ch, [0, 0, 1])


def test_synthesize_rejects_a_gain_outside_the_class(monkeypatch):
    # a K1 that moves the trace of Fp + Gp K1 leaves the class; it is pulled
    # back consistently, so only the invariant-polynomial check can catch it
    import gainchart.chart as chart_module

    ch = swapped_chart()
    fed = next(c for c in range(ch.n) if ch.bd.Gp[c, 0] == 1)
    real_phi = chart_module.phi
    moved = []

    def shifted_phi(obs, k):
        K1 = real_phi(obs, k)
        moved.append((K1, _perturbed(K1, 0, fed)))
        return moved[-1][1]

    def trace(M):
        return sum(M[i, i] for i in range(M.rows))

    monkeypatch.setattr(chart_module, "phi", shifted_phi)
    with pytest.raises(VerificationError, match="invariant-polynomial check"):
        synthesize(ch, [0, 0, 1])
    (K1, bad), = moved
    Fp, Gp = ch.bd.Fp, ch.bd.Gp
    assert trace(Fp + Gp @ bad) == trace(Fp + Gp @ K1) + 1


def test_synthesize_runs_the_smith_form_on_the_canonical_closed_loop(rng, monkeypatch):
    import gainchart.chart as chart_module

    F, G, sd = feasible_instance(rng, 6, extra_inputs=1)
    ch = build_chart(F, G, sd)
    K2 = rand_matrix(rng, ch.m - ch.rank_g, ch.n, lo=-2, hi=2)
    seen = []
    real = chart_module.invariant_polynomials

    def recording(M):
        seen.append(M)
        return real(M)

    monkeypatch.setattr(chart_module, "invariant_polynomials", recording)
    while True:
        try:
            gain = synthesize(ch, [rand_frac(rng) for _ in range(ch.dim)], K2)
            break
        except ChartDomainError:
            seen.clear()
    Kp = ch.bd.psi(gain.K)
    assert Kp.take_rows(range(ch.rank_g, ch.m)) == K2
    assert seen == [ch.bd.Fp + ch.bd.Gp @ Kp]


def test_synthesized_gains_assign_the_class_on_the_original_pair():
    # the Smith form of F + G K, computed independently of the certificate
    accepted = 0
    for seed in range(60):
        rng = random.Random(seed)
        F, G, sd = feasible_instance(rng, 4 + seed % 7, extra_inputs=seed % 2)
        ch = build_chart(F, G, sd)
        K2 = rand_matrix(rng, ch.m - ch.rank_g, ch.n, lo=-2, hi=2) if ch.m > ch.rank_g else None
        try:
            gain = synthesize(ch, [rand_frac(rng) for _ in range(ch.dim)], K2)
        except ChartDomainError:
            continue
        assert invariant_polynomials(F + G @ gain.K) == ch.chain
        accepted += 1
        if accepted == 30:
            break
    assert accepted == 30


def test_the_gain_set_is_a_manifold_and_each_chart_an_immersion():
    # tangent-space evidence for the main theorem, independent of the chart
    # code: transversality rank L = n^2 gives dim T = manifold_dimension, and
    # the chart's exact Jacobian has full rank with every column in T
    cases = [(*worked_example(), 0)]
    for seed, n, extra in ((3, 4, 1), (5, 6, 0), (8, 5, 1)):
        rng = random.Random(seed)
        cases.append((*feasible_instance(rng, n, extra_inputs=extra), seed))
    for F, G, sd, seed in cases:
        rng = random.Random(seed)
        ch = build_chart(F, G, sd)
        n, m = ch.n, ch.m
        K2 = rand_matrix(rng, m - ch.rank_g, n, lo=-2, hi=2) if m > ch.rank_g else None
        x = [Fraction(rng.randint(-2, 2)) for _ in range(ch.dim)]
        while not in_domain(ch, x):
            x = [Fraction(rng.randint(-2, 2)) for _ in range(ch.dim)]
        K, columns = chart_jacobian(ch, x, K2)
        assert K == synthesize(ch, x, K2).K
        rank_l, dim_t, in_t = gain_tangent_space(F, G, K)
        assert rank_l == n * n
        assert dim_t == manifold_dimension(n, m, ch.chain)
        assert len(columns) == ch.dim + (m - ch.rank_g) * n == dim_t
        assert jacobian_rank(columns) == dim_t
        assert in_t(columns)


@cache
def _domain_charts():
    """The worked chart, then conjugate-pair charts with m > rank G, the last
    with a pair of Segre (3)."""
    return [build_chart(*worked_example())] + [
        build_chart(*feasible_instance(random.Random(seed), n, extra_inputs=1))
        for seed, n in ((1, 4), (9, 4), (3, 6))
    ]


@st.composite
def _chart_point(draw):
    """A chart index, x in {-1, 0, 1}^dim and a K2 block with entries in {-1, 0, 1}."""
    i = draw(st.integers(0, len(_domain_charts()) - 1))
    ch = _domain_charts()[i]
    unit = st.sampled_from([-1, 0, 1])
    x = draw(st.lists(unit, min_size=ch.dim, max_size=ch.dim))
    rows = ch.m - ch.rank_g
    K2 = RatMatrix([draw(st.lists(unit, min_size=ch.n, max_size=ch.n)) for _ in range(rows)])
    return i, x, K2 if rows else None


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(_chart_point())
@example((0, [1, 1, 0], None))  # xy = 1 on the worked chart
@example((0, [0, 0, 1], None))
def test_the_domain_is_exactly_where_synthesize_succeeds(point):
    # ROADMAP item 5's domain property: in_domain(ch, x) holds exactly when
    # synthesize raises no ChartDomainError, and coordinates inverts it there
    i, x, K2 = point
    ch = _domain_charts()[i]
    inside = in_domain(ch, x)
    try:
        gain = synthesize(ch, x, K2)
    except ChartDomainError:
        assert not inside
        return
    assert inside
    assert coordinates(ch, gain.K) == (x, K2)


def _in_class_gain(seed, n, extra):
    """(F, G, sd, chart, x, K2, K): a feasible instance, a point of its default
    chart's domain with entries in [-2, 2], a free K2 block and its gain."""
    rng = random.Random(seed)
    F, G, sd = feasible_instance(rng, n, extra_inputs=extra)
    ch = build_chart(F, G, sd)
    K2 = rand_matrix(rng, ch.m - ch.rank_g, ch.n, lo=-2, hi=2) if ch.m > ch.rank_g else None
    while True:
        x = [Fraction(rng.randint(-2, 2)) for _ in range(ch.dim)]
        try:
            return F, G, sd, ch, x, K2, synthesize(ch, x, K2).K
        except ChartDomainError:
            continue


def _recover_with_nullspaces(chart, K):
    """recover_member(chart, K) and the (system, basis) of every null space it takes."""
    calls = []
    real_nullspace = RatMatrix.nullspace

    def spy(self):
        basis = real_nullspace(self)
        calls.append((self, basis))
        return basis

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RatMatrix, "nullspace", spy)
        member = recover_member(chart, K)
    return member, calls


def _embedded(chart, bases):
    """Block null-space bases, one per spectral block, as rows over all rank G * n unknowns."""
    n, rr = chart.n, chart.rank_g
    rows, off = [], 0
    for ws, basis in zip(chart.structures, bases):
        w = ws.real_cols
        for v in basis.tolists():
            full = [0] * (rr * n)
            for a in range(rr):
                full[a * n + off : a * n + off + w] = v[a * w : (a + 1) * w]
            rows.append(full)
        off += w
    return RatMatrix(rows)


# (seed, n, extra inputs) of feasible_instance, with the blocks of its target
_SPLIT_EXAMPLES = [
    (1, 5, 0),  # real (2), real (1), a conjugate pair (1)
    (6, 6, 1),  # real (1), real (2, 2, 1); m > rank G
    (8, 6, 1),  # real (1), real (1), a conjugate pair (1, 1); m > rank G
    (12, 6, 1),  # a conjugate pair (2, 1) alone; m > rank G
    (10, 5, 0),  # real (2, 1, 1), real (1)
]


def test_recover_member_takes_one_null_space_per_spectral_block():
    # the intertwining system is eliminated block by block, each block on
    # its closed (rank G * n_beta)-square subsystem, and the block solution
    # spaces are the block centralizers, of total dimension N
    for example in _SPLIT_EXAMPLES:
        _, _, _, ch, _, _, K = _in_class_gain(*example)
        _, calls = _recover_with_nullspaces(ch, K)
        assert len(calls) == len(ch.structures)
        for (system, basis), ws in zip(calls, ch.structures):
            assert system.shape == (ch.rank_g * ws.real_cols,) * 2
            assert basis.rows == centralizer_dimension_weyr([ws])
        assert sum(basis.rows for _, basis in calls) == ch.N


def test_the_generator_system_constants_are_built_once_per_chart(monkeypatch):
    # the first coordinates on a chart takes k_1 powers of each block of A;
    # a second takes none, and the filled cache leaves the chart equal to a
    # fresh build of the same input
    for example in _SPLIT_EXAMPLES:
        F, G, sd, ch, x, K2, K = _in_class_gain(*example)
        blocks, off = [], 0
        for ws in ch.structures:
            idx = range(off, off + ws.real_cols)
            blocks.append(ch.A.take_rows(idx).take_cols(idx))
            off += ws.real_cols
        products = []
        matmul = RatMatrix.__matmul__
        monkeypatch.setattr(RatMatrix, "__matmul__", lambda a, b: products.append((a, b)) or matmul(a, b))
        counts = []
        for _ in range(2):
            products.clear()
            assert coordinates(ch, K) == (x, K2)
            counts.append(sum(a == A and b.shape == A.shape for a, b in products for A in blocks))
        monkeypatch.undo()
        assert counts == [len(blocks) * ch.bd.k.part(1), 0]
        assert ch == build_chart(F, G, sd)


def test_a_chart_moved_to_another_multi_index_gets_its_own_constants():
    # chart_for_gain fills the constants on its base chart, then replaces the
    # multi-index with find_multi_index's output; a fresh build with that
    # multi-index, given as it is or as lists, is an equal, equally hashed
    # chart with the same constants
    for example in _SPLIT_EXAMPLES:
        F, G, sd, _, _, _, K = _in_class_gain(*example)
        ch, _ = chart_for_gain(F, G, sd, K)
        for mi in (ch.mi, [list(seq) for seq in ch.mi]):
            fresh = build_chart(F, G, sd, multi_index=mi)
            assert (fresh, hash(fresh)) == (ch, hash(ch))
            assert ch.generator_system == fresh.generator_system


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(0, 2**16), st.integers(2, 6), st.integers(0, 1))
@example(*_SPLIT_EXAMPLES[0])
@example(*_SPLIT_EXAMPLES[1])
@example(*_SPLIT_EXAMPLES[2])
@example(*_SPLIT_EXAMPLES[3])
@example(*_SPLIT_EXAMPLES[4])
def test_block_null_spaces_span_the_whole_system_null_space(seed, n, extra):
    # the embedded block bases and the whole-system basis each have rank N,
    # and stacked they still do; coordinates reads the same x and K2 off the
    # member drawn either way
    _, _, _, ch, x, K2, K = _in_class_gain(seed, n, extra)
    member, calls = _recover_with_nullspaces(ch, K)
    blocks = _embedded(ch, [basis for _, basis in calls])
    whole, oracle_member = whole_system_member(ch, K)
    assert blocks.rank() == whole.rank() == ch.N
    assert RatMatrix.vstack([blocks, whole]).rank() == ch.N
    assert coordinates(ch, K, member) == coordinates(ch, K, oracle_member) == (x, K2)


def _sequences(ws, rr):
    """Every index sequence of the right shape for a block with rr top rows."""

    def extend(stage, order):
        if stage > ws.m:
            yield tuple(order)
            return
        free = [i for i in range(1, rr + 1) if i not in order]
        for batch in combinations(free, ws.tau(stage) - ws.tau(stage - 1)):
            yield from extend(stage + 1, order + list(batch))

    return list(extend(1, []))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(0, 2**16), st.integers(2, 6), st.integers(0, 1), st.integers(0, 2**16))
@example(*_SPLIT_EXAMPLES[1], 1)
@example(*_SPLIT_EXAMPLES[3], 1)
def test_atlas_every_admissible_chart_round_trips(seed, n, extra, pick):
    # chart_for_gain finds an admissible chart, the one the whole-system
    # member picks too; moving to another admissible chart (the digits of
    # pick choose one other sequence per block, where a block has one) and
    # back returns the same coordinates
    F, G, sd, _, _, _, K = _in_class_gain(seed, n, extra)
    base, member = chart_for_gain(F, G, sd, K)
    x0, k2 = coordinates(base, K, member)
    assert (x0, k2) == coordinates(base, K)
    assert synthesize(base, x0, k2).K == K
    assert find_multi_index(whole_system_member(base, K)[1], base.structures) == base.mi
    other = []
    cells = member_cells(member, base.structures)
    for block_cells, ws, own in zip(cells, base.structures, base.mi):
        seqs = [s for s in _sequences(ws, base.rank_g) if is_admissible(block_cells, ws, s)]
        assert own in seqs
        seqs = [s for s in seqs if s != own] or seqs
        pick, i = divmod(pick, len(seqs))
        other.append(seqs[i])
    there = build_chart(F, G, sd, multi_index=other)
    x1, k2_there = coordinates(there, K)
    assert k2_there == k2
    back = synthesize(there, x1, k2).K
    assert back == K
    assert coordinates(base, back) == (x0, k2)


def test_desk_scale_round_trip():
    # desk scale: with the null space taken block by block, the n = 24
    # round trip takes well under a second
    _, _, _, ch, x, K2, K = _in_class_gain(124, 24, 0)
    assert ch.n == 24
    assert coordinates(ch, K) == (x, K2)
