import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gainchart import (
    ChartDomainError,
    ControlPair,
    Partition,
    RatMatrix,
    UncontrollableError,
    build_chart,
    controllability_indices,
    invariant_chain,
    p_brunovsky_pair,
    rosenbrock_feasible,
    synthesize,
    to_p_brunovsky,
)
from gainchart.cli import cmd_check
from gainchart.feedback import BrunovskyData, chain_ends
from gainchart.poly import InvariantChain, UniPoly, invariant_polynomials
from gainchart.problemfile import Problem

from conftest import (
    conjugated_pair,
    feasible_instance,
    rand_frac,
    rand_invertible,
    rand_matrix,
    rand_spectral,
    worked_example,
)
from oracles import (
    chain_major_p_brunovsky,
    krylov_chains,
    monomial,
    partitions_of,
    rescan_chain_lengths,
    weyr_p_brunovsky_pair,
)


def test_indices_integrator_bank():
    n = 4
    cp = ControlPair(RatMatrix.zeros(n, n), RatMatrix.identity(n))
    k, r = controllability_indices(cp)
    assert k == Partition([1] * n)
    assert r == Partition([n])


def test_indices_worked_example():
    F, G, _ = worked_example()
    k, r = controllability_indices(ControlPair(F, G))
    assert k == Partition([3, 2])
    assert r == Partition([2, 2, 1])


def test_indices_recovered_from_canonical_pairs(rng):
    for _ in range(10):
        n = rng.randint(2, 8)
        m = rng.randint(1, 3)
        parts = []
        rem = n
        while rem and len(parts) < m:
            p = rem if len(parts) == m - 1 else rng.randint(1, rem)
            parts.append(p)
            rem -= p
        if rem:
            continue
        k = Partition(sorted(parts, reverse=True))
        Fp, Gp = p_brunovsky_pair(k.conjugate(), m)
        got_k, got_r = controllability_indices(ControlPair(Fp, Gp))
        assert got_k == k
        assert got_r == k.conjugate()


def test_brunovsky_indices_are_rank_increments(rng):
    # r_1 + ... + r_i equals the rank of [G FG ... F^{i-1}G], independently;
    # the chains kept, and the rank an uncontrollable pair reports, are those
    # of the entrywise scan
    pairs = []
    for _ in range(6):
        n = rng.randint(2, 6)
        m = rng.randint(1, 3)
        F = rand_matrix(rng, n, n, lo=-2, hi=2, dens=(1,))
        G = rand_matrix(rng, n, m, lo=-2, hi=2, dens=(1,))
        pairs.append((F, G))
    for _ in range(4):  # a zero and a repeated input column: m > rank G
        n = rng.randint(2, 6)
        F = rand_matrix(rng, n, n, lo=-2, hi=2, dens=(1,))
        G = rand_matrix(rng, n, rng.randint(1, 2), lo=-2, hi=2, dens=(1,))
        pairs.append((F, RatMatrix.hstack([RatMatrix.zeros(n, 1), G, G.take_cols([0])])))
    pairs.append((RatMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 2]]), RatMatrix([[1, 0], [1, 0], [0, 0]])))
    uncontrollable = 0
    for F, G in pairs:
        n = F.rows
        lengths, columns = krylov_chains(F, G)
        try:
            _, kept, owner = ControlPair(F, G).chains
        except UncontrollableError as exc:
            uncontrollable += 1
            assert exc.rank == len(columns) < n
            continue
        assert [owner.count(j) for j in range(G.cols)] == lengths
        assert kept.transpose().tolists() == columns
        _, r = controllability_indices(ControlPair(F, G))
        stacked = G
        power = G
        for i in range(1, n + 1):
            expect = sum(r.part(j) for j in range(1, i + 1))
            assert stacked.transpose().rank() == expect
            power = F @ power
            stacked = RatMatrix.hstack([stacked, power])
    assert uncontrollable >= 1


@st.composite
def _scan_pairs(draw):
    """(F, G) with rational entries and input columns that are fresh, zero or
    a multiple of an earlier one (m > rank G), m = 0 included; a diagonal F
    with repeated entries makes uncontrollable pairs common."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        F = rand_matrix(rng, n, n, lo=-3, hi=3, dens=(1, 1, 2, 3))
    else:
        F = RatMatrix([[rng.choice((-1, 0, Fraction(1, 2))) * (i == j) for j in range(n)]
                       for i in range(n)])
    cols = []
    for kind in draw(st.lists(st.sampled_from(("fresh", "zero", "repeat")), max_size=4)):
        if kind == "repeat" and cols:
            cols.append(rng.choice(cols) @ RatMatrix([[rand_frac(rng, 1, 3, (1, 2))]]))
        elif kind == "zero":
            cols.append(RatMatrix.zeros(n, 1))
        else:
            cols.append(rand_matrix(rng, n, 1, lo=-3, hi=3, dens=(1, 2, 5)))
    return F, RatMatrix.hstack(cols) if cols else RatMatrix.zeros(n, 0)


def _outcome(scan, cp):
    try:
        k, kept, owner = scan(cp)
    except UncontrollableError as e:
        return e.rank, str(e)
    return k, kept, tuple(owner)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_scan_pairs())
@example((RatMatrix([[0, 1], [0, 0]]), RatMatrix.zeros(2, 0)))
@example((RatMatrix([[1, 0], [0, 1]]), RatMatrix([[0, 1, 2], [0, 1, 2]])))
@example((RatMatrix([[0, 1], [0, 0]]), RatMatrix([[0, 0, 0], [0, 1, 3]])))
def test_the_scan_keeps_the_columns_of_the_re_elimination(pair):
    # the same k, kept columns and owners, or the same rank and message
    cp = ControlPair(*pair)
    assert _outcome(lambda cp: cp.chains, cp) == _outcome(rescan_chain_lengths, cp)


def test_the_transform_from_the_scan_is_that_from_the_re_elimination():
    # every field and the hash of BrunovskyData, with the pair's scan read from
    # the re-elimination instead
    rng = random.Random(0x5CA7)
    for t in range(300):
        F, G, _ = feasible_instance(rng, 2 + t % 8, extra_inputs=t % 3)
        bd = to_p_brunovsky(ControlPair(F, G))
        cp = ControlPair(F, G)
        cp.__dict__["chains"] = rescan_chain_lengths(cp)
        expected = to_p_brunovsky(cp)
        assert [getattr(bd, f.name) for f in fields(BrunovskyData)] == [
            getattr(expected, f.name) for f in fields(BrunovskyData)
        ]
        assert hash(bd) == hash(expected)


def test_uncontrollable_reports_rank():
    F = RatMatrix([[1, 0], [0, 2]])
    G = RatMatrix([[1], [0]])
    with pytest.raises(UncontrollableError) as exc:
        controllability_indices(ControlPair(F, G))
    assert exc.value.rank == 1
    with pytest.raises(UncontrollableError):
        to_p_brunovsky(ControlPair(F, G))


def test_canonical_pair_is_fixed_point():
    F, G, _ = worked_example()
    pairs = [(F, G)]
    for n in range(1, 7):
        for r in partitions_of(n):
            for m in (r.part(1), r.part(1) + 1):
                pairs.append(p_brunovsky_pair(r, m))
    for F, G in pairs:
        bd = to_p_brunovsky(ControlPair(F, G))
        assert bd.Fp == F and bd.Gp == G
        assert bd.P == RatMatrix.identity(F.rows)
        assert bd.Pinv == RatMatrix.identity(F.rows)
        assert bd.Q == RatMatrix.identity(G.cols)
        assert bd.R.is_zero()


def test_reduction_of_conjugated_pairs(rng):
    for _ in range(10):
        n = rng.randint(2, 7)
        m = rng.randint(1, 3)
        parts = []
        rem = n
        while rem and len(parts) < m:
            p = rem if len(parts) == m - 1 else rng.randint(1, rem)
            parts.append(p)
            rem -= p
        if rem:
            continue
        k = Partition(sorted(parts, reverse=True))
        r = k.conjugate()
        F, G = conjugated_pair(rng, r, m)
        bd = to_p_brunovsky(ControlPair(F, G))
        Fp, Gp = p_brunovsky_pair(r, m)
        assert bd.Fp == Fp and bd.Gp == Gp
        assert bd.k == k and bd.r == r
        # exact transform identities
        Pinv = bd.P.inverse()
        assert Pinv @ (F @ bd.P + G @ bd.R) == Fp
        assert Pinv @ G @ bd.Q == Gp
        # gain carrying is an exact bijection
        K = rand_matrix(rng, m, n, lo=-2, hi=2)
        assert bd.psi_inv(bd.psi(K)) == K
        assert bd.psi(bd.psi_inv(K)) == K


def test_leading_zero_and_permuted_input_columns():
    # a dead first input and swapped live ones still reduce to the canonical
    # pair; the column bookkeeping lands in Q
    F, G, _ = worked_example()
    Gperm = RatMatrix.hstack(
        [RatMatrix.zeros(5, 1), G.take_cols([1]), G.take_cols([0])]
    )
    bd = to_p_brunovsky(ControlPair(F, Gperm))
    assert bd.k == Partition([3, 2])
    assert bd.rank_g == 2
    Pinv = bd.P.inverse()
    assert Pinv @ (F @ bd.P + Gperm @ bd.R) == bd.Fp
    assert Pinv @ Gperm @ bd.Q == bd.Gp
    Fp, Gp = p_brunovsky_pair(Partition([2, 2, 1]), 3)
    assert bd.Fp == Fp and bd.Gp == Gp


def test_rank_deficient_input_matrix(rng):
    # m = 3 inputs but only rank-2 G: third column a combination
    F, G, _ = worked_example()
    G3 = RatMatrix.hstack([G, RatMatrix([[0], [0], [0], [1], [2]])])
    bd = to_p_brunovsky(ControlPair(F, G3))
    assert bd.rank_g == 2
    assert bd.k == Partition([3, 2])
    Pinv = bd.P.inverse()
    assert Pinv @ (F @ bd.P + G3 @ bd.R) == bd.Fp
    assert Pinv @ G3 @ bd.Q == bd.Gp
    # the trailing input column of the canonical pair is zero
    assert all(bd.Gp[i, 2] == 0 for i in range(5))


def test_rosenbrock_examples():
    chain41 = InvariantChain(
        (UniPoly((1,)), UniPoly((0, 1)), UniPoly((0, 0, 0, 0, 1)))
    )  # degrees 0, 1, 4
    assert rosenbrock_feasible(Partition([3, 2]), chain41)
    # reflexive: indices equal to the degree list
    chain = InvariantChain((UniPoly((0, 0, 1)), UniPoly((0, 0, 0, 1))))
    assert rosenbrock_feasible(Partition([3, 2]), chain)
    # single chain of length 5 cannot split into degrees (3, 2)
    chain32 = InvariantChain((UniPoly((0, 0, 1)), UniPoly((0, 0, 0, 1))))
    assert not rosenbrock_feasible(Partition([5]), chain32)


def test_rosenbrock_accepts_spectral_data():
    _, _, sd = worked_example()
    assert rosenbrock_feasible(Partition([3, 2]), sd)
    assert not rosenbrock_feasible(Partition([5]), sd)


def test_rosenbrock_size_mismatch():
    chain = InvariantChain((UniPoly((0, 1)),))
    with pytest.raises(ValueError, match="size mismatch"):
        rosenbrock_feasible(Partition([2]), chain)


def test_rosenbrock_dual_forms_agree_exhaustively():
    # the function itself asserts the two majorization forms agree; sweep
    # every index partition against every degree partition for n <= 8
    for n in range(1, 9):
        for k in partitions_of(n):
            for degs in partitions_of(n):
                polys = [monomial(d) for d in sorted(degs.parts)]
                chain = InvariantChain(tuple(polys))
                rosenbrock_feasible(k, chain)


def test_rosenbrock_worked_example_via_full_chain():
    _, _, sd = worked_example()
    assert rosenbrock_feasible(Partition([3, 2]), invariant_chain(sd))


def test_transform_keeps_the_inverse_of_p(rng):
    F, G, _ = worked_example()
    Fp, Gp = p_brunovsky_pair(Partition([2, 2, 1]), 2)
    pairs = [(F, G), (Fp, Gp)]  # the canonical pair reduces to the identity transform
    while len(pairs) < 5:
        n = rng.randint(8, 10)
        F, G, _ = feasible_instance(rng, n)
        pairs.append((F, G))
    for F, G in pairs:
        bd = to_p_brunovsky(ControlPair(F, G))
        assert bd.P @ bd.Pinv == RatMatrix.identity(F.rows)
    assert bd.Pinv.rows >= 8


def test_psi_inv_does_not_invert(monkeypatch, rng):
    F, G, _ = worked_example()
    bd = to_p_brunovsky(ControlPair(F, G))
    K = rand_matrix(rng, 2, 5, lo=-2, hi=2)
    calls = []
    inverse = RatMatrix.inverse
    monkeypatch.setattr(RatMatrix, "inverse", lambda self: calls.append(self) or inverse(self))
    Kp = bd.psi(K)
    calls.clear()  # psi may invert the small input transform Q
    assert bd.psi_inv(Kp) == K
    assert calls == []


def test_transform_keeps_the_inverse_of_q(rng):
    # dead, permuted and dependent inputs give m > rank G; psi reads Qinv
    # and inverts nothing
    F, G, _ = worked_example()
    pairs = [
        (F, G),
        (F, RatMatrix.hstack([RatMatrix.zeros(5, 1), G.take_cols([1]), G.take_cols([0])])),
        (F, RatMatrix.hstack([G, RatMatrix([[0], [0], [0], [1], [2]])])),
    ]
    while len(pairs) < 8:
        F, G, _ = feasible_instance(rng, rng.randint(4, 9), extra_inputs=len(pairs) % 3)
        pairs.append((F, G))
    for F, G in pairs:
        bd = to_p_brunovsky(ControlPair(F, G))
        assert bd.Q @ bd.Qinv == RatMatrix.identity(G.cols)
        K = rand_matrix(rng, G.cols, F.rows, lo=-2, hi=2)
        inverse, calls = RatMatrix.inverse, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RatMatrix, "inverse", lambda self: calls.append(self) or inverse(self))
            Kp = bd.psi(K)
        assert calls == []
        assert bd.psi_inv(Kp) == K


def test_to_p_brunovsky_inverts_only_p_and_q(rng):
    # the dual rows of the kept columns are solved for, not cut from kept^-1;
    # the transform keeps P = (P^-1)^-1 and Q = (Q^-1)^-1 whole
    F, G, _ = worked_example()
    pairs = [(F, G)] + [feasible_instance(rng, rng.randint(3, 9), extra_inputs=e)[:2] for e in (0, 1, 2)]
    inverse = RatMatrix.inverse
    for F, G in pairs:
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RatMatrix, "inverse", lambda self: calls.append(self) or inverse(self))
            bd = to_p_brunovsky(ControlPair(F, G))
        assert calls == [bd.Pinv, bd.Qinv]


def test_solving_for_the_dual_rows_keeps_the_transform(rng):
    # the transform built through solve equals, field for field and in its
    # hash, the one built from rows of the inverse of the kept columns
    pairs = [feasible_instance(rng, 2 + t % 8, extra_inputs=t % 3)[:2] for t in range(60)]
    solve = RatMatrix.solve
    for F, G in pairs:
        cp = ControlPair(F, G)
        bd = to_p_brunovsky(cp)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RatMatrix, "solve", lambda self, B: B @ self.inverse())
            expected = to_p_brunovsky(cp)
        assert [getattr(bd, f.name) for f in fields(BrunovskyData)] == [
            getattr(expected, f.name) for f in fields(BrunovskyData)
        ]
        assert hash(bd) == hash(expected)
    assert RatMatrix.solve is solve


def test_canonical_pair_needs_an_input_per_chain():
    with pytest.raises(ValueError, match="1 inputs cannot feed 2 chains"):
        p_brunovsky_pair(Partition([2, 1]), 1)


def test_chain_ends_are_the_rows_the_inputs_feed():
    # the unit column of input j meets the last coordinate of chain j, and the
    # pair matches the Weyr block of eigenvalue 0 with the same levels
    for n in range(1, 9):
        for r in partitions_of(n):
            Fp, Gp = weyr_p_brunovsky_pair(r, r.part(1))
            fed = [next(i for i in range(n) if Gp[i, j]) for j in range(Gp.cols)]
            assert chain_ends(r) == fed
            for m in (r.part(1), r.part(1) + 1):
                assert p_brunovsky_pair(r, m) == weyr_p_brunovsky_pair(r, m)


@st.composite
def _pairs(draw):
    """A feedback-group conjugate of a canonical pair, or a random (F, G)
    whose input columns are dependent (m > rank G), controllable or not."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        F, G, _ = feasible_instance(rng, n, extra_inputs=draw(st.integers(0, 2)))
        return F, G
    q = draw(st.integers(1, 2))
    m = q + draw(st.integers(1, 2))
    F = rand_matrix(rng, n, n, lo=-2, hi=2, dens=(1, 1, 2))
    G = rand_matrix(rng, n, q, lo=-2, hi=2, dens=(1, 1, 2)) @ rand_matrix(rng, q, m, lo=-1, hi=1, dens=(1,))
    return F, G


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_pairs())
def test_transform_matches_the_chain_major_construction(pair):
    F, G = pair
    try:
        expect = chain_major_p_brunovsky(ControlPair(F, G))
    except UncontrollableError as e:
        expect = (str(e), e.rank)
    try:
        got = to_p_brunovsky(ControlPair(F, G))
    except UncontrollableError as e:
        got = (str(e), e.rank)
    if isinstance(expect, tuple):
        assert got == expect
        return
    for field in fields(BrunovskyData):
        assert getattr(got, field.name) == getattr(expect, field.name), field.name


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.integers(0, 2**16), st.integers(2, 6), st.integers(0, 1))
def test_feedback_group_invariance(seed, n, extra_inputs):
    # (F', G') = (P^-1 (F P + G R), P^-1 G Q) has the same indices, check
    # verdict and dimensions, and K' = Q^-1 (K P - R) gives the closed loop
    # P^-1 (F + G K) P, so it is in the class exactly when K is
    rng = random.Random(seed)
    F, G, sd = feasible_instance(rng, n, extra_inputs=extra_inputs)
    m = G.cols
    P, Q = rand_invertible(rng, n, -2, 2), rand_invertible(rng, m, -2, 2)
    R = rand_matrix(rng, m, n, lo=-2, hi=2, dens=(1,))
    Pinv, Qinv = P.inverse(), Q.inverse()
    F2, G2 = Pinv @ (F @ P + G @ R), Pinv @ G @ Q
    for target in (sd, rand_spectral(rng, n)):
        assert cmd_check(Problem(F2, G2, target))[0] == cmd_check(Problem(F, G, target))[0]
    chart, chart2 = build_chart(F, G, sd), build_chart(F2, G2, sd)
    assert chart2.dim == chart.dim
    for _ in range(20):
        x = [rng.randint(-2, 2) for _ in range(chart.dim)]
        try:
            K = synthesize(chart, x).K
            break
        except ChartDomainError:
            continue
    else:
        pytest.fail("no coordinates in the chart domain")
    for gain, inside in ((K, True), (K + G.transpose(), False)):
        moved = Qinv @ (gain @ P - R)
        assert (invariant_polynomials(F + G @ gain) == chart.chain) is inside
        assert (invariant_polynomials(F2 + G2 @ moved) == chart.chain) is inside
