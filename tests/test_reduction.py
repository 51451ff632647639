import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gainchart import (
    NotInChartError,
    Partition,
    RatMatrix,
    SpectralData,
    assemble,
    find_multi_index,
    is_admissible,
    reduce,
    weyr_from_spectral,
    weyr_union,
)
from gainchart.observability import member_cells
from gainchart.reduction import reduce_block_cells

from conftest import (
    dominating_partition,
    rand_frac,
    rand_spectral,
    random_invertible_centralizer,
    random_member,
    worked_example,
)
from oracles import (
    bareiss_det,
    block_free_param_count,
    elementary_type_i,
    elementary_type_ii,
    orbit_element,
    partitions_of,
    sweep_reduce_block_cells,
)


def _pattern_ok(packed, ws, seq):
    """Entrywise normal-form pattern check on the selected rows."""
    # view the packed rows as cells: (x,) for a real block, (x, y) for a pair
    h = ws.h
    cells = [[tuple(row[h * c : h * c + h]) for c in range(ws.s)] for row in packed.tolists()]
    one = (1,) + (0,) * (h - 1)
    zero = (0,) * h
    m = ws.m
    for i_band in range(1, m + 1):
        rows = seq[ws.tau(i_band - 1) : ws.tau(i_band)]
        for j in range(1, m + 1):
            base = sum(ws.weyr.part(t) for t in range(1, j))
            for k in range(1, m - j + 2):
                c0, c1 = base + ws.tau(k - 1), base + ws.tau(k)
                block = [[cells[i - 1][c] for c in range(c0, c1)] for i in rows]
                if j == 1 and k == i_band:
                    for a, row in enumerate(block):
                        for b, v in enumerate(row):
                            if v != (one if a == b else zero):
                                return False
                elif j == 1 and k > i_band:
                    if any(v != zero for row in block for v in row):
                        return False
                elif j >= 2 and k >= max(i_band - j + 1, 1):
                    if any(v != zero for row in block for v in row):
                        return False
    return True


def test_elementary_matrices_are_centralizer_elements(rng):
    cases = [
        (
            SpectralData(real=[(0, Partition([4, 2, 2, 2, 1, 1]))]),
            [[Fraction(3)]],
            [[Fraction(5), Fraction(1), Fraction(-2)]],
        ),
        (  # a pair block: packed cells 3 + i and 5, i, -2 + 3i
            SpectralData(complex=[(1, 2, Partition([4, 2, 2, 2, 1, 1]))]),
            [[Fraction(3), Fraction(1)]],
            [[Fraction(5), 0, 0, Fraction(1), Fraction(-2), Fraction(3)]],
        ),
    ]
    for sd, T, d in cases:
        A, ws = weyr_from_spectral(sd)
        w = ws[0]
        y1 = w.expand(elementary_type_i(w, 1, T))
        assert A @ y1 == y1 @ A
        assert bareiss_det(y1) != 0
        y2 = w.expand(elementary_type_ii(w, 2, 1, 3, d))
        assert A @ y2 == y2 @ A
        assert bareiss_det(y2) == 1  # unipotent


def test_elementary_type_ii_slot_validation():
    sd = SpectralData(real=[(0, Partition([2, 1]))])
    _, ws = weyr_from_spectral(sd)
    with pytest.raises(ValueError):
        elementary_type_ii(ws[0], 1, 2, 2, [[Fraction(1)]])


def test_already_reduced_is_fixed_point(rng):
    sd = SpectralData(real=[(0, Partition([2, 1]))])
    A, ws = weyr_from_spectral(sd)
    r = Partition([2, 2, 1])
    p1 = RatMatrix([[rand_frac(rng), 1, 0], [1, 0, 0]])
    obs = assemble(A, r, p1)
    seq = (2, 1)
    rf = reduce(obs, ws, (seq,))
    y = orbit_element(obs, rf)
    assert rf.obs.P == obs.P
    assert y == RatMatrix.identity(3)
    assert A @ y == y @ A
    assert y.rank() == y.rows


def test_worked_example_real_block_formula(rng):
    # reduced leading entry is the ratio of the two leading entries
    sd = SpectralData(real=[(0, Partition([2, 1]))])
    A, ws = weyr_from_spectral(sd)
    r = Partition([2, 2, 1])
    for _ in range(5):
        p11, p12, p21, p22, c1, c2 = (rand_frac(rng) for _ in range(6))
        if p21 == 0 or p11 * p22 - p12 * p21 == 0:
            continue
        obs = assemble(A, r, RatMatrix([[p11, p12, c1], [p21, p22, c2]]))
        seq = (2, 1)
        rf = reduce(obs, ws, (seq,))
        y = orbit_element(obs, rf)
        assert rf.obs.P1 == RatMatrix([[p11 / p21, 1, 0], [1, 0, 0]])
        assert rf.params == (p11 / p21,)
        assert obs.P @ y == rf.obs.P
        assert A @ y == y @ A
        assert y.rank() == y.rows


def test_worked_example_complex_block_formula(rng):
    sd = SpectralData(complex=[(0, 1, Partition([1]))])
    A, ws = weyr_from_spectral(sd)
    r = Partition([2, 2, 1])
    for _ in range(5):
        p14, p15, p24, p25 = (rand_frac(rng) for _ in range(4))
        if p14 == 0 and p15 == 0:
            continue
        obs = assemble(A, r, RatMatrix([[p14, p15], [p24, p25]]))
        seq = (1,)
        rf = reduce(obs, ws, (seq,))
        y = orbit_element(obs, rf)
        nrm = p14 * p14 + p15 * p15
        p24_re = (p14 * p24 + p15 * p25) / nrm
        p25_re = (p14 * p25 - p15 * p24) / nrm
        assert rf.obs.P1 == RatMatrix([[1, 0], [p24_re, p25_re]])
        # the transforming element realizes the inverse leading cell
        assert y == RatMatrix([[p14 / nrm, -p15 / nrm], [p15 / nrm, p14 / nrm]])
        assert obs.P @ y == rf.obs.P
        assert A @ y == y @ A
        assert y.rank() == y.rows


def test_complex_block_already_reduced():
    sd = SpectralData(complex=[(0, 1, Partition([1]))])
    A, ws = weyr_from_spectral(sd)
    obs = assemble(A, Partition([2, 2, 1]), RatMatrix([[1, 0], [0, 0]]))
    rf = reduce(obs, ws, ((1,),))
    y = orbit_element(obs, rf)
    assert rf.obs.P1 == RatMatrix([[1, 0], [0, 0]])
    assert y == RatMatrix.identity(2)
    assert A @ y == y @ A
    assert y.rank() == y.rows
    assert rf.params == (Fraction(0), Fraction(0))


def test_worked_example_full_reduction(rng):
    F, G, sd = worked_example()
    A, ws = weyr_from_spectral(sd)
    r = Partition([2, 2, 1])
    obs = random_member(rng, A, r)
    mi = find_multi_index(obs, ws)
    rf = reduce(obs, ws, mi)
    y = orbit_element(obs, rf)
    assert len(rf.params) == 3  # n*r - N = 10 - 7
    assert obs.P @ y == rf.obs.P
    assert A @ y == y @ A
    assert bareiss_det(y) != 0
    assert y.rank() == y.rows


def test_parameter_count_twelve_dimensional_block(rng):
    sd = SpectralData(real=[(2, Partition([4, 2, 2, 2, 1, 1]))])
    A, ws = weyr_from_spectral(sd)
    r = Partition([7, 4, 2, 1])
    assert block_free_param_count(ws[0], 7) == 30  # 7*12 - 54
    obs = random_member(rng, A, r)
    mi = find_multi_index(obs, ws)
    rf = reduce(obs, ws, mi)
    y = orbit_element(obs, rf)
    assert len(rf.params) == 30
    assert obs.P @ y == rf.obs.P
    assert A @ y == y @ A
    assert y.rank() == y.rows


def test_uniqueness_under_centralizer_action(rng):
    for trial in range(12):
        sd = rand_spectral(rng, rng.randint(2, 8))
        A, ws = weyr_from_spectral(sd)
        r = dominating_partition(rng, __import__("gainchart").weyr_union(sd))
        if trial % 3 == 0:
            # rectangular members: more generator rows than the state size
            r = Partition([r.part(1) + 1] + list(r.parts[1:]))
        obs = random_member(rng, A, r)
        mi = find_multi_index(obs, ws)
        y0 = random_invertible_centralizer(rng, ws)
        moved = assemble(A, r, obs.P1 @ y0)
        rf1 = reduce(obs, ws, mi)
        rf2 = reduce(moved, ws, mi)
        y1 = orbit_element(obs, rf1)
        y2 = orbit_element(moved, rf2)
        assert rf1.obs.P == rf2.obs.P
        assert rf1.params == rf2.params
        assert obs.P @ y1 == rf1.obs.P
        assert moved.P @ y2 == rf2.obs.P
        for y in (y1, y2):
            assert A @ y == y @ A
            assert y.rank() == y.rows


def test_reduction_is_idempotent(rng):
    for _ in range(5):
        sd = rand_spectral(rng, rng.randint(2, 6))
        A, ws = weyr_from_spectral(sd)
        r = dominating_partition(rng, __import__("gainchart").weyr_union(sd))
        obs = random_member(rng, A, r)
        mi = find_multi_index(obs, ws)
        rf = reduce(obs, ws, mi)
        again = reduce(rf.obs, ws, mi)
        y = orbit_element(rf.obs, again)
        assert again.obs.P == rf.obs.P
        assert y == RatMatrix.identity(y.rows)
        assert A @ y == y @ A
        assert y.rank() == y.rows


def test_pattern_assertions_hold(rng):
    for _ in range(6):
        sd = rand_spectral(rng, rng.randint(2, 7))
        A, ws = weyr_from_spectral(sd)
        r = dominating_partition(rng, __import__("gainchart").weyr_union(sd))
        obs = random_member(rng, A, r)
        mi = find_multi_index(obs, ws)
        rf = reduce(obs, ws, mi)
        for cells, w, seq in zip(member_cells(rf.obs, ws), ws, mi):
            assert _pattern_ok(cells, w, seq)


def test_free_param_count_matches_dimension_formula(rng):
    for _ in range(6):
        sd = rand_spectral(rng, rng.randint(2, 7))
        A, ws = weyr_from_spectral(sd)
        r = dominating_partition(rng, __import__("gainchart").weyr_union(sd))
        obs = random_member(rng, A, r)
        mi = find_multi_index(obs, ws)
        rf = reduce(obs, ws, mi)
        expect = sum(block_free_param_count(w, r.part(1)) for w in ws)
        assert len(rf.params) == expect


def test_fill_read_round_trip_on_deep_block(rng):
    # filling free coordinates and reading them back is the identity, also
    # when some stages are empty (weyr (6,4,1,1) has tau = 1,1,4,6)
    from gainchart.reduction import fill_block_params, read_block_params

    for segre, nrows, is_complex in [
        (Partition([4, 2, 2, 2, 1, 1]), 7, False),
        (Partition([2]), 2, True),
        (Partition([3, 1]), 4, True),
    ]:
        sd = (
            SpectralData(complex=[(1, 1, segre)])
            if is_complex
            else SpectralData(real=[(0, segre)])
        )
        _, ws = weyr_from_spectral(sd)
        w = ws[0]
        count = block_free_param_count(w, nrows)
        seq = tuple(range(1, w.weyr.part(1) + 1))
        params = [rand_frac(rng) for _ in range(count)]
        cells = fill_block_params(w, seq, nrows, iter(params))
        assert read_block_params(cells, w, seq) == params


def test_filled_pattern_is_reduction_fixpoint(rng):
    # a pattern-filled member reduces to itself: uniqueness at work, in a
    # rectangular (more rows than state size) instance
    sd = SpectralData(real=[(0, Partition([4, 2, 2, 2, 1, 1]))])
    A, ws = weyr_from_spectral(sd)
    r = Partition([7, 4, 2, 1])
    from gainchart.reduction import fill_block_params

    seq = (1, 2, 3, 4, 5, 6)
    count = block_free_param_count(ws[0], 7)
    params = [rand_frac(rng, -2, 2) for _ in range(count)]
    cells = fill_block_params(ws[0], seq, 7, iter(params))
    obs = assemble(A, r, cells)
    rf = reduce(obs, ws, (seq,))
    y = orbit_element(obs, rf)
    assert rf.obs.P == obs.P
    assert y == RatMatrix.identity(12)
    assert A @ y == y @ A
    assert y.rank() == y.rows
    assert list(rf.params) == params


def test_bad_multi_index_raises(rng):
    sd = SpectralData(real=[(0, Partition([2, 1]))])
    A, ws = weyr_from_spectral(sd)
    # leading entry of row one vanishes: the stage-one minor for order (1, 2)
    # is singular
    obs = assemble(A, Partition([2, 2, 1]), RatMatrix([[0, 1, 5], [3, 7, 2]]))
    with pytest.raises(NotInChartError):
        reduce(obs, ws, ((1, 2),))


@pytest.mark.parametrize("is_complex", [False, True])
def test_free_slots_and_centralizer_band_tile_the_top_block(is_complex):
    # every top-block cell is either free in the normal form or lies on the
    # stage rows of exactly one centralizer slot, never both
    from collections import Counter

    from gainchart.reduction import block_free_slots, fill_block_params, read_block_params

    from oracles import centralizer_slots, partitions_of

    for total in range(1, 7):
        for segre in partitions_of(total):
            sd = (
                SpectralData(complex=[(1, 1, segre)])
                if is_complex
                else SpectralData(real=[(0, segre)])
            )
            _, (w,) = weyr_from_spectral(sd)
            seq = tuple(range(1, w.weyr.part(1) + 1))
            for nrows in (w.weyr.part(1), w.weyr.part(1) + 2):
                hits = Counter()
                for _, rows, c0, c1 in block_free_slots(w, seq, nrows):
                    hits.update((i, c) for i in rows for c in range(c0, c1))
                for j, i, k, _, width in centralizer_slots(w):
                    c0 = sum(w.weyr.part(t) for t in range(1, j)) + w.tau(k - 1)
                    rows = seq[w.tau(i - 1) : w.tau(i)]
                    hits.update((r, c) for r in rows for c in range(c0, c0 + width))
                every = Counter((i, c) for i in range(1, nrows + 1) for c in range(w.s))
                assert hits == every, (segre, is_complex, nrows)

                count = block_free_param_count(w, nrows)
                params = [Fraction(t) for t in range(1, count + 1)]
                values = iter(params)
                cells = fill_block_params(w, seq, nrows, values)
                assert next(values, None) is None
                assert read_block_params(cells, w, seq) == params


def test_the_free_slot_memo_is_keyed_by_shape():
    # three blocks of one Segre partition, two real with different eigenvalues
    # and a pair, share one memo entry; the memoized slots still fill and read back
    from gainchart import reduction
    from gainchart.reduction import block_free_slots, fill_block_params, read_block_params

    from oracles import block_free_param_count

    sd = SpectralData(real=[(Fraction(1, 3), [2, 1]), (-5, [2, 1])], complex=[(1, 2, [2, 1])])
    _, structures = weyr_from_spectral(sd)
    seq, nrows = (3, 1), 4
    reduction._free_slots.cache_clear()
    first, *rest = (block_free_slots(ws, seq, nrows) for ws in structures)
    info = reduction._free_slots.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 2)
    assert all(slots is first for slots in rest)
    for ws in structures:
        params = [Fraction(t, 7) for t in range(1, block_free_param_count(ws, nrows) + 1)]
        values = iter(params)
        cells = fill_block_params(ws, seq, nrows, values)
        assert next(values, None) is None
        assert read_block_params(cells, ws, seq) == params


def test_reduce_takes_row_index_lists(rng):
    # a multi-index given as plain row-index lists, as build_chart accepts it
    F, G, sd = worked_example()
    A, ws = weyr_from_spectral(sd)
    r = Partition([2, 2, 1])
    for _ in range(4):
        obs = random_member(rng, A, r)
        mi = find_multi_index(obs, ws)
        lists = [list(seq) for seq in mi]
        assert reduce(obs, ws, lists) == reduce(obs, ws, mi)
    obs = assemble(A, r, RatMatrix([[1, 0, 0, 1, 0], [0, 1, 0, 0, 1]]))
    rf = reduce(obs, ws, [[1, 2], [1]])
    assert rf == reduce(obs, ws, ((1, 2), (1,)))
    assert rf.mi == ((1, 2), (1,))


@pytest.mark.parametrize(
    "sd",
    [
        SpectralData(real=[(2, Partition([4, 2, 2, 2, 1, 1]))]),  # Weyr (6, 4, 1, 1)
        SpectralData(complex=[(1, 2, Partition([3, 3, 1]))]),  # Weyr (3, 2, 2)
    ],
)
def test_reduce_solves_each_distinct_stage_once_for_its_kept_rows(rng, sd, monkeypatch):
    # an empty stage reuses the minor before it; a pair keeps one real row per cell
    A, structures = weyr_from_spectral(sd)
    (ws,) = structures
    levels = weyr_union(sd).parts
    obs = random_member(rng, A, Partition((levels[0] + 1, *levels[1:])))
    mi = find_multi_index(obs, structures)
    calls = []
    inverse, solve = RatMatrix.inverse, RatMatrix.solve
    monkeypatch.setattr(RatMatrix, "inverse", lambda self: calls.append("inverse") or inverse(self))
    monkeypatch.setattr(
        RatMatrix, "solve", lambda self, B: calls.append((self.rows, B.rows)) or solve(self, B)
    )
    reduce(obs, structures, mi)
    stages = sorted({ws.tau(i) for i in range(1, ws.m + 1)})
    assert len(stages) < ws.m
    assert calls == [(ws.h * t, t) for t in stages]


# deep blocks have empty stages and m up to 4; the rest are drawn by size
DEEP_SEGRE = [Partition([4, 2, 2, 2, 1, 1]), Partition([3, 3, 1]), Partition([2, 2, 1, 1])]
ENTRIES = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]


@st.composite
def _block_cases(draw):
    """(P1, ws, seq): a real or pair block, a top block and a valid-shape sequence."""
    is_complex = draw(st.booleans())
    sizes = st.integers(1, 3 if is_complex else 6)
    segre = draw(
        st.one_of(
            st.sampled_from(DEEP_SEGRE),
            sizes.flatmap(lambda n: st.sampled_from(list(partitions_of(n)))),
        )
    )
    sd = SpectralData(complex=[(1, 2, segre)]) if is_complex else SpectralData(real=[(3, segre)])
    A, (ws,) = weyr_from_spectral(sd)
    levels = weyr_union(sd).parts
    nrows = levels[0] + draw(st.integers(0, 2))
    if draw(st.booleans()):
        # a member: full column rank, in or out of the chart of the drawn sequence
        r = Partition((nrows, *levels[1:]))
        P1 = random_member(random.Random(draw(st.integers(0, 2**16))), A, r, -1, 1).P1
    else:
        P1 = RatMatrix(
            [[draw(st.sampled_from(ENTRIES)) for _ in range(ws.real_cols)] for _ in range(nrows)]
        )
    rows = draw(st.permutations(range(1, nrows + 1)))[: ws.weyr.part(1)]
    order = []
    for stage in range(1, ws.m + 1):
        order += sorted(rows[ws.tau(stage - 1) : ws.tau(stage)])
    return P1, ws, tuple(order)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(_block_cases())
def test_back_substitution_matches_the_elementary_factor_sweep(case):
    P1, ws, seq = case
    try:
        expect = sweep_reduce_block_cells(P1, ws, seq)
    except NotInChartError as e:
        expect = str(e)
    try:
        got = reduce_block_cells(P1, ws, seq)
    except NotInChartError as e:
        got = str(e)
    assert got == expect
    assert isinstance(got, str) == (not is_admissible(P1, ws, seq))
