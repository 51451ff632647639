from fractions import Fraction

import pytest

from gainchart import (
    Partition,
    RatMatrix,
    SpectralData,
    assemble,
    diamond,
    find_admissible,
    find_multi_index,
    invariant_chain,
    is_admissible,
    weyr_from_spectral,
)
from gainchart.observability import check_sequence, member_cells

from conftest import (
    rand_matrix,
    rand_spectral,
    random_invertible_centralizer,
    random_member,
    worked_example,
)
from oracles import block_memberships, grid_has_member, monomial, nonempty, partitions_of


def test_assemble_zero_state_matrix(rng):
    d = 3
    p1 = rand_matrix(rng, d, d)
    if p1.rank() < d:
        p1 = RatMatrix.identity(d)
    obs = assemble(RatMatrix.zeros(d, d), Partition([d]), p1)
    assert obs.P == p1


def test_assemble_worked_example_structure(rng):
    _, _, sd = worked_example()
    A, _ = weyr_from_spectral(sd)
    p1 = rand_matrix(rng, 2, 5)
    obs = assemble(A, Partition([2, 2, 1]), p1)
    rows = [obs.P.row(i) for i in range(5)]
    assert rows[0] == p1.row(0)
    assert rows[1] == p1.row(1)
    assert rows[2] == p1.row(0) @ A
    assert rows[3] == p1.row(1) @ A
    assert rows[4] == p1.row(0) @ A @ A
    # the displayed sparsity: columns 1-2 of the generated rows vanish
    for i in (2, 3, 4):
        assert obs.P[i, 0] == 0 and obs.P[i, 1] == 0


def test_assemble_identity_state_always_rank_deficient(rng):
    A = RatMatrix.identity(4)
    for _ in range(10):
        p1 = rand_matrix(rng, 2, 4)
        assert assemble(A, Partition([2, 2]), p1).P.rank() < 4


def test_terminal_rows_are_generator_chain_ends(rng):
    # the last appearance of generator j is p_j A^{k_j - 1}
    for _ in range(5):
        sd = rand_spectral(rng, rng.randint(2, 6))
        A, _ = weyr_from_spectral(sd)
        from conftest import dominating_partition
        from gainchart.canonical import weyr_union

        r = dominating_partition(rng, weyr_union(sd))
        obs = random_member(rng, A, r)
        k = r.conjugate()
        for j in range(1, r.part(1) + 1):
            kj = k.part(j)
            global_row = sum(r.part(i) for i in range(1, kj)) + j - 1
            expect = obs.P1.row(j - 1)
            for _ in range(kj - 1):
                expect = expect @ A
            assert obs.P.row(global_row) == expect


def test_nonempty_examples():
    sd_i4 = SpectralData(real=[(1, Partition([1, 1, 1, 1]))])
    assert not nonempty(invariant_chain(sd_i4), Partition([2, 2]))
    _, _, sd = worked_example()
    assert nonempty(invariant_chain(sd), Partition([2, 2, 1]))
    assert nonempty(sd, Partition([2, 2, 1]))


def test_nonempty_single_level_matches_grid_search(rng):
    # nilpotent single-eigenvalue blocks, r = (d): exhaustive 0/1 top blocks
    for segre_parts, d in [([2, 1], 3), ([3], 3), ([1, 1, 1], 3), ([2, 2], 4)]:
        sd = SpectralData(real=[(0, Partition(segre_parts))])
        A, _ = weyr_from_spectral(sd)
        r = Partition([d])
        assert nonempty(invariant_chain(sd), r) == grid_has_member(A, r)


def test_nonempty_various_r_matches_grid_search():
    sd = SpectralData(real=[(0, Partition([2, 1]))])
    A, _ = weyr_from_spectral(sd)
    for r in (Partition([3]), Partition([2, 1]), Partition([1, 1, 1]), Partition([2, 2])):
        assert nonempty(invariant_chain(sd), r) == grid_has_member(A, r)


def test_nonempty_criteria_never_disagree_wide_sweep():
    # agreement is asserted inside nonempty(); cover degree sequences of
    # totals up to 8 against r-partitions of totals up to 10
    from gainchart.poly import InvariantChain

    for d in range(1, 9):
        for degs in partitions_of(d):
            polys = [monomial(deg) for deg in sorted(degs.parts)]
            chain = InvariantChain(tuple(polys))
            for total in range(d, 11):
                for r in partitions_of(total):
                    nonempty(chain, r)


def test_nonempty_requires_enough_rows():
    sd = SpectralData(real=[(0, Partition([2, 1]))])
    with pytest.raises(ValueError, match="at least"):
        nonempty(invariant_chain(sd), Partition([2]))


def test_find_admissible_worked_example_real_block():
    # leading entry of row one vanishes, so the second row must lead
    sd = SpectralData(real=[(0, Partition([2, 1]))])
    A, ws = weyr_from_spectral(sd)
    p1 = RatMatrix([[0, 1, 5], [3, 7, 2]])
    obs = assemble(A, Partition([2, 2, 1]), p1)
    seq = find_admissible(member_cells(obs, ws)[0], ws[0])
    assert seq == (2, 1)


def test_find_admissible_worked_example_complex_block():
    sd = SpectralData(complex=[(0, 1, Partition([1]))])
    A, ws = weyr_from_spectral(sd)
    p1 = RatMatrix([[2, 3], [1, 1]])
    obs = assemble(A, Partition([2, 2, 1]), p1)
    assert find_admissible(member_cells(obs, ws)[0], ws[0]) == (1,)
    p1 = RatMatrix([[0, 0], [1, 1]])
    obs = assemble(A, Partition([2, 2, 1]), p1)
    assert find_admissible(member_cells(obs, ws)[0], ws[0]) == (2,)


def test_find_admissible_leading_identity(rng):
    sd = SpectralData(real=[(2, Partition([2, 2, 1]))])
    A, ws = weyr_from_spectral(sd)
    w1 = ws[0].weyr.part(1)
    p1 = RatMatrix.vstack(
        [
            RatMatrix.hstack([RatMatrix.identity(w1), RatMatrix.zeros(w1, 5 - w1)]),
            rand_matrix(rng, 1, 5),
        ]
    )
    obs = assemble(A, Partition([w1 + 1, 2]), p1)
    seq = find_admissible(member_cells(obs, ws)[0], ws[0])
    assert seq == tuple(range(1, w1 + 1))


def test_admissibility_is_orbit_invariant(rng):
    for _ in range(6):
        sd = rand_spectral(rng, rng.randint(2, 6))
        A, ws = weyr_from_spectral(sd)
        from conftest import dominating_partition
        from gainchart.canonical import weyr_union

        r = dominating_partition(rng, weyr_union(sd))
        obs = random_member(rng, A, r)
        mi = find_multi_index(obs, ws)
        y = random_invertible_centralizer(rng, ws)
        moved = assemble(A, r, obs.P1 @ y)
        for cells, w, seq in zip(member_cells(moved, ws), ws, mi):
            assert is_admissible(cells, w, seq)


def test_top_block_rank_equals_first_level(rng):
    for _ in range(6):
        sd = rand_spectral(rng, rng.randint(2, 6))
        A, ws = weyr_from_spectral(sd)
        from conftest import dominating_partition
        from gainchart.canonical import weyr_union

        r = dominating_partition(rng, weyr_union(sd))
        obs = random_member(rng, A, r)
        off = 0
        for w in ws:
            w1 = w.weyr.part(1)
            if w.is_complex:
                block = obs.P1.take_cols(range(off, off + 2 * w1))
                assert diamond(block).rank() == 2 * w1
            else:
                block = obs.P1.take_cols(range(off, off + w1))
                assert block.rank() == w1
            off += w.real_cols


def test_block_memberships_vs_global_gate(rng):
    # every factor full rank, yet the assembled square matrix is singular:
    # the worked reduced pattern at coordinates with xy = 1
    F, G, sd = worked_example()
    from gainchart import build_chart, nu
    from gainchart.chart import in_domain

    mi = ((2, 1), (1,))
    ch = build_chart(F, G, sd, multi_index=mi)
    x = [Fraction(2), Fraction(1, 2), Fraction(3)]
    obs = nu(ch, x)
    _, ws = weyr_from_spectral(sd)
    assert block_memberships(obs, ws) == [True, True]
    assert not in_domain(ch, x)
    assert obs.P.rank() < 5


def test_diamond_examples():
    assert diamond(RatMatrix([[1, 0]])) == RatMatrix.identity(2)
    a, b = Fraction(2, 3), Fraction(-5)
    assert diamond(RatMatrix([[a, b]])) == RatMatrix([[a, b], [-b, a]])
    with pytest.raises(ValueError):
        diamond(RatMatrix([[1, 2, 3]]))


def test_diamond_power_stack_rank(rng):
    # stacking iterates under the pair block adds nothing past the first power
    a, b = Fraction(1), Fraction(2)
    B = RatMatrix([[a, b], [-b, a]])
    n = 3
    Bn = RatMatrix.block_diag(B, B, B)
    for _ in range(5):
        z = rand_matrix(rng, 2, 2 * n, lo=-2, hi=2)
        stacks = [z]
        for _ in range(3):
            stacks.append(stacks[-1] @ Bn)
        two = RatMatrix.vstack(stacks[:2]).rank()
        for i in range(3, 5):
            assert RatMatrix.vstack(stacks[:i]).rank() == two


def test_admissible_seq_validation():
    sd = SpectralData(real=[(0, Partition([2, 1]))])
    _, ws = weyr_from_spectral(sd)
    with pytest.raises(ValueError, match="2 entries"):
        check_sequence((1,), ws[0], 3)
    with pytest.raises(ValueError, match="repeated"):
        check_sequence((1, 1), ws[0], 3)
    with pytest.raises(ValueError, match="out of range"):
        check_sequence((1, 9), ws[0], 3)
    # batches must increase within a stage: stage two adds rows (3, 2)
    sd2 = SpectralData(real=[(0, Partition([3, 3]))])  # weyr (2, 2, 2): tau 2,2,2
    _, ws2 = weyr_from_spectral(sd2)
    with pytest.raises(ValueError, match="increasing"):
        check_sequence((2, 1), ws2[0], 3)
