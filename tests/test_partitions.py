from fractions import Fraction

import pytest

from gainchart import Partition

from oracles import majorized_by, partitions_of


def test_conjugate_examples():
    assert Partition([4, 2, 2, 2, 1, 1]).conjugate() == Partition([6, 4, 1, 1])
    assert Partition([5]).conjugate() == Partition([1] * 5)
    assert Partition([3, 2]).conjugate() == Partition([2, 2, 1])


def test_conjugation_is_involution_exhaustively():
    for n in range(0, 9):
        for p in partitions_of(n):
            assert p.conjugate().conjugate() == p


def test_trailing_zeros_ignored():
    assert Partition([3, 2, 0, 0]) == Partition([3, 2])
    assert len(Partition([3, 2, 0])) == 2
    assert Partition([3, 2]).part(5) == 0


def test_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([-1])
    # parts are never truncated: [2.5, 1.9] is not [2, 1]
    with pytest.raises(TypeError):
        Partition([2.5, 1.9])
    with pytest.raises(TypeError):
        Partition([Fraction(2)])


def test_majorization_examples():
    assert majorized_by(Partition([3, 2]), Partition([4, 1]))
    assert majorized_by(Partition([2, 1, 1, 1]), Partition([2, 2, 1]))
    p = Partition([3, 3, 1])
    assert majorized_by(p, p)  # reflexive
    assert not majorized_by(Partition([4, 1]), Partition([3, 2]))
    assert not majorized_by(Partition([2, 1]), Partition([2, 2]))  # totals differ


def test_union_and_sum():
    assert Partition([2, 1]).union(Partition([1])) == Partition([2, 1, 1])
    assert Partition([3, 1]) + Partition([]) == Partition([3, 1])
    assert Partition([3, 1]) + Partition([2, 2, 1]) == Partition([5, 3, 1])


def test_conjugate_of_sum_is_union_of_conjugates():
    # exhaustive over pairs with parts bounded by 5 and small totals
    small = [p for n in range(0, 7) for p in partitions_of(n, max_part=5)]
    for a in small:
        for b in small:
            assert (a + b).conjugate() == a.conjugate().union(b.conjugate())


def test_majorization_duality_exhaustively():
    # a majorized by b iff b* majorized by a*, all pairs of partitions of n <= 10
    for n in range(1, 11):
        parts = list(partitions_of(n))
        for a in parts:
            for b in parts:
                assert majorized_by(a, b) == majorized_by(b.conjugate(), a.conjugate())
