"""Integer partitions: conjugation, union and sum.

Parts are stored nonincreasing with trailing zeros stripped, so two paddings
of the same partition compare equal. All operations pad with zeros on demand.
Parts must be integers: a float or Fraction part raises TypeError.
"""

from __future__ import annotations

from operator import index

from .linalg import _cut, _decimal


class Partition:
    __slots__ = ("parts",)

    def __init__(self, parts=()):
        p = [index(x) for x in parts]
        if any(x < 0 for x in p):
            raise ValueError("partition parts must be nonnegative")
        # trailing zeros never break the order; parts of any length print, cut short
        if any(a < b for a, b in zip(p, p[1:])):
            raise ValueError(f"parts must be nonincreasing: [{_cut(', '.join(map(_decimal, p)))}]")
        while p and p[-1] == 0:
            p.pop()
        self.parts = tuple(p)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    def part(self, i: int) -> int:
        """1-based part access; zero beyond the stored length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def total(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        return Partition(
            sum(1 for p in self.parts if p >= i) for i in range(1, self.parts[0] + 1)
        )

    def union(self, other: "Partition") -> "Partition":
        return Partition(sorted(self.parts + other.parts, reverse=True))

    def __add__(self, other: "Partition") -> "Partition":
        n = max(len(self.parts), len(other.parts))
        return Partition(self.part(i) + other.part(i) for i in range(1, n + 1))
