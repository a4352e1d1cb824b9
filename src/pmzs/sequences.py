"""Sequences (finite multisets) over a finite abelian group, and their signed sums.

A sequence is hash-canonical: it stores (element index, multiplicity) pairs
sorted by index, so equal multisets compare and hash equal and can serve as
cache keys.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import DomainError
from .groups import Group, GroupElement, _Record, signed_shift_mask


class Sequence(_Record):
    """A finite multiset of group elements (repetition allowed, order ignored)."""

    __slots__ = _fields = ("group", "entries")

    def __init__(self, group: Group, entries: tuple[tuple[int, int], ...]):
        seen = set()
        for idx, mult in entries:
            if not 0 <= idx < group.order:
                raise DomainError(f"element index {idx} out of range for {group}")
            if mult < 1:
                raise DomainError("multiplicities must be strictly positive")
            if idx in seen:
                raise DomainError("duplicate support element in sequence entries")
            seen.add(idx)
        self.group = group
        self.entries = tuple(sorted(entries))

    # -- construction ----------------------------------------------------------

    @classmethod
    def empty(cls, group: Group) -> "Sequence":
        return cls(group, ())

    @classmethod
    def of(cls, group: Group, *elements: GroupElement) -> "Sequence":
        counts: dict[int, int] = {}
        for g in elements:
            if g.group != group:
                raise DomainError("sequence terms must belong to the given group")
            counts[g.index] = counts.get(g.index, 0) + 1
        return cls(group, tuple(counts.items()))

    @classmethod
    def from_items(cls, group: Group, items: Iterable[tuple[GroupElement, int]]) -> "Sequence":
        counts: dict[int, int] = {}
        for g, mult in items:
            if g.group != group:
                raise DomainError("sequence terms must belong to the given group")
            if mult < 0:
                raise DomainError("multiplicities must be non-negative")
            if mult:
                counts[g.index] = counts.get(g.index, 0) + mult
        return cls(group, tuple(counts.items()))

    # -- basic multiset structure ----------------------------------------------

    def __len__(self) -> int:
        """Total length |S|, counting multiplicity."""
        return sum(mult for _, mult in self.entries)

    @property
    def support(self) -> tuple[GroupElement, ...]:
        return tuple(self.group.element_at(idx) for idx, _ in self.entries)

    def items(self) -> Iterator[tuple[GroupElement, int]]:
        for idx, mult in self.entries:
            yield self.group.element_at(idx), mult

    def power(self, k: int) -> "Sequence":
        if k < 0:
            raise DomainError("sequence powers must be non-negative")
        if k == 0:
            return Sequence.empty(self.group)
        return Sequence(self.group, tuple((idx, mult * k) for idx, mult in self.entries))

    # -- sums ------------------------------------------------------------------

    def is_pm_zero_sum(self) -> bool:
        """True iff some choice of plus-minus weights makes the sequence sum to 0.

        Decided by set dynamic programming on a bitmask of sums: starting
        from {0}, each copy of g maps the running set T to (T + g) | (T - g),
        and the answer is the bit of 0.
        """
        mask = 1
        for idx, mult in self.entries:
            for _ in range(mult):
                mask = signed_shift_mask(self.group, mask, idx)
        return mask & 1 == 1

    def __str__(self) -> str:
        parts = []
        for g, mult in self.items():
            parts.append(str(g) if mult == 1 else f"{g}^{mult}")
        return "[" + ", ".join(parts) + "]"

