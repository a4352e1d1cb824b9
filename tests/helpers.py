"""Independent brute-force oracles used to cross-check the library paths.

These deliberately avoid the library's set-DP, kernel and memoized
factorization code: translates come from the addition table, signed sums from
explicit sign enumeration and factorization lengths from a naive recursion
over atom vectors.
"""

from __future__ import annotations

import math
from itertools import product

from pmzs import Group, Sequence, abelian_group_types, make_group


def small_group_list(max_order: int) -> list[Group]:
    return [make_group(f) for order in range(2, max_order + 1) for f in abelian_group_types(order)]


def brute_shift_mask(group: Group, mask: int, gi: int) -> int:
    """Translate a bitmask of element indices bit by bit through the addition table."""
    row = group._add_table[gi]
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << row[low.bit_length() - 1]
        mask ^= low
    return out


def brute_signed_sums(seq: Sequence) -> set[tuple[int, ...]]:
    """All plus-minus weighted sums by explicit enumeration of sign patterns."""
    terms = list(seq.terms())
    group = seq.group
    sums = set()
    for signs in product((1, -1), repeat=len(terms)):
        total = group.zero()
        for eps, g in zip(signs, terms):
            total = total + eps * g
        sums.add(total.coords)
    return sums


def brute_is_pm_zero_sum(seq: Sequence) -> bool:
    return (0,) * seq.group.rank in brute_signed_sums(seq)


def brute_is_atom(seq: Sequence) -> bool:
    """Irreducibility by enumerating every proper nonempty subsequence."""
    if len(seq) == 0 or not brute_is_pm_zero_sum(seq):
        return False
    if len(seq) == 1:
        return seq.support[0].is_zero
    entries = seq.entries
    ranges = [range(m + 1) for _, m in entries]
    for combo in product(*ranges):
        taken = sum(combo)
        if taken == 0 or taken == len(seq):
            continue
        part = Sequence(seq.group, tuple((idx, c) for (idx, _), c in zip(entries, combo) if c))
        if brute_is_pm_zero_sum(part) and brute_is_pm_zero_sum(seq.remove(part)):
            return False
    return True


def _lengths_recursion(atom_vectors: tuple[tuple[int, ...], ...], memo: dict):
    def rec(residual: tuple[int, ...]) -> set[int]:
        if not any(residual):
            return {0}
        cached = memo.get(residual)
        if cached is not None:
            return cached
        out = set()
        for atom in atom_vectors:
            if all(a >= b for a, b in zip(residual, atom)):
                rest = tuple(a - b for a, b in zip(residual, atom))
                out.update(l + 1 for l in rec(rest))
        memo[residual] = out
        return out

    return rec


def brute_factorization_lengths(
    vec: tuple[int, ...], atom_vectors: tuple[tuple[int, ...], ...], memo: dict | None = None
) -> set[int]:
    """All factorization lengths of an exponent vector over the given atoms.

    Pass the same ``memo`` to queries over the same atoms to share residuals.
    """
    return set(_lengths_recursion(atom_vectors, {} if memo is None else memo)(tuple(vec)))


def gcd_of_length_differences_up_to_3(atom_vectors: tuple[tuple[int, ...], ...]) -> int | None:
    """gcd of all length differences over products of at most 3 atoms.

    None when no product of at most 3 atoms has two different factorization
    lengths.  The residual memo is shared across products; the recursion
    depends only on the residual vector, so sharing is sound.
    """
    from itertools import combinations_with_replacement

    n = len(atom_vectors)
    width = len(atom_vectors[0]) if atom_vectors else 0
    rec = _lengths_recursion(atom_vectors, {})
    g = 0
    for count in (2, 3):
        for combo in combinations_with_replacement(range(n), count):
            total = [0] * width
            for k in combo:
                for i in range(width):
                    total[i] += atom_vectors[k][i]
            lengths = sorted(rec(tuple(total)))
            for a, b in zip(lengths, lengths[1:]):
                g = math.gcd(g, b - a)
    return g if g else None
