"""Sequences and their signed sums."""

import random

import pytest

from pmzs import DomainError, Sequence, make_group
from helpers import brute_signed_sums, concat, element_sum, small_group_list


def seq_of_powers(group, *pairs):
    return Sequence.from_items(group, [(group.element_at(i), m) for i, m in pairs])


def signed_sums(seq):
    """The signed sums of a sequence, read off the plus-minus zero-sum test:
    x is a signed sum of S iff S * x has a signed zero sum (the signed sums
    of S are closed under negation)."""
    group = seq.group
    return {x for x in group.elements() if concat(seq, Sequence.of(group, x)).is_pm_zero_sum()}


def plain_sum(seq):
    """The sum of a sequence with every weight +1."""
    return element_sum(seq.group, [(mult, g) for g, mult in seq.items()])


def test_signed_sums_examples():
    g5 = make_group([5])
    e = g5.element(1)
    assert {x.coords[0] for x in signed_sums(Sequence.of(g5, e))} == {1, 4}
    assert {x.coords[0] for x in signed_sums(Sequence.of(g5, e, e))} == {0, 2, 3}
    g8 = make_group([8])
    s = Sequence.of(g8, g8.element(1), g8.element(3))
    assert {x.coords[0] for x in signed_sums(s)} == {2, 4, 6}
    assert {x.coords for x in signed_sums(Sequence.empty(g8))} == {(0,)}


def test_pm_zero_sum_examples():
    g8 = make_group([8])
    e, e3 = g8.element(1), g8.element(3)
    assert Sequence.of(g8, e, e).is_pm_zero_sum()
    assert not Sequence.of(g8, e).is_pm_zero_sum()
    assert not Sequence.of(g8, e, e3).is_pm_zero_sum()
    assert Sequence.of(g8, e, e, e, e3).is_pm_zero_sum()
    assert Sequence.empty(g8).is_pm_zero_sum()


def test_signed_sums_match_brute_force():
    rng = random.Random(7)
    for group in small_group_list(9):
        for _ in range(8):
            terms = [group.element_at(rng.randrange(group.order)) for _ in range(rng.randrange(6))]
            seq = Sequence.of(group, *terms)
            assert {x.coords for x in signed_sums(seq)} == brute_signed_sums(seq), str(seq)


def test_signed_sums_invariants():
    rng = random.Random(11)
    for group in small_group_list(8):
        for _ in range(6):
            terms = [group.element_at(rng.randrange(1, group.order)) for _ in range(rng.randrange(5))]
            s = Sequence.of(group, *terms)
            t = Sequence.of(group, *[group.element_at(rng.randrange(1, group.order)) for _ in range(2)])
            sums = signed_sums(s)
            assert {element_sum(group, [(-1, x)]) for x in sums} == sums
            assert plain_sum(s) in sums
            # concatenation gives the sumset
            combined = {element_sum(group, [(1, a), (1, b)]).coords for a in sums for b in signed_sums(t)}
            assert {x.coords for x in signed_sums(concat(s, t))} == combined
            if plain_sum(s).is_zero:
                assert s.is_pm_zero_sum()


def test_single_support_progression():
    g7 = make_group([7])
    e = g7.element(1)
    for length in range(6):
        seq = Sequence.from_items(g7, [(e, length)]) if length else Sequence.empty(g7)
        expected = {((length - 2 * k) % 7,) for k in range(length + 1)}
        assert {x.coords for x in signed_sums(seq)} == expected


def test_multiset_operations():
    g8 = make_group([8])
    e, e3 = g8.element(1), g8.element(3)
    whole = Sequence.from_items(g8, [(e, 3), (e3, 1)])
    assert len(Sequence.from_items(g8, [(e, 2), (e3, 3)])) == 5
    assert whole.support == (e, e3)
    with pytest.raises(DomainError):
        Sequence.from_items(g8, [(e, -1)])


def test_classical_zero_sum_is_pm_zero_sum():
    rng = random.Random(3)
    for group in small_group_list(9):
        for _ in range(20):
            terms = [group.element_at(rng.randrange(group.order)) for _ in range(rng.randrange(1, 6))]
            seq = Sequence.of(group, *terms)
            if plain_sum(seq).is_zero:
                assert seq.is_pm_zero_sum()


def test_sequence_hash_canonical():
    g8 = make_group([8])
    e, e3 = g8.element(1), g8.element(3)
    a = Sequence.of(g8, e, e3, e)
    b = Sequence.from_items(g8, [(e3, 1), (e, 2)])
    assert a == b and hash(a) == hash(b)
