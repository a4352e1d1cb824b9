"""Atomicity, complete atom enumeration, length profiles, monoid Davenport."""

import contextlib
import io
import json
import pickle
import random
from itertools import combinations, product

import pytest

from pmzs import (
    AtomCache,
    AtomSet,
    DEFAULT_LIMITS,
    Group,
    Limits,
    ResourceLimitError,
    Sequence,
    atom_length_profile,
    davenport,
    davenport_monoid,
    delta_star,
    enumerate_atoms,
    fold_negatives,
    format_group,
    make_group,
    min_delta,
    parse_group,
    parse_subset,
)
import pmzs.atoms
import pmzs.relations
from pmzs import cli
from pmzs.atoms import (
    _fnv1a_64,
    _minimal_zero_sum_atom_vectors,
    _span_davenport,
    _split_sums,
    check_atom_caps,
)
from helpers import (
    _enumerate_atom_vectors,
    brute_factorization_lengths,
    brute_is_atom,
    brute_is_pm_zero_sum,
    brute_subgroup_generated,
    mixed_unfolded_grounds,
    run_fresh,
    small_group_list,
)


def is_listed_atom(seq, limits=DEFAULT_LIMITS):
    """Whether the sequence is on the atom list over its own support: one of
    its ``vectors``, or the atom (0), which ``includes_zero`` stands for."""
    atoms = enumerate_atoms(seq.group, seq.support, limits=limits)
    if seq.entries and seq.entries[0][0] == 0:
        return atoms.includes_zero and len(seq) == 1
    return atoms.vector_of(seq) in atoms.vectors


def test_is_atom_examples():
    g8 = make_group([8])
    e, e3 = g8.element(1), g8.element(3)
    assert is_listed_atom(Sequence.of(g8, e, e))
    assert is_listed_atom(Sequence.of(g8, e3, e3))
    assert is_listed_atom(Sequence.of(g8, e, e, e, e3))
    assert not is_listed_atom(Sequence.from_items(g8, [(e, 4)]))
    g5 = make_group([5])
    assert is_listed_atom(Sequence.from_items(g5, [(g5.element(1), 5)]))
    assert not is_listed_atom(Sequence.from_items(g5, [(g5.element(1), 4)]))
    assert not is_listed_atom(Sequence.empty(g5))
    # far longer than Python's recursion limit
    g1001, g1002 = make_group([1001]), make_group([1002])
    limits = Limits(max_atom_length=1002)
    assert is_listed_atom(Sequence.from_items(g1001, [(g1001.element(1), 1001)]), limits)
    assert not is_listed_atom(Sequence.from_items(g1002, [(g1002.element(1), 1002)]), limits)


def test_zero_is_prime_atom():
    g4 = make_group([4])
    zero = g4.element(0)
    assert is_listed_atom(Sequence.of(g4, zero))
    assert not is_listed_atom(Sequence.of(g4, zero, zero))
    assert not is_listed_atom(Sequence.of(g4, zero, g4.element(1), g4.element(1)))
    # (0) is prime: a zero sum holding 0 k times has only lengths shifted by k
    atoms = enumerate_atoms(g4, [zero, g4.element(1)])
    fz = pmzs.relations.Factorizer(atoms)
    assert fz.length_set(Sequence.of(g4, zero)) == (1,)
    assert fz.length_set(Sequence.of(g4, zero, zero)) == (2,)
    assert fz.length_set(Sequence.of(g4, zero, g4.element(1), g4.element(1))) == (2,)


def test_is_atom_matches_brute_force():
    rng = random.Random(5)
    for group in small_group_list(8):
        for _ in range(12):
            terms = [group.element_at(rng.randrange(group.order)) for _ in range(rng.randrange(1, 7))]
            seq = Sequence.of(group, *terms)
            assert is_listed_atom(seq) == brute_is_atom(seq), str(seq)
    # the earlier-atom rule over the sequence's own support, capped at its exponents
    rng = random.Random(7)
    outcomes = {"atom": 0, "reducible zero sum": 0}
    for group in small_group_list(16):
        for _ in range(40):
            terms = [group.element_at(rng.randrange(group.order)) for _ in range(rng.randrange(1, 9))]
            seq = Sequence.of(group, *terms)
            ground = tuple(idx for idx, _ in seq.entries)
            vec = tuple(mult for _, mult in seq.entries)
            expected = vec in _enumerate_atom_vectors(group, ground, len(seq), vec)
            assert is_listed_atom(seq) == expected, str(seq)
            if seq.is_pm_zero_sum():
                outcomes["atom" if expected else "reducible zero sum"] += 1
    assert min(outcomes.values()) >= 80, outcomes


def _span_bound(atoms):
    """D(<S>) of an atom set's folded ground set: the oracles' length bound."""
    return _span_davenport(atoms.group, fold_negatives(atoms.group, [g.index for g in atoms.ground]))


def test_enumerate_atoms_matches_brute_force():
    # C8 is left out: its oracle run alone takes about 5 s
    for group in small_group_list(8):
        if group.invariant_factors == (8,):
            continue
        ground = fold_negatives(group, range(1, group.order))
        atoms = enumerate_atoms(group, [group.element_at(i) for i in ground])
        indices = [g.index for g in atoms.ground]
        bound = _span_bound(atoms)
        expected = sorted(
            (vec for vec in product(range(bound + 1), repeat=len(indices))
             if sum(vec) <= bound
             and brute_is_atom(Sequence(group, tuple((i, m) for i, m in zip(indices, vec) if m)))),
            key=lambda v: (sum(v), v),
        )
        assert list(atoms.vectors) == expected, format_group(group)


def test_split_sums_match_a_count_over_coordinates():
    # m copies of f split as k of f and m - k of -f, k = 0..m, with sum
    # (2k - m) f; when f = -f the split is one choice
    for group in small_group_list(16):
        factors = group.invariant_factors
        for f in range(1, group.order):
            coords = group.element_at(f).coords
            self_inverse = all(2 * c % n == 0 for c, n in zip(coords, factors))
            for m in range(2 * group.element_at(f).order() + 2):
                expected: dict[int, int] = {}
                for k in [m] if self_inverse else range(m + 1):
                    e = group.index_of(tuple((2 * k - m) * c % n for c, n in zip(coords, factors)))
                    expected[e] = expected.get(e, 0) + 1
                assert _split_sums(group, f, m) == expected, (format_group(group), f, m)


def _lifted_and_unpruned(group, ground):
    """The lifted atoms of an atom set over the ground set, and the atoms
    enumerated over the unfolded ground set, no coordinate capped below the bound."""
    atoms = enumerate_atoms(group, [group.element_at(i) for i in ground])
    bound = _span_bound(atoms)
    return atoms.vectors, tuple(_enumerate_atom_vectors(group, ground, bound, (bound,) * len(ground)))


def test_lifted_atoms_match_unpruned_enumeration_on_nonzero_sets():
    for group in small_group_list(10):
        lifted, expected = _lifted_and_unpruned(group, tuple(range(1, group.order)))
        assert lifted == expected, format_group(group)


def test_lifted_atoms_match_unpruned_enumeration_on_mixed_subsets():
    # merged pairs {g, -g}, lone negatives -g (the larger index of the two) and
    # order-2 elements, each present in many of the ground sets
    kinds = {"pair": 0, "lone": 0, "order 2": 0}
    for group, ground in mixed_unfolded_grounds(16, per_group=3, seed=41):
        neg = group._neg
        kinds["pair"] += any(neg[i] > i and neg[i] in ground for i in ground)
        kinds["lone"] += any(neg[i] < i and neg[i] not in ground for i in ground)
        kinds["order 2"] += any(neg[i] == i for i in ground)
        lifted, expected = _lifted_and_unpruned(group, ground)
        assert lifted == expected, (format_group(group), ground)
    assert min(kinds.values()) >= 20, kinds


def _earlier_atom_rule(group, folded):
    """The atoms over a folded ground set by the earlier-atom rule, each
    coordinate capped at min(D(<S>), ord g), as the test oracle."""
    bound = _span_davenport(group, folded)
    caps = tuple(min(bound, group.element_at(gi).order()) for gi in folded)
    return _enumerate_atom_vectors(group, folded, bound, caps)


def test_minimal_zero_sum_atoms_match_earlier_atom_rule_on_every_folded_subset():
    checked = 0
    for group in small_group_list(12):
        universe = fold_negatives(group, range(1, group.order))
        for size in range(1, len(universe) + 1):
            for subset in combinations(universe, size):
                assert _minimal_zero_sum_atom_vectors(group, subset) == _earlier_atom_rule(group, subset), (
                    format_group(group), subset)
                checked += 1
    assert checked == 484, checked


@pytest.mark.parametrize("group", [g for g in small_group_list(17) if g.order >= 13], ids=str)
def test_minimal_zero_sum_atoms_match_earlier_atom_rule_on_whole_sets(group):
    universe = fold_negatives(group, range(1, group.order))
    assert _minimal_zero_sum_atom_vectors(group, universe) == _earlier_atom_rule(group, universe)


BENCHMARK_CAPS = ("--jobs", "1", "--max-order", "16", "--max-support", "8", "--max-atom-len", "20", "--rho-cap", "3")


def _evaluated_rows(monkeypatch, argv):
    """The (group, folded ground set) pairs whose atoms a CLI run asks for."""
    rows = []
    memo = pmzs.atoms._folded_atom_vectors

    def recording(group, folded):
        rows.append((group, folded))
        return memo(group, folded)

    with monkeypatch.context() as patch:
        patch.setattr(pmzs.atoms, "_folded_atom_vectors", recording)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(list(argv))
    return list(dict.fromkeys(rows))


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "all-small") + BENCHMARK_CAPS,
        ("delta-star", "C4xC4") + BENCHMARK_CAPS,
        ("delta-star", "C12") + BENCHMARK_CAPS,
        ("delta-star", "C13") + BENCHMARK_CAPS,
        ("delta-star", "C64", "--max-atom-len", "64"),
        ("delta-star", "C8xC8", "--max-atom-len", "64"),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_minimal_zero_sum_atoms_match_earlier_atom_rule_on_evaluated_rows(monkeypatch, argv):
    rows = _evaluated_rows(monkeypatch, argv)
    assert rows
    for group, folded in rows:
        assert _minimal_zero_sum_atom_vectors(group, folded) == _earlier_atom_rule(group, folded), (
            format_group(group), folded)


def test_atom_enumeration_runs_only_the_minimal_zero_sum_search(monkeypatch):
    # the earlier-atom rule and the kernel basis are test oracles only
    assert not hasattr(pmzs.atoms, "_enumerate_atom_vectors")
    assert not hasattr(pmzs.relations, "integer_kernel_basis")
    searched = []
    search = pmzs.atoms._minimal_zero_sum_atom_vectors

    def counting(group, folded):
        searched.append((group, folded))
        return search(group, folded)

    pmzs.atoms._folded_atom_vectors.cache_clear()
    monkeypatch.setattr(pmzs.atoms, "_minimal_zero_sum_atom_vectors", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["verify", "all-small", *BENCHMARK_CAPS])
    assert len(set(searched)) == 178  # every folded ground set of the run


def test_minimal_zero_sum_search_builds_no_addition_table(monkeypatch):
    monkeypatch.setattr(Group, "_add_table", lambda self: pytest.fail(f"built the addition table of {self}"))
    group = Group((64,))  # a fresh instance, so its tables are the ones this search builds
    folded = (1, 3, 5, 7)
    check_atom_caps(group, folded, Limits(max_atom_length=64))
    assert _span_davenport(group, folded) == 64
    assert _minimal_zero_sum_atom_vectors(group, folded)
    assert "_shift_steps" in vars(group)


def test_enumerate_atoms_single_generator_c5():
    g5 = make_group([5])
    atoms = enumerate_atoms(g5, [g5.element(1)])
    assert sorted(atoms.lengths()) == [2, 5]
    assert set(map(atoms.sequence, range(len(atoms)))) == {
        Sequence.from_items(g5, [(g5.element(1), 2)]),
        Sequence.from_items(g5, [(g5.element(1), 5)]),
    }


def test_enumerate_atoms_c8_pair():
    g8 = make_group([8])
    atoms = enumerate_atoms(g8, parse_subset(g8, "[(1),(3)]"))
    expected = {
        Sequence.from_items(g8, [(g8.element(1), 2)]),
        Sequence.from_items(g8, [(g8.element(3), 2)]),
        Sequence.from_items(g8, [(g8.element(1), 3), (g8.element(3), 1)]),
        Sequence.from_items(g8, [(g8.element(1), 1), (g8.element(3), 3)]),
    }
    assert set(map(atoms.sequence, range(len(atoms)))) == expected


def test_enumerate_atoms_even_construction_c4x4():
    g = make_group([4, 4])
    e0, e1, e2 = g.element(2, 2), g.element(1, 0), g.element(0, 1)
    atoms = enumerate_atoms(g, [e0, e1, e2])
    expected = {
        Sequence.from_items(g, [(e0, 2)]),
        Sequence.from_items(g, [(e1, 2)]),
        Sequence.from_items(g, [(e2, 2)]),
        Sequence.from_items(g, [(e0, 1), (e1, 2), (e2, 2)]),
    }
    assert set(map(atoms.sequence, range(len(atoms)))) == expected


def test_zero_stripped_and_flagged():
    g5 = make_group([5])
    atoms = enumerate_atoms(g5, [g5.element(0), g5.element(1)])
    assert atoms.includes_zero
    assert all(not g.is_zero for g in atoms.ground)
    assert sorted(atoms.lengths()) == [2, 5]
    for spec, literal in [("C8", "[(1),(3)]"), ("C2xC4", "[(1,0),(0,1),(1,2)]"), ("C9", "[(1),(3)]")]:
        group = parse_group(spec)
        subset = parse_subset(group, literal)
        without = enumerate_atoms(group, subset)
        with_zero = enumerate_atoms(group, [group.element_at(0), *subset])
        assert not without.includes_zero
        assert with_zero == AtomSet(without.group, without.ground, without.folded, True), spec


def test_packed_fields_hold_the_bound():
    # {e} in C_n has the bound n and e^n is a zero sum, so a field must hold n
    # itself; the field width grows at n = 4, 8, 16 and 32
    limits = Limits(max_atom_length=40)
    for n in range(2, 34):
        g = make_group([n])
        atoms = enumerate_atoms(g, [g.element(1)], limits=limits)
        assert _span_bound(atoms) == n
        assert atoms.vectors == (((2,),) if n % 2 == 0 else ((2,), (n,))), n


def test_atom_length_profile_goldens():
    g5 = make_group([5])
    prof = atom_length_profile(enumerate_atoms(g5, [g5.element(1)]))
    assert prof.max_length == 5 and prof.gcd_lengths_minus_2 == 3

    g17 = make_group([17])
    prof = atom_length_profile(enumerate_atoms(g17, parse_subset(g17, "[(1),(4)]")))
    assert prof.gcd_lengths_minus_2 == 3

    g16 = make_group([2, 2, 2, 2])
    coset = [g16.element(1, a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    prof = atom_length_profile(enumerate_atoms(g16, coset))
    assert prof.gcd_lengths_minus_2 == 2


def test_profile_degenerate_cases():
    g5 = make_group([5])
    only_zero = enumerate_atoms(g5, [g5.element(0)])
    prof = atom_length_profile(only_zero)
    assert prof.max_length == 1 and prof.gcd_lengths_minus_2 == 0
    empty = enumerate_atoms(g5, [])
    prof = atom_length_profile(empty)
    assert prof.max_length == 0 and prof.gcd_lengths_minus_2 == 0


def test_atom_lengths_within_davenport_bound():
    for group in small_group_list(9):
        nonzero = [group.element_at(i) for i in range(1, group.order)]
        atoms = enumerate_atoms(group, nonzero)
        bound = davenport(group)
        assert all(length <= bound for length in atoms.lengths())


def test_completeness_every_pm_zero_sum_factors():
    # every signed zero-sum sequence within the bound factors into listed atoms
    for spec, subset_literal in [("C5", "[(1),(2)]"), ("C8", "[(1),(3)]"), ("C2xC4", "[(1,0),(0,1),(1,2)]")]:
        group = parse_group(spec)
        subset = parse_subset(group, subset_literal)
        atoms = enumerate_atoms(group, subset)
        vectors = atoms.vectors
        indices = [g.index for g in atoms.ground]
        bound = _span_bound(atoms)
        for combo in product(*[range(bound + 1) for _ in indices]):
            if not 2 <= sum(combo) <= bound:
                continue
            seq = Sequence(group, tuple((i, m) for i, m in zip(indices, combo) if m))
            if brute_is_pm_zero_sum(seq):
                lengths = brute_factorization_lengths(combo, vectors)
                assert lengths, f"{seq} over {spec} does not factor"


def test_no_atom_divides_another():
    for spec, subset_literal in [("C8", "[(1),(3)]"), ("C17", "[(1),(4)]"), ("C9", "[(1),(3)]")]:
        group = parse_group(spec)
        atoms = enumerate_atoms(group, parse_subset(group, subset_literal))
        indices = [g.index for g in atoms.ground]
        # a divides b iff a <= b and b - a is a signed zero sum (a is one)
        for a in atoms.vectors:
            for b in atoms.vectors:
                if a != b and all(x <= y for x, y in zip(a, b)):
                    rest = Sequence(group, tuple((i, y - x) for i, x, y in zip(indices, a, b) if y > x))
                    assert not brute_is_pm_zero_sum(rest), f"{a} divides {b}"


def test_single_generator_laws():
    for group in small_group_list(12):
        for i in range(1, group.order):
            g = group.element_at(i)
            atoms = enumerate_atoms(group, [g])
            d = g.order()
            if d % 2 == 1:
                assert sorted(atoms.lengths()) == [2, d]
            else:
                assert sorted(atoms.lengths()) == [2]


def test_davenport_monoid_values():
    for spec, expected in [("C5", 5), ("C8", 5), ("C2xC4", 4), ("C6", 4), ("C10", 6)]:
        group = parse_group(spec)
        nonzero = [group.element_at(i) for i in range(1, group.order)]
        assert davenport_monoid(group, nonzero) == expected, spec


def test_davenport_monoid_is_the_longest_lifted_atom():
    # davenport_monoid reads the folded atoms; the oracle is the lifted list
    checked = 0
    for group, ground in mixed_unfolded_grounds(16, per_group=2, seed=53):
        subset = [group.element_at(i) for i in ground]
        atoms = enumerate_atoms(group, subset)
        if atoms.source == tuple(range(len(ground))) or len(atoms) > 150:
            continue
        assert davenport_monoid(group, subset) == max(atoms.lengths()), (format_group(group), ground)
        checked += 1
    assert checked >= 30, checked


def test_resource_caps():
    g = make_group([3, 3, 3])  # 26 nonzero elements
    nonzero = [g.element_at(i) for i in range(1, g.order)]
    with pytest.raises(ResourceLimitError):
        enumerate_atoms(g, nonzero)
    g31 = make_group([31])
    with pytest.raises(ResourceLimitError):
        enumerate_atoms(g31, [g31.element(1)])  # bound 31 > default 20


def test_atom_length_bound_caps_hold_on_every_call():
    # D(<S>) is computed once per ground set, but the caps are checked on every
    # call, and a refused Davenport search is refused again
    big = parse_group("C2xC2xC10")
    generators = tuple(sorted(big.element(c).index for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    for _ in range(2):
        with pytest.raises(ResourceLimitError, match="Davenport search capped at order 24"):
            check_atom_caps(big, generators)
    g = parse_group("C2xC2xC6")
    ground = tuple(sorted(g.element(c).index for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    bound = _span_davenport(g, ground)
    assert bound == davenport(g) == 8
    atoms = enumerate_atoms(g, [g.element_at(i) for i in ground])
    element = Sequence.from_items(g, [(g.element_at(ground[0]), 8 * bound + 2)])
    with pytest.raises(ResourceLimitError, match=f"factorization query capped at length {8 * bound}, got {8 * bound + 2}"):
        pmzs.relations.Factorizer(atoms).length_set(element)
    for _ in range(2):
        check_atom_caps(g, ground, Limits(max_atom_length=bound))
    with pytest.raises(ResourceLimitError, match="support elements"):
        check_atom_caps(g, ground, Limits(max_support=2))
    with pytest.raises(ResourceLimitError, match="exceeds the cap"):
        check_atom_caps(g, ground, Limits(max_atom_length=bound - 1))


def _refusal_by_the_span_davenport_constant(group, folded, limits):
    """The message of the cap rule that computes D(<S>) on every call, from
    the subgroup type that a breadth-first search over the addition table
    finds, or None."""
    if len(folded) > limits.max_support:
        return f"atom enumeration capped at {limits.max_support} support elements, got {len(folded)}"
    try:
        bound = davenport(make_group(brute_subgroup_generated(group, list(folded))[1]))
    except ResourceLimitError as exc:
        return str(exc)
    if bound > limits.max_atom_length:
        return f"atom length bound {bound} exceeds the cap {limits.max_atom_length} for {format_group(group)}"
    return None


def _cap_rule_instances():
    for group in small_group_list(12):
        universe = fold_negatives(group, range(1, group.order))
        for size in range(1, len(universe) + 1):
            yield from ((group, subset) for subset in combinations(universe, size))
    for spec in ("C2xC2xC6", "C2xC2xC10", "C64"):
        group = parse_group(spec)
        rank = len(group.invariant_factors)
        units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        yield group, fold_negatives(group, [group.element(*unit).index for unit in units])


def test_atom_caps_refuse_exactly_where_the_span_davenport_constant_does():
    outcomes = {"admitted": 0, "support": 0, "length": 0, "Davenport search": 0}
    for group, folded in _cap_rule_instances():
        for max_atom_length, max_support in product((3, 6, 20, 64), (2, 8)):
            limits = Limits(max_atom_length=max_atom_length, max_support=max_support)
            expected = _refusal_by_the_span_davenport_constant(group, folded, limits)
            try:
                check_atom_caps(group, folded, limits)
                got = None
            except ResourceLimitError as exc:
                got = str(exc)
            assert got == expected, (format_group(group), folded, limits)
            kind = next((k for k in ("support", "length", "Davenport search") if k in (got or "")), "admitted")
            outcomes[kind] += 1
    assert min(outcomes.values()) >= 2, outcomes


def test_atom_caps_on_g_minus_0_before_it_is_listed_match_the_listed_set():
    # None stands for G minus 0, whose fold size (|G| - 1 + t) / 2 and span G
    # come from the invariant factors; the refusals and messages are those of
    # the listed set, on every group of order <= 128 at four pairs of caps
    refused = 0
    for group in small_group_list(128):
        nonzero = tuple(range(1, group.order))
        for max_atom_length, max_support in product((6, 64), (8, 64)):
            limits = Limits(max_atom_length=max_atom_length, max_support=max_support)
            outcomes = []
            for ground in (None, nonzero):
                try:
                    check_atom_caps(group, ground, limits)
                    outcomes.append(None)
                except ResourceLimitError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (format_group(group), limits)
            refused += outcomes[0] is not None
        assert (group.order - 2 + 2 ** group.m_rank(2)) // 2 == len(fold_negatives(group, nonzero))
    assert refused >= 100


def test_verify_computes_the_span_davenport_constant_only_where_a_bound_is_read(monkeypatch):
    # only the two u-square-lengths checks ask for a bound: the factorization
    # query cap of Factorizer.length_set
    computed = set()
    span = pmzs.atoms._span_davenport

    def recording(group, folded):
        computed.add((group, folded))
        return span(group, folded)

    monkeypatch.setattr(pmzs.atoms, "_span_davenport", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["verify", "all-small", *BENCHMARK_CAPS])
    c3c6, c4c4 = make_group([3, 6]), make_group([4, 4])
    assert computed == {
        (c3c6, fold_negatives(c3c6, [c3c6.element(1, 1).index, c3c6.element(0, 1).index])),
        (c4c4, fold_negatives(c4c4, [c4c4.element(*c).index for c in ((2, 2), (1, 0), (0, 1))])),
    }


def test_atom_cache_round_trip(tmp_path):
    g8 = make_group([8])
    subset = parse_subset(g8, "[(1),(3)]")
    cache = AtomCache(tmp_path)
    cold = enumerate_atoms(g8, subset, cache=cache)
    warm = enumerate_atoms(g8, subset, cache=cache)
    assert cold == warm
    assert list(tmp_path.glob("atoms-*.json"))


def test_atom_cache_pickles_as_its_directory(tmp_path):
    # a pool worker unpickles the cache once per row, so unpickling makes no directory
    directory = tmp_path / "cache"
    data = pickle.dumps(AtomCache(directory))
    directory.rmdir()
    cache = pickle.loads(data)
    assert cache.directory == directory and not directory.exists()


@pytest.mark.parametrize("tamper", [
    lambda atoms: atoms + [[5, 0]],  # e^5: an odd number of terms +-e never sums to 0 in C8
    lambda atoms: atoms + [[10, 0]],  # a signed zero sum longer than the bound D(C8) = 8
    lambda atoms: [[0, 0]] + atoms,  # the empty sequence, shorter than 2
    lambda atoms: atoms[:1] + atoms,  # a duplicate
    lambda atoms: atoms[::-1],  # out of (length, vector) order
    lambda atoms: atoms[1:],  # (3e)^2 deleted: every g^2 is an atom
    lambda atoms: atoms[:-1] + [[1.0 * m for m in atoms[-1]]],  # multiplicities that are not ints
    lambda atoms: {"atoms": atoms},  # not a list
    # a string is the whole entry: lists nested past the recursion limit of json.loads
    lambda atoms: "[" * 200000 + "]" * 200000,
])
def test_tampered_cache_entry_is_rejected(tmp_path, tamper):
    g8 = make_group([8])
    subset = parse_subset(g8, "[(1),(3)]")
    cache = AtomCache(tmp_path)
    cold = enumerate_atoms(g8, subset, cache=cache)
    ground = tuple(g.index for g in cold.ground)
    assert cache.load(g8, ground) is not None
    (entry,) = tmp_path.glob("atoms-*.json")
    stored = entry.read_text()
    data = json.loads(stored)
    tampered = tamper(data["atoms"])
    if isinstance(tampered, str):
        entry.write_text(tampered)
    else:
        data["atoms"] = tampered
        entry.write_text(json.dumps(data))
    assert cache.load(g8, ground) is None
    # the miss is enumerated again, answers as before and rewrites the entry
    assert enumerate_atoms(g8, subset, cache=cache) == cold
    assert min_delta(g8, subset, cache=cache) == 2
    assert entry.read_text() == stored


def _entry_key(data):
    group = parse_group(data["group"])
    return group, tuple(group.element(tuple(c)).index for c in data["ground_set"])


@pytest.mark.parametrize("field, edit", [
    ("version", lambda data: data["version"] + 1),
    ("group", lambda data: "C2xC4"),
    ("ground_set", lambda data: data["ground_set"] + [[0]]),
], ids=["version", "group", "ground_set"])
def test_cache_entry_of_another_version_or_key_is_a_miss(tmp_path, capsys, field, edit):
    # an entry is read back only under the version, group and ground set it
    # was stored under; a sweep over an edited entry prints the same report
    # and writes the entry again
    argv = ["delta-star", "C8", "--cache-dir", str(tmp_path), "--format", "json"]
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out
    entry = min(tmp_path.glob("atoms-*.json"))
    stored = entry.read_text()
    data = json.loads(stored)
    key = _entry_key(data)
    assert AtomCache(tmp_path).load(*key).to_json_dict() == data
    data[field] = edit(data)
    entry.write_text(json.dumps(data, sort_keys=True))
    assert AtomCache(tmp_path).load(*key) is None
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == cold and entry.read_text() == stored


def test_cache_load_ignores_the_stored_bound_and_zero_flag(tmp_path):
    g8 = make_group([8])
    cache = AtomCache(tmp_path)
    atoms = enumerate_atoms(g8, parse_subset(g8, "[(1),(3)]"), cache=cache)
    (entry,) = tmp_path.glob("atoms-*.json")
    data = json.loads(entry.read_text())
    data["bound"], data["includes_zero"] = "eight", 1
    entry.write_text(json.dumps(data))
    assert cache.load(g8, (1, 3)) == atoms


@pytest.mark.parametrize("factors, too_long", [
    ([2, 2, 2], [1, 1, 1, 2, 0, 0, 0]),  # (0,0,1) + (0,1,0) + (0,1,1) = 0, times (1,0,0)^2
    ([3, 3], [6, 0, 0, 0]),  # six copies of one element
])
def test_whole_set_entries_check_lengths_against_the_span_davenport_constant(tmp_path, monkeypatch, factors, too_long):
    # the longest atom of the whole set (4 in C2^3, 5 in C3xC3) passes every
    # element order, so the load reads D(<S>); a signed zero sum of length
    # D(<S>) + 1 makes the entry a miss
    group = make_group(factors)
    ground = fold_negatives(group, range(1, group.order))
    cache = AtomCache(tmp_path)
    atoms = enumerate_atoms(group, [group.element_at(i) for i in ground], cache=cache)
    assert atom_length_profile(atoms).max_length > max(group.element_at(i).order() for i in ground)
    assert sum(too_long) == davenport(group) + 1
    computed = []
    span = pmzs.atoms._span_davenport

    def recording(group, folded):
        computed.append(folded)
        return span(group, folded)

    monkeypatch.setattr(pmzs.atoms, "_span_davenport", recording)
    assert cache.load(group, ground) == atoms and computed == [ground]
    (entry,) = tmp_path.glob("atoms-*.json")
    data = json.loads(entry.read_text())
    data["atoms"].append(too_long)
    entry.write_text(json.dumps(data))
    assert cache.load(group, ground) is None


def test_cache_entries_of_version_1_are_not_read(tmp_path, capsys):
    # a version-1 entry, named after "1|group|ground" and holding D(<S>) as
    # its "bound", is a miss; the sweep writes the bytes of a fresh cache
    # under the version-2 names and leaves the old entries as they are
    fresh = tmp_path / "fresh"
    argv = ["delta-star", "C8", "--format", "json", "--cache-dir"]
    assert cli.main([*argv, str(fresh)]) == 0
    cold = capsys.readouterr().out
    stored = {p.name: p.read_bytes() for p in fresh.iterdir()}
    old_dir = tmp_path / "old"
    cache = AtomCache(old_dir)
    old = {}
    for raw in stored.values():
        data = json.loads(raw)
        group, ground = _entry_key(data)
        data.update(version=1, bound=_span_davenport(group, ground))
        key = f"1|{format_group(group)}|{','.join(map(str, ground))}"
        name = f"atoms-{_fnv1a_64(key.encode()):016x}.json"
        old[name] = json.dumps(data, sort_keys=True).encode()
        (old_dir / name).write_bytes(old[name])
        assert cache.load(group, ground) is None
    assert not old.keys() & stored.keys()
    assert cli.main([*argv, str(old_dir)]) == 0
    assert capsys.readouterr().out == cold
    assert {p.name: p.read_bytes() for p in old_dir.iterdir()} == {**stored, **old}


@pytest.mark.parametrize("name, stored", [("C12", 14), ("C13", 4)])
def test_warm_sweeps_compute_no_span_davenport_constant(tmp_path, monkeypatch, name, stored):
    # an entry holds no bound, so neither the cold sweep, which stores the
    # entries, nor the warm sweep, which loads them, reads D(<S>); both print
    # the same report
    calls = []
    span = pmzs.atoms._span_davenport

    def recording(group, folded):
        calls.append(folded)
        return span(group, folded)

    monkeypatch.setattr(pmzs.atoms, "_span_davenport", recording)
    argv = ["delta-star", name, "--format", "json", "--cache-dir", str(tmp_path), *BENCHMARK_CAPS]

    def sweep():
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        return out.getvalue()

    cold = sweep()
    assert len(list(tmp_path.glob("atoms-*.json"))) == stored and calls == []
    warm = sweep()
    assert calls == [] and warm == cold


def test_cache_digest_is_fnv1a_64():
    # published FNV-1a 64-bit test vectors
    assert _fnv1a_64(b"") == 0xCBF29CE484222325
    assert _fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert _fnv1a_64(b"foobar") == 0x85944171F73967E8


PINNED_NAME = "atoms-1ce6185478f1c9ce.json"  # key "2|C8|1,3"


def test_cache_file_name_is_pinned(tmp_path):
    g8 = make_group([8])
    enumerate_atoms(g8, parse_subset(g8, "[(1),(3)]"), cache=AtomCache(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == [PINNED_NAME]


def test_cache_file_name_is_the_same_under_any_hash_seed(tmp_path):
    snippet = f"""
from pmzs import make_group
from pmzs.atoms import AtomCache

print(AtomCache({str(tmp_path)!r})._path(make_group([8]), (1, 3)).name)
"""
    names = {run_fresh(snippet, env={"PYTHONHASHSEED": seed}).strip() for seed in ("0", "4242")}
    assert names == {PINNED_NAME}


def test_cache_file_names_do_not_collide_over_sweeps(tmp_path):
    # every key the C12, C13 and C4xC4 sweeps store, and more: each nonempty
    # subset of G minus 0
    class RecordingCache(AtomCache):
        def _path(self, group, ground_indices):
            used.add((group, ground_indices))
            return super()._path(group, ground_indices)

    used = set()
    cache = RecordingCache(tmp_path)
    for name in ("C12", "C13", "C4xC4"):
        delta_star(parse_group(name), cache=cache)
    keys = set(used)
    for group in {g for g, _ in used}:
        for mask in range(1, 1 << (group.order - 1)):
            keys.add((group, tuple(i + 1 for i in range(group.order - 1) if mask >> i & 1)))
    names = {AtomCache._path(cache, *key).name for key in keys}
    assert used < keys and len(names) == len(keys)


def test_atom_set_json_round_trip(tmp_path):
    # the cache entry of an atom set is its JSON form, and loads back equal
    g8 = make_group([8])
    atoms = enumerate_atoms(g8, parse_subset(g8, "[(1),(3)]"))
    cache = AtomCache(tmp_path)
    cache.store(atoms)
    (entry,) = tmp_path.glob("atoms-*.json")
    assert json.loads(entry.read_text()) == atoms.to_json_dict()
    assert cache.load(g8, (1, 3)) == atoms
