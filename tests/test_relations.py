"""Kernel lattice, minimal distance, factorizations, lengths, local elasticity."""

import math
import random
from itertools import combinations, combinations_with_replacement

import pytest

from pmzs import (
    DomainError,
    ResourceLimitError,
    Sequence,
    atom_length_profile,
    delta_of_element,
    enumerate_atoms,
    factorizations,
    length_set,
    make_group,
    min_delta,
    min_delta_of_atoms,
    parse_group,
    parse_subset,
    rho_k,
)
from pmzs.groups import fold_negatives
from pmzs.limits import Limits
from pmzs.relations import ZERO_ATOM, Factorizer, delta_of_lengths
from helpers import (
    atom_matrix,
    brute_factorization_lengths,
    brute_factorizations,
    gcd_of_length_differences_up_to_3,
    integer_kernel_basis,
    mixed_unfolded_grounds,
    small_group_list,
)


def subset_of(spec, literal):
    group = parse_group(spec)
    return group, parse_subset(group, literal)


def test_kernel_single_row():
    basis = integer_kernel_basis([[2, 5]])
    assert len(basis) == 1
    v = basis[0]
    assert 2 * v[0] + 5 * v[1] == 0 and abs(v[0] * v[1]) == 10


def test_kernel_injective_matrix():
    assert integer_kernel_basis([[1, 0], [0, 1]]) == []
    assert integer_kernel_basis([[2, 0], [0, 3]]) == []


def test_kernel_c8_pair_rank_two():
    group, subset = subset_of("C8", "[(1),(3)]")
    atoms = enumerate_atoms(group, subset)
    basis = integer_kernel_basis(atom_matrix(atoms))
    assert len(basis) == 2
    g = 0
    for v in basis:
        g = math.gcd(g, sum(v))
    assert g == 2


def test_kernel_zero_columns():
    assert integer_kernel_basis([[0, 0], [0, 0]]) == [[1, 0], [0, 1]]
    assert integer_kernel_basis([]) == []


def test_min_delta_goldens():
    g5 = make_group([5])
    assert min_delta(g5, [g5.element(1)]) == 3
    group, subset = subset_of("C8", "[(1),(3)]")
    assert min_delta(group, subset) == 2
    group, subset = subset_of("C17", "[(1),(4)]")
    assert min_delta(group, subset) == 3
    g16 = make_group([2, 2, 2, 2])
    coset = [g16.element(1, a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    atoms = enumerate_atoms(g16, coset)
    assert min_delta_of_atoms(atoms) == 1
    assert atom_length_profile(atoms).gcd_lengths_minus_2 == 2


def test_min_delta_empty_cases():
    g2 = make_group([2])
    assert min_delta(g2, [g2.element(1)]) is None
    g8 = make_group([8])
    assert min_delta(g8, [g8.element(1)]) is None  # even order generator
    assert min_delta(g8, []) is None


def _kernel_min_delta(atoms):
    """gcd of the coordinate sums of an integer_kernel_basis of the atom matrix, as the test oracle."""
    g = 0
    for v in integer_kernel_basis(atom_matrix(atoms)) if atoms.folded else []:
        g = math.gcd(g, sum(v))
    return g or None


def test_echelon_min_delta_matches_kernel_on_every_folded_subset():
    values = []
    for group in small_group_list(12):
        universe = fold_negatives(group, range(1, group.order))
        for size in range(len(universe) + 1):
            for subset in combinations(universe, size):
                atoms = enumerate_atoms(group, [group.element_at(i) for i in subset])
                value = min_delta_of_atoms(atoms)
                assert value == _kernel_min_delta(atoms), (str(group), subset)
                values.append(value)
    # empty and half-factorial sets (None) and values up to 9 (C11 {e}) occur
    assert len(values) >= 484 and None in values and max(filter(None, values)) >= 9


@pytest.mark.parametrize("group", [g for g in small_group_list(17) if g.order >= 13], ids=str)
def test_echelon_min_delta_matches_kernel_on_whole_sets(group):
    nonzero = [group.element_at(i) for i in range(1, group.order)]
    atoms = enumerate_atoms(group, nonzero, limits=Limits(max_support=16, max_atom_length=64))
    assert min_delta_of_atoms(atoms) == _kernel_min_delta(atoms) == 1


def test_min_delta_full_group_is_one():
    for group in small_group_list(9):
        if group.order < 3:
            continue
        nonzero = [group.element_at(i) for i in range(1, group.order)]
        assert min_delta(group, nonzero) == 1, str(group)


def test_min_delta_and_rho_2_match_oracles_over_lifted_atoms():
    # both read the folded atoms; the oracles work on the lifted list over the
    # unfolded ground set: the kernel of its matrix, and brute-force lengths
    # of every product of two lifted atoms
    checked = 0
    for group, ground in mixed_unfolded_grounds(16, per_group=2, seed=53):
        subset = [group.element_at(i) for i in ground]
        atoms = enumerate_atoms(group, subset)
        lifted = atoms.vectors
        if atoms.source == tuple(range(len(ground))) or len(lifted) > 150:
            continue
        g = 0
        for v in integer_kernel_basis([list(row) for row in zip(*lifted)]):
            g = math.gcd(g, sum(v))
        assert min_delta(group, subset) == (g or None), (str(group), ground)
        memo = {}
        rho_2 = max(
            max(brute_factorization_lengths(tuple(map(sum, zip(a, b))), lifted, memo))
            for a, b in combinations_with_replacement(lifted, 2)
        )
        assert rho_k(group, subset, 2) == rho_2, (str(group), ground)
        checked += 1
    assert checked >= 30, checked
    g5 = make_group([5])
    assert min_delta(g5, parse_subset(g5, "[(1),(4)]")) == 3  # folds onto {e}


def test_factorizations_c5_tenth_power():
    g5 = make_group([5])
    atoms = enumerate_atoms(g5, [g5.element(1)])
    seq = Sequence.from_items(g5, [(g5.element(1), 10)])
    result = factorizations(seq, atoms)
    assert result.lengths == (2, 5)
    assert result.delta == (3,)
    assert len(result.factorizations) == 2


def test_factorizations_even_construction():
    g = make_group([4, 4])
    e0, e1, e2 = g.element(2, 2), g.element(1, 0), g.element(0, 1)
    atoms = enumerate_atoms(g, [e0, e1, e2])
    u = Sequence.from_items(g, [(e0, 1), (e1, 2), (e2, 2)])
    assert length_set(u.power(2), atoms) == (2, 5)
    assert delta_of_element(u.power(2), atoms) == (3,)


def test_factorizations_c3xc6_pair():
    g = make_group([3, 6])
    subset = [g.element(1, 1), g.element(0, 1)]
    atoms = enumerate_atoms(g, subset)
    u = Sequence.from_items(g, [(g.element(1, 1), 3), (g.element(0, 1), 3)])
    assert length_set(u.power(2), atoms) == (2, 6)


def test_length_set_edges():
    g5 = make_group([5])
    atoms = enumerate_atoms(g5, [g5.element(1)])
    for k in range(len(atoms)):
        assert length_set(atoms.sequence(k), atoms) == (1,)
        assert delta_of_element(atoms.sequence(k), atoms) == ()
    assert length_set(Sequence.empty(g5), atoms) == (0,)
    with pytest.raises(DomainError):
        factorizations(Sequence.of(g5, g5.element(1)), atoms)


def test_factorizations_with_zero_support():
    g5 = make_group([5])
    atoms = enumerate_atoms(g5, [g5.zero(), g5.element(1)])
    seq = Sequence.from_items(g5, [(g5.zero(), 2), (g5.element(1), 2)])
    result = factorizations(seq, atoms)
    assert result.lengths == (3,)  # e^2 plus two prime factors (0)
    bare = enumerate_atoms(g5, [g5.element(1)])
    with pytest.raises(DomainError):
        factorizations(Sequence.of(g5, g5.zero()), bare)


def test_atom_square_contains_two_and_length():
    for spec, literal in [("C5", "[(1)]"), ("C8", "[(1),(3)]"), ("C17", "[(1),(4)]")]:
        group, subset = subset_of(spec, literal)
        atoms = enumerate_atoms(group, subset)
        fz = Factorizer(atoms)
        for k in range(len(atoms)):
            atom_seq = atoms.sequence(k)
            lengths = set(fz.length_set(atom_seq.power(2)))
            assert {2, len(atom_seq)} <= lengths


def _length_instances():
    """Atom sets of the nonzero sets of all groups of order <= 8, then the goldens."""
    for group in small_group_list(8):
        yield enumerate_atoms(group, [group.element_at(i) for i in range(1, group.order)])
    for spec, literal in [("C5", "[(1)]"), ("C8", "[(1),(3)]"), ("C17", "[(1),(4)]")]:
        yield enumerate_atoms(*subset_of(spec, literal))


def _assert_lengths_agree(fz, element, oracle_memo):
    """The length-mask DP against the full listing and the brute-force oracle."""
    atoms = fz.atom_set
    listed = fz.factorizations(element).lengths
    oracle = tuple(sorted(brute_factorization_lengths(atoms.vector_of(element), atoms.vectors, oracle_memo)))
    assert fz.length_set(element) == listed == oracle, str(element)
    assert length_set(element, atoms) == listed
    assert fz.max_length(element) == max(listed)


def test_length_set_of_atom_squares_matches_listing_and_oracle():
    checked = 0
    for atoms in _length_instances():
        fz, memo = Factorizer(atoms), {}
        for k in range(len(atoms)):
            _assert_lengths_agree(fz, atoms.sequence(k).power(2), memo)
            checked += 1
    assert checked >= 450


def test_length_set_of_three_atom_products_matches_listing_and_oracle():
    rng = random.Random(29)
    for atoms in _length_instances():
        if len(atoms) > 200:
            continue  # C7: listing one product of three of its 221 atoms takes about a second
        fz, memo = Factorizer(atoms), {}
        for _ in range(12):
            a, b, c = (atoms.sequence(rng.randrange(len(atoms))) for _ in range(3))
            _assert_lengths_agree(fz, a.concat(b).concat(c), memo)


def test_folded_length_sets_match_oracle_on_unfolded_subsets():
    # the DP runs over the folded atoms; the oracle recurses over the unfolded ones
    rng = random.Random(43)
    instances = [subset_of("C9", "[(1),(8),(4)]"), subset_of("C2xC6", "[(1,1),(0,5),(1,0),(0,1)]")]
    instances += [
        (group, [group.element_at(i) for i in ground]) for group, ground in mixed_unfolded_grounds(12, 1, seed=47)
    ]
    for group, subset in instances:
        atoms = enumerate_atoms(group, subset)
        if len(atoms) > 100:
            continue  # the oracle takes seconds on a product over C11's 232 atoms
        fz, memo = Factorizer(atoms), {}
        for _ in range(8):
            product = rng.choice(atoms.vectors)
            for _ in range(rng.randrange(1, 3)):
                product = tuple(map(sum, zip(product, rng.choice(atoms.vectors))))
            element = Sequence.from_items(group, [(g, m) for g, m in zip(atoms.ground, product) if m])
            oracle = tuple(sorted(brute_factorization_lengths(product, atoms.vectors, memo)))
            assert fz.length_set(element) == oracle, str(element)


def _listing_instances(seed):
    """Seeded atom sets over unfolded supports, each holding 0, a pair g, -g
    and, where the group has one, an element of order 2."""
    rng = random.Random(seed)
    for group in small_group_list(12):
        neg = group._neg
        pairs = [i for i in range(1, group.order) if i < neg[i]]
        involutions = [i for i in range(1, group.order) if i == neg[i]]
        for _ in range(2):
            ground = {0}
            if pairs:
                g = rng.choice(pairs)
                ground |= {g, neg[g]}
            if involutions:
                ground.add(rng.choice(involutions))
            yield enumerate_atoms(group, [group.element_at(i) for i in sorted(ground)])


def test_factorization_listing_matches_every_choice_of_atom_multiplicities():
    rng = random.Random(59)
    several = 0
    for atoms in _listing_instances(seed=61):
        fz = Factorizer(atoms)
        zero = atoms.group.zero()
        for _ in range(8):
            product = (0,) * len(atoms.ground)
            for _ in range(rng.randint(1, 3)):
                product = tuple(map(sum, zip(product, rng.choice(atoms.vectors))))
            zeros = rng.randrange(3)
            items = [(zero, zeros)] if zeros else []
            items += [(g, m) for g, m in zip(atoms.ground, product) if m]
            expected = sorted((ZERO_ATOM,) * zeros + f for f in brute_factorizations(product, atoms.vectors))
            listed = fz.factorizations(Sequence.from_items(atoms.group, items))
            assert listed.factorizations == tuple(expected), (str(atoms.group), items)
            assert listed.lengths == tuple(sorted({len(f) for f in expected}))
            several += len(expected) > 1
    assert several >= 80, several


def test_rho_k_above_the_element_cap_matches_oracle():
    # the fields start with room for a product of eight atoms: coordinates up
    # to 8 * 3 fit in 5 bits, so products of k >= 11 atoms (3 * k >= 32) widen them
    g3 = make_group([3])
    subset = [g3.element(1)]  # the nonzero set folds onto it
    limits = Limits(rho_cap=12)
    atoms = enumerate_atoms(g3, subset)
    for k in range(9, 13):
        oracle = max(
            max(brute_factorization_lengths(tuple(map(sum, zip(*combo))), atoms.vectors))
            for combo in combinations_with_replacement(atoms.vectors, k)
        )
        assert rho_k(g3, subset, k, limits=limits) == oracle == (3 * k) // 2
        assert rho_k(g3, [g3.element(1), g3.element(2)], k, limits=limits) == oracle


def test_max_length_of_vector_after_widening():
    group, subset = subset_of("C8", "[(1),(3)]")
    atoms = enumerate_atoms(group, subset)
    fz = Factorizer(atoms)
    small, wide = (4, 4), (40, 200)  # fields for eight atoms (8 * 3 < 32) are too narrow for 200
    before = fz.max_length_of_vector(small)
    assert fz.max_length_of_vector(wide) == max(brute_factorization_lengths(wide, atoms.vectors))
    assert fz.max_length_of_vector(small) == before == max(brute_factorization_lengths(small, atoms.vectors))
    with pytest.raises(DomainError):
        fz.max_length_of_vector((1, -1))


def test_is_half_factorial():
    # a monoid is half-factorial iff its distance set is empty, iff it has no
    # atom longer than 2; the two criteria must agree
    def is_half_factorial(group, subset):
        atom_set = enumerate_atoms(group, subset)
        by_delta = min_delta_of_atoms(atom_set) is None
        assert by_delta == (atom_length_profile(atom_set).max_length <= 2), (str(group), subset)
        return by_delta

    g2 = make_group([2])
    assert is_half_factorial(g2, [g2.element(1)])
    assert is_half_factorial(g2, [g2.element_at(i) for i in range(1, 2)])
    g4 = make_group([4])
    assert is_half_factorial(g4, [g4.element(1)])  # even order singleton
    g22 = make_group([2, 2])
    assert is_half_factorial(g22, [g22.element(1, 0), g22.element(0, 1)])  # independent involutions
    assert not is_half_factorial(g22, [g22.element_at(i) for i in range(1, 4)])
    g5 = make_group([5])
    assert not is_half_factorial(g5, [g5.element(1)])


def test_rho_k():
    g5 = make_group([5])
    nonzero5 = [g5.element_at(i) for i in range(1, 5)]
    assert rho_k(g5, nonzero5, 1) == 1
    assert rho_k(g5, nonzero5, 2) == 5
    g8 = make_group([8])
    nonzero8 = [g8.element_at(i) for i in range(1, 8)]
    assert rho_k(g8, nonzero8, 2) == 5
    with pytest.raises(ResourceLimitError):
        rho_k(g5, nonzero5, 4)
    with pytest.raises(DomainError):
        rho_k(g5, nonzero5, 0)


def _rho_over_every_product(atoms, k):
    """The largest length of the products of k folded atoms, every product
    queried, as the oracle of the early-stopped search."""
    fz = Factorizer(atoms)
    return max(
        fz._folded_mask(tuple(map(sum, zip(*combo)))).bit_length() - 1
        for combo in combinations_with_replacement(atoms.folded, k)
    )


def test_rho_k_stopped_by_length_matches_every_product():
    checked = 0
    for group in small_group_list(10):
        universe = fold_negatives(group, range(1, group.order))
        for size in range(1, len(universe) + 1):
            for ground in combinations(universe, size):
                subset = [group.element_at(i) for i in ground]
                atoms = enumerate_atoms(group, subset)
                for k in (2, 3) if group.order <= 8 else (2,):
                    assert rho_k(group, subset, k) == _rho_over_every_product(atoms, k), (str(group), ground, k)
                    checked += 1
    assert checked == 465, checked
    group, subset = subset_of("C6", "[(0),(1),(2)]")
    atoms = enumerate_atoms(group, subset)
    assert atoms.includes_zero
    assert rho_k(group, subset, 3) == _rho_over_every_product(atoms, 3) == 4


def test_delta_of_lengths():
    assert delta_of_lengths([2, 5, 7]) == (2, 3)
    assert delta_of_lengths([8, 11, 14, 17, 20]) == (3,)
    assert delta_of_lengths([3]) == ()
    assert delta_of_lengths([]) == ()


def test_divisibility_ladder():
    rng = random.Random(13)
    for group in small_group_list(9):
        if group.order < 3:
            continue
        nonzero = list(range(1, group.order))
        for _ in range(4):
            size = rng.randrange(1, min(4, len(nonzero)) + 1)
            big = sorted(rng.sample(nonzero, size))
            small_size = rng.randrange(1, size + 1)
            small = sorted(rng.sample(big, small_size))
            md_big = min_delta(group, [group.element_at(i) for i in big])
            md_small = min_delta(group, [group.element_at(i) for i in small])
            if md_big is not None and md_small is not None:
                assert md_small % md_big == 0


def test_min_delta_divides_atom_lengths_minus_two():
    rng = random.Random(17)
    for group in small_group_list(9):
        nonzero = list(range(1, group.order))
        for _ in range(3):
            size = rng.randrange(1, min(4, len(nonzero)) + 1)
            subset = [group.element_at(i) for i in sorted(rng.sample(nonzero, size))]
            atoms = enumerate_atoms(group, subset)
            md = min_delta_of_atoms(atoms)
            if md is None:
                continue
            profile = atom_length_profile(atoms)
            for length in atoms.lengths():
                assert (length - 2) % md == 0
            # sandwich: md | gcd | 2 md, with equality when the gcd is odd
            g = profile.gcd_lengths_minus_2
            assert g % md == 0 and (2 * md) % g == 0
            if g % 2 == 1:
                assert g == md
            # distance ceiling from the monoid Davenport constant
            assert md <= profile.max_length - 2


def test_kernel_oracle_equivalence_spot():
    for spec, literal in [("C8", "[(1),(3)]"), ("C5", "[(1),(2)]"), ("C9", "[(1),(3)]")]:
        group, subset = subset_of(spec, literal)
        atoms = enumerate_atoms(group, subset)
        assert min_delta_of_atoms(atoms) == gcd_of_length_differences_up_to_3(atoms.vectors)
