"""Group construction, arithmetic, structural invariants, Davenport, automorphisms."""

import math
import pickle
import random
from itertools import combinations, product

import pytest

from pmzs import (
    DomainError,
    ResourceLimitError,
    abelian_group_types,
    automorphisms,
    davenport,
    delta_star,
    davenport_exhaustive,
    fold_negatives,
    group_invariants,
    make_group,
)
from pmzs import groups
from pmzs.groups import _minimal_zero_sums, _prime_factorization, _span_type
from helpers import (
    brute_automorphisms,
    brute_minimal_zero_sums,
    brute_shift_mask,
    brute_subgroup_generated,
    element_sum,
    signed_shift_mask,
    small_group_list,
)


def test_make_group_canonicalizes():
    assert make_group([3]).invariant_factors == (3,)
    assert make_group([2, 3]).invariant_factors == (6,)
    assert make_group([2, 4]).invariant_factors == (2, 4)
    assert make_group([6, 4]).invariant_factors == (2, 12)
    assert make_group([]).invariant_factors == ()
    assert make_group([4, 2]) == make_group([2, 4])


def _trial_division(n):
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_prime_factorization_matches_trial_division():
    assert all(_prime_factorization(n) == _trial_division(n) for n in range(1, 10**4 + 1))
    # past the bound: cofactors below 10^12 need no test, larger ones are proven prime
    for n in (1000003, 999983**2, 2**5 * 1000003, 3 * 1000003 * 999983, 2**61 - 1, 10**23 - 1):
        factors = _prime_factorization(n)
        assert math.prod(p**e for p, e in factors.items()) == n
    assert _prime_factorization(2**61 - 1) == {2**61 - 1: 1}  # a Mersenne prime
    assert _prime_factorization(10**23 - 1) == {3: 2, (10**23 - 1) // 9: 1}


def test_group_facts_factor_the_exponent_not_the_order():
    # the order 1000003^2 is split by Pollard-Brent, but every fact reads the
    # prime exponent
    g = make_group([1000003, 1000003])
    assert _prime_factorization(g.order) == {1000003: 2}
    assert g.is_p_group and davenport(g) == g.d_star == 2000005
    assert group_invariants(g).m_ranks == {1000003: 2}


@pytest.mark.parametrize("factors", [
    {1000003: 1, 1000033: 1},
    {7: 1, 1000003: 2},
    {399165290221: 1, 798330580441: 1},  # a strong pseudoprime to every base below 41
    {1000003: 1, 1000033: 1, 1000037: 1},
    {1000003: 1, 2**61 - 1: 1},
], ids=lambda factors: str(math.prod(p**e for p, e in factors.items())))
def test_prime_factorization_splits_composite_cofactors(factors):
    # a cofactor that Miller-Rabin shows composite is split by Pollard-Brent,
    # and each part is proven prime or split again
    assert _prime_factorization(math.prod(p**e for p, e in factors.items())) == factors


@pytest.mark.parametrize("n, message", [
    (3317044064679887385961981, "is too large to prove prime"),  # a strong pseudoprime to 41 as well
    (2**127 - 1, "is too large to prove prime"),
])
def test_prime_factorization_refuses_what_it_cannot_prove(monkeypatch, n, message):
    # past the Miller-Rabin limit no primality proof is at hand, so the
    # cofactor is refused before Pollard-Brent runs
    monkeypatch.setattr(groups, "_rho_divisor", None)
    with pytest.raises(ResourceLimitError, match=message):
        _prime_factorization(n)


def test_prime_factorization_refuses_a_cofactor_that_does_not_split(monkeypatch):
    monkeypatch.setattr(groups, "_RHO_BUDGET", 1)
    with pytest.raises(ResourceLimitError) as raised:
        _prime_factorization(318665857834031151167461)
    assert str(raised.value) == (
        "factorization of 318665857834031151167461 capped at 1 Pollard-Brent steps: "
        "the composite 318665857834031151167461 did not split"
    )


def test_make_group_rejects_bad_orders():
    with pytest.raises(DomainError):
        make_group([0])
    with pytest.raises(DomainError):
        make_group([1])
    with pytest.raises(DomainError):
        make_group([-3])


def test_group_pickles_as_its_invariant_factors():
    g = make_group([4, 4])
    size = len(pickle.dumps(g))
    assert pickle.loads(pickle.dumps(g)) is g
    delta_star(g)  # fills the element and negation memos; the search keeps no addition table
    assert {"_elements", "_neg"} <= set(vars(g)) and "_add_table" not in vars(g)
    data = pickle.dumps(g)
    assert len(data) == size and pickle.loads(data) is g
    element = pickle.loads(pickle.dumps(g.element(1, 3)))
    assert element.group is g and element == g.element(1, 3)


def test_group_shape_c2xc4():
    g = make_group([2, 4])
    assert g.exponent == 4 and g.rank == 2 and g.order == 8
    assert str(g) == "C2xC4"


def test_element_order():
    assert make_group([7]).element(0).order() == 1
    assert make_group([8]).element(3).order() == 8
    assert make_group([3, 6]).element(1, 2).order() == 3
    g = make_group([2, 4])
    for x in g.elements():
        assert x.order() * 1 >= 1
        assert element_sum(g, [(x.order(), x)]).is_zero
        assert g.exponent % x.order() == 0
    # per index, against the least k >= 1 with k * x = 0 found by adding x
    for g in [make_group([])] + small_group_list(32):
        for i in range(g.order):
            x = y = g.element_at(i)
            k = 1
            while not y.is_zero:
                y, k = element_sum(g, [(1, y), (1, x)]), k + 1
            assert x.order() == k, (str(g), i)


def _translate(group, mask, gi):
    """A bitmask translated by the element of index gi through the group's
    block rotations, as the walk and the earlier-atom oracle apply them."""
    for lo, up, hi, down in group._shift_steps[gi]:
        mask = (mask & lo) << up | (mask & hi) >> down
    return mask


def test_shift_mask_matches_bit_loop():
    # the block rotations, and the signed shift of the earlier-atom oracle,
    # against the addition table, for every element of every abelian group
    # of order 1..32
    rng = random.Random(41)
    for g in [make_group([])] + small_group_list(32):
        full = (1 << g.order) - 1
        for gi in range(g.order):
            neg = g._neg[gi]
            for mask in (1, full, *(rng.getrandbits(g.order) for _ in range(3))):
                assert _translate(g, mask, gi) == brute_shift_mask(g, mask, gi), (str(g), gi, mask)
                signed = brute_shift_mask(g, mask, gi) | brute_shift_mask(g, mask, neg)
                assert signed_shift_mask(g, mask, gi) == signed, (str(g), gi, mask)


def test_rotation_block_starts_match_the_long_division():
    # the block-start pattern of coordinate k, a 1 every n_k * stride_k bits,
    # is (2^|G| - 1) / (2^(n_k stride_k) - 1); every step of every element of
    # every abelian group of order 2..64 is built from it
    for g in small_group_list(64):
        full = (1 << g.order) - 1
        steps = groups._rotations(g.order, g._radix)
        for gi in range(g.order):
            expected = []
            for n, stride in g._radix:
                if c := gi // stride % n:
                    lo = ((1 << ((n - c) * stride)) - 1) * (full // ((1 << (n * stride)) - 1))
                    expected.append((lo, c * stride, full ^ lo, (n - c) * stride))
            assert steps(gi) == tuple(expected), (str(g), gi)


def test_index_round_trip():
    # element_at hands out one interned element per index, equal and
    # hash-equal to the element built from its coordinates
    for g in [make_group([])] + small_group_list(32):
        for i in range(g.order):
            x = g.element_at(i)
            assert x.index == i and x is g.element_at(i), (str(g), i)
            y = g.element(*x.coords)
            assert y == x and hash(y) == hash(x) and y.index == i, (str(g), i)
        for bad in (-1, g.order):
            with pytest.raises(DomainError):
                g.element_at(bad)


def test_is_independent():
    # e_1..e_s are independent (sum a_i e_i = 0 forces every a_i e_i = 0)
    # iff |<e_1, ..., e_s>| = prod ord(e_i); the span type gives |<S>|
    def independent(group, elements):
        return _span_type(group, [x.coords for x in elements]).order == math.prod(x.order() for x in elements)

    g24 = make_group([2, 4])
    assert independent(g24, [g24.element(1, 0), g24.element(0, 1)])
    g4 = make_group([4])
    assert not independent(g4, [g4.element(1), g4.element(2)])
    assert independent(g24, [g24.element(1, 0), g24.element(1, 2)])
    assert independent(g24, [])


def test_subgroup_generated():
    # the type of the subgroup the elements generate, from their relation lattice
    g8 = make_group([8])
    assert _span_type(g8, []).invariant_factors == ()
    assert _span_type(g8, [(2,)]).invariant_factors == (4,)
    g24 = make_group([2, 4])
    assert _span_type(g24, [(1, 1)]).invariant_factors == (4,)
    assert _span_type(g24, [(1, 0), (0, 1)]) == g24


def test_subgroup_generated_matches_breadth_first_oracle():
    # the relation-lattice type against a search over the addition table: the
    # empty set, every singleton, random sets of 2-4 up to order 32, and
    # random families of 5-8 generators up to order 64
    rng = random.Random(43)
    for g in [make_group([])] + small_group_list(64):
        gen_sets = []
        if g.order <= 32:
            gen_sets += [[]] + [[i] for i in range(g.order)]
        if 1 < g.order <= 32:
            gen_sets += [[rng.randrange(g.order) for _ in range(rng.randint(2, 4))] for _ in range(6)]
        if g.order > 1:
            gen_sets += [[rng.randrange(g.order) for _ in range(rng.randint(5, 8))] for _ in range(3)]
        for gens in gen_sets:
            kind = _span_type(g, [g._coords_of(i) for i in gens])
            assert kind.invariant_factors == brute_subgroup_generated(g, gens)[1], (str(g), gens)


def test_echelon_step_keeps_a_row_whose_pivot_divides_the_vector():
    # the vector is reduced by the row first, so a pivot of equal size and
    # opposite sign leaves the row in place; were the two swapped, the
    # alternation of row and column echelon forms in _span_type would cycle
    # on [[2, -2], [0, -2]] (its transpose holds these two rows)
    assert groups._echelon_rows([[2, 0], [-2, -2]]) == {0: [2, 0], 1: [0, -2]}
    assert groups._echelon_rows([[4, 1], [6, 0]]) == {0: [2, -1], 1: [0, 3]}
    g = make_group([2, 4])
    assert groups._span_type(g, [(1, 2), (0, 2), (1, 0)]) == make_group([2, 2])


@pytest.mark.parametrize("n", [10**9, 10**12])
def test_span_type_of_one_element_of_a_huge_cyclic_group(n):
    # <k> in C_n is cyclic of order n / gcd(n, k), read from the relation
    # lattice without listing an element
    g = groups.Group((n,))
    for k in (1, 2, 3, 6, 7, 10**6, n // 8, n - 1, 2 * 3 * 5 * 7 * 11 * 13):
        assert groups._span_type(g, [(k,)]) == make_group([n // math.gcd(n, k)]), k
    assert groups._span_type(g, [(2,), (3,)]) == g
    assert not any(vars(g).get(memo) for memo in ("_elements", "_neg", "_shift_steps"))


def test_subgroup_size_of_independent_family():
    g = make_group([2, 4])
    fams = [
        [g.element(1, 0)],
        [g.element(0, 1)],
        [g.element(1, 0), g.element(0, 1)],
        [g.element(1, 0), g.element(1, 2)],
    ]
    # each family is independent, so it spans a subgroup of the product of its orders
    for fam in fams:
        assert _span_type(g, [x.coords for x in fam]).order == math.prod(x.order() for x in fam)


def test_group_invariants():
    info = group_invariants(make_group([2, 2, 2, 2]))
    assert info.d_star == 5 and info.m_ranks == {2: 4}
    info = group_invariants(make_group([3, 6]))
    assert info.exponent == 6 and info.rank == 2 and info.d_star == 8
    assert group_invariants(make_group([5])).d_star == 5
    with pytest.raises(DomainError):
        make_group([6]).m_rank(1)


def test_davenport_values():
    assert davenport(make_group([5])) == 5
    assert davenport(make_group([2, 2, 2, 2])) == 5
    assert davenport(make_group([2, 6])) == 7
    assert davenport(make_group([])) == 1


def test_davenport_search_agrees_with_formula_up_to_16():
    # every group of order <= 16 is a p-group or has rank <= 2, so the
    # formula is exact there and the search must reproduce it
    for g in small_group_list(16):
        assert davenport_exhaustive(g) == g.d_star, str(g)


def test_davenport_exhaustive_on_groups_past_the_formula(monkeypatch):
    # C2 + C2 + C2n has D = 2n + 2 = d_star; the order cap is inclusive, so
    # the search runs at order 24 and a cap of 23 refuses it
    g = make_group([2, 2, 6])
    assert davenport_exhaustive(g) == davenport(g) == g.d_star == 8
    monkeypatch.setattr(groups, "MAX_DAVENPORT_ORDER", 23)
    with pytest.raises(ResourceLimitError, match="capped at order 23"):
        davenport(g)


def test_minimal_zero_sums_match_brute_force():
    # one of each pair {w, -w}, keyed by the image over F; C8 is left out, its oracle alone takes seconds
    checked = 0
    for group in small_group_list(8):
        if group.invariant_factors == (8,):
            continue
        universe = fold_negatives(group, range(1, group.order))
        base = group.order + 1
        for size in range(1, len(universe) + 1):
            for folded in combinations(universe, size):
                weights = tuple(base**j for j in range(size))
                found = _minimal_zero_sums(group, folded, weights)
                expected = {
                    sum(w * m for w, m in zip(weights, image)): count
                    for image, count in brute_minimal_zero_sums(group, folded).items()
                }
                assert found == expected, (str(group), folded)
                checked += 1
    assert checked == 187, checked


def test_davenport_cap():
    g = make_group([2, 2, 10])  # rank 3, not a p-group: the search branch, over the cap
    with pytest.raises(ResourceLimitError, match="capped at order 24") as err:
        davenport(g)
    assert err.value.lower_bound == g.d_star == 12
    assert davenport(make_group([2, 2, 6])) == 8  # order 24, within the cap
    # formula-branch groups are exact at any order
    assert davenport(make_group([2, 64])) == 65
    assert davenport(make_group([3, 3, 3, 3])) == 9


def test_automorphism_counts(monkeypatch):
    assert len(automorphisms(make_group([3]))) == 2
    assert len(automorphisms(make_group([2, 2]))) == 6
    assert len(automorphisms(make_group([8]))) == 4
    assert len(automorphisms(make_group([64]))) == 32
    # C2^5 tries 32^5 image tuples of 32 entries each: over the default work cap
    with pytest.raises(ResourceLimitError):
        automorphisms(make_group([2, 2, 2, 2, 2]))
    # the cap is inclusive: C2^3xC4 is 131,072 tuples x 32 = 2^22, C3 is 3 tuples x 3
    assert len(automorphisms(make_group([2, 2, 2, 4]))) == 21504  # Hillar--Rhea
    monkeypatch.setattr(groups, "MAX_AUTOMORPHISM_WORK", 2**22 - 1)
    with pytest.raises(ResourceLimitError):
        automorphisms(make_group([2, 2, 2, 4]))
    monkeypatch.setattr(groups, "MAX_AUTOMORPHISM_WORK", 9)
    assert len(automorphisms(make_group([3]))) == 2
    monkeypatch.setattr(groups, "MAX_AUTOMORPHISM_WORK", 8)
    with pytest.raises(ResourceLimitError, match="over the work cap 8"):
        automorphisms(make_group([3]))


def test_addition_table_is_the_coordinatewise_sum():
    # the brute-force oracles in helpers read this table, so it is checked
    # against the coordinate vectors listed in index order alone
    for g in [make_group([]), *small_group_list(32)]:
        factors = g.invariant_factors
        coords = list(product(*(range(n) for n in factors)))
        index = {c: i for i, c in enumerate(coords)}
        expected = [[index[tuple((x + y) % n for x, y, n in zip(a, b, factors))] for b in coords] for a in coords]
        assert g._add_table() == tuple(map(tuple, expected)), str(g)


def test_automorphisms_match_full_product_oracle():
    # the depth-first search drops an image choice as soon as it repeats an
    # index, and tries only images of the generator's exact order; the list
    # and its order are those of the full product over the elements killed
    # by each factor, taken here up to 2^16 image tuples times |G| entries
    checked = 0
    for g in small_group_list(64):
        factors = g.invariant_factors
        work = math.prod(math.gcd(n, m) for n in factors for m in factors) * g.order
        if g.order <= 16 or work <= 2**16:
            assert automorphisms(g) == brute_automorphisms(g), str(g)
            checked += 1
    assert checked == 98


def test_automorphisms_permute_and_preserve_order():
    for g in (make_group([8]), make_group([2, 4]), make_group([3, 3])):
        auts = automorphisms(g)
        orders = [g.element_at(i).order() for i in range(g.order)]
        perms = set()
        for perm in auts:
            assert sorted(perm) == list(range(g.order))
            assert all(orders[perm[i]] == orders[i] for i in range(g.order))
            perms.add(perm)
        # closed under composition
        for a in auts[:6]:
            for b in auts[:6]:
                assert tuple(a[b[i]] for i in range(g.order)) in perms


def test_fold_negatives():
    g = make_group([8])
    assert fold_negatives(g, [1, 7]) == (1,)
    assert fold_negatives(g, [3, 5]) == (3,)
    assert fold_negatives(g, [4]) == (4,)
    assert fold_negatives(g, range(1, 8)) == (1, 2, 3, 4)


def test_abelian_group_types():
    assert abelian_group_types(1) == ((),)
    assert set(abelian_group_types(4)) == {(4,), (2, 2)}
    assert set(abelian_group_types(8)) == {(8,), (2, 4), (2, 2, 2)}
    assert set(abelian_group_types(12)) == {(12,), (2, 6)}


def test_make_group_builds_every_type_of_its_order():
    def partitions(a):  # the number of partitions of a, by the coin-change recursion
        ways = [1] + [0] * a
        for part in range(1, a + 1):
            for total in range(part, a + 1):
                ways[total] += ways[total - part]
        return ways[a]

    for n in range(1, 401):
        types = abelian_group_types(n)
        assert len(set(types)) == len(types) == math.prod(partitions(a) for a in _prime_factorization(n).values()), n
        for factors in types:
            assert all(b % a == 0 for a, b in zip(factors, factors[1:])), factors
            assert math.prod(factors) == n
            assert make_group(factors).invariant_factors == factors
            parts = [p**e for m in factors for p, e in _prime_factorization(m).items()]
            assert make_group(parts[::-1]).invariant_factors == factors
