"""Orbit reduction and sweeps."""

import importlib
import random
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations

import pytest

from pmzs import (
    AtomCache,
    Limits,
    delta_star,
    make_group,
    min_delta,
    parse_group,
)
from pmzs.delta_star import _FoldedOrbits
from pmzs.errors import ResourceLimitError
from pmzs.groups import Group, automorphisms, fold_negatives
from helpers import small_group_list


def indices(group, *coords_list):
    return tuple(sorted(group.element(c).index for c in coords_list))


def orbit_listing(group):
    """The canonical representative of every orbit of nonempty subsets of
    G minus 0 under the folded maps, in table order, as the sweep lists them."""
    orbits = _FoldedOrbits(group)
    return [orbits.members(mask) for mask in orbits.representatives(group.order)]


def canonical_form(orbits, group, subset):
    """The least image of a subset under the folded maps, computed on masks as the sweep does."""
    return orbits.members(orbits.canonical(sum(orbits.bit_of[i] for i in fold_negatives(group, subset))))


def test_subset_orbits_c3():
    g = make_group([3])
    assert orbit_listing(g) == [(1,)]


def test_subset_orbits_c5():
    g = make_group([5])
    orbits = orbit_listing(g)
    assert orbits == [(1,), (1, 2)]


def test_subset_orbits_c2xc2():
    g = make_group([2, 2])
    orbits = orbit_listing(g)
    assert len(orbits) == 3
    assert orbits[0] == (1,)
    assert sorted(len(o) for o in orbits) == [1, 2, 3]


def test_orbit_members_share_min_delta():
    rng = random.Random(23)
    for spec in ("C7", "C8", "C3xC3"):
        group = parse_group(spec)
        orbits = _FoldedOrbits(group)
        nonzero = list(range(1, group.order))
        for _ in range(5):
            subset = tuple(sorted(rng.sample(nonzero, rng.randrange(1, 4))))
            rep = canonical_form(orbits, group, subset)
            md_subset = min_delta(group, [group.element_at(i) for i in subset])
            md_rep = min_delta(group, [group.element_at(i) for i in rep])
            assert md_subset == md_rep, f"{spec}: {subset} vs {rep}"


def test_delta_star_tables():
    expected = {
        "C3": (1,),
        "C4": (1,),
        "C2xC2": (1,),
        "C5": (1, 3),
        "C7": (1, 5),
        "C9": (1, 7),
        "C2xC2xC2": (1, 2),
        "C3xC3": (1,),
    }
    for spec, values in expected.items():
        report = delta_star(parse_group(spec))
        assert report.complete
        assert report.delta_star == values, spec


def test_delta_star_c8():
    report = delta_star(parse_group("C8"))
    assert report.max_delta == 3
    assert set(report.delta_star) >= {1, 2, 3}
    assert report.witnesses[3]  # a subset achieving the maximum is recorded


def test_delta_star_c2xc4_max():
    assert delta_star(parse_group("C2xC4")).max_delta == 2


def test_delta_star_small_groups_floor():
    for spec in ("C2", "C1"):
        report = delta_star(parse_group(spec))
        assert report.delta_star == () and report.max_delta is None
    for spec in ("C3", "C6", "C10"):
        report = delta_star(parse_group(spec))
        assert report.delta_star[0] == 1


def test_witnesses_point_at_achieving_subsets():
    report = delta_star(parse_group("C8"))
    for d, subset in report.witnesses.items():
        assert min_delta(report.group, report.subset_elements(subset)) == d


def test_prune_toggle_identical_reports():
    # inheriting min delta = 1 from a subset against evaluating every representative;
    # C4xC4 adds a representative skipped by the support cap on both paths;
    # with a length cap below |G|, inherited rows over it are skipped too
    cases = [(g, Limits(max_sweep_order=12)) for g in small_group_list(12)]
    cases.append((parse_group("C4xC4"), Limits(max_sweep_order=16, max_atom_length=6)))
    cases.append((parse_group("C4xC4"), Limits(max_sweep_order=16)))
    for g, limits in cases:
        pruned = delta_star(g, limits=limits, prune=True).to_json_dict()
        assert pruned == delta_star(g, limits=limits, prune=False).to_json_dict(), str(g)
    assert pruned["complete"] is False and len(pruned["skipped"]) == 1


def least_folded_image(group, subset, auts):
    # the reference canonical form: automorphism first, then sign folding
    return min(fold_negatives(group, [perm[i] for i in subset]) for perm in auts)


def test_subset_orbits_match_unfolded_enumeration():
    # the orbits come from the folded universe; the reference canonicalizes
    # every nonempty subset of G minus 0
    for group in small_group_list(12):
        auts = automorphisms(group)
        nonzero = range(1, group.order)
        images = {
            least_folded_image(group, subset, auts)
            for size in range(1, group.order)
            for subset in combinations(nonzero, size)
        }
        orbits = orbit_listing(group)
        assert orbits == sorted(images, key=lambda s: (len(s), s)), str(group)


def test_subset_orbits_refuses_over_the_sweep_cap():
    # C64 has 2^32 subsets in its folded universe; an unpruned sweep lists them all
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="capped at order 10"):
        delta_star(make_group([64]), prune=False)
    assert time.perf_counter() - start < 1.0


def test_subset_orbits_count_by_burnside():
    # Burnside's lemma counts the orbits of the folded maps, a permutation group
    # of the folded universe, on its subsets: the mean of 2^cycles, less the empty set
    for group in small_group_list(16):
        orbits = _FoldedOrbits(group)
        element_of = dict(zip(orbits.units, orbits.universe))
        fixed = 0
        for bits in orbits.bit_maps:
            unseen = set(orbits.universe)
            cycles = 0
            while unseen:
                cycles += 1
                u = unseen.pop()
                while element_of[bits[u]] in unseen:
                    u = element_of[bits[u]]
                    unseen.remove(u)
            fixed += 2**cycles
        assert fixed % len(orbits.bit_maps) == 0, str(group)
        assert len(orbit_listing(group)) == fixed // len(orbits.bit_maps) - 1, str(group)


def test_bit_maps_permute_the_folded_universe():
    # each map, read on the folded universe, sends its elements onto the unit
    # bits one to one, and 0 to the bit 0; only C2^5 is refused by the
    # automorphism search among the groups of order up to 32
    refused = []
    for group in small_group_list(32):
        try:
            orbits = _FoldedOrbits(group)
        except ResourceLimitError:
            refused.append(str(group))
            continue
        assert orbits.bit_of[0] == 0, str(group)
        for bits in orbits.bit_maps:
            assert bits[0] == 0, str(group)
            assert sorted(bits[u] for u in orbits.universe) == sorted(orbits.units), str(group)
    assert refused == ["C2xC2xC2xC2xC2"]


def test_orbit_listing_bound_is_on_the_folded_universe(monkeypatch):
    # C8 folds onto {1, 2, 3, 4}: a bound of 4 lists its orbits, 3 refuses
    # the listing, in listed mode and unpruned alike
    group = make_group([8])
    delta_star_module = importlib.import_module("pmzs.delta_star")  # the package exports the function by that name
    monkeypatch.setattr(delta_star_module, "MAX_LISTED_UNIVERSE", 4)
    listed = delta_star(group, limits=Limits(max_sweep_order=8))
    assert listed.complete and not listed.evaluated_only
    monkeypatch.setattr(delta_star_module, "MAX_LISTED_UNIVERSE", 3)
    for prune in (True, False):
        with pytest.raises(ResourceLimitError, match="orbit listing capped at 3 folded elements; C8 folds onto 4"):
            delta_star(group, limits=Limits(max_sweep_order=8), prune=prune)
    assert delta_star(group, limits=Limits(max_sweep_order=7)).evaluated_only  # nothing listed above the sweep cap


def test_canonical_subset_matches_least_folded_image():
    # the folded maps halve the automorphisms (not on C2^4, where -1 is the
    # identity) and must give the same least image; C2^3xC4 has order 32 and
    # 10,752 maps, so fewer of its subsets are checked against the slow oracle
    rng = random.Random(31)
    for spec, samples in (("C4xC4", 20), ("C2xC2xC4", 20), ("C2xC2xC2xC2", 20), ("C2xC12", 20), ("C2xC2xC2xC4", 8)):
        group = parse_group(spec)
        auts = automorphisms(group)
        orbits = _FoldedOrbits(group)
        assert len(orbits.bit_maps) == (len(auts) if spec == "C2xC2xC2xC2" else len(auts) // 2), spec
        nonzero = range(1, group.order)
        for _ in range(samples):
            subset = tuple(sorted(rng.sample(nonzero, rng.randrange(1, 8))))
            assert canonical_form(orbits, group, subset) == least_folded_image(group, subset, auts), (spec, subset)


def test_parallel_sweep_deterministic(tmp_path):
    # the rows go through an executor's map; the workers write the cache entries
    g = parse_group("C9")
    serial = delta_star(g).to_json_dict()
    with ProcessPoolExecutor(max_workers=2) as pool:
        parallel = delta_star(g, map_rows=pool.map, cache=AtomCache(tmp_path)).to_json_dict()
    assert serial == parallel
    assert list(tmp_path.glob("atoms-*.json"))


def test_complete_sweep_above_cap():
    # above the sweep cap the table lists the evaluated rows only, and says so
    g = parse_group("C12")
    report = delta_star(g)
    assert report.complete and report.evaluated_only
    assert report.delta_star == (1, 2, 3, 4, 5)
    table = dict(report.table)
    # the even-order construction {e, 6e} with m = 6 gives distance m - 1 = 5
    assert table[indices(g, (1,), (6,))] == 5
    assert report.to_json_dict()["table_scope"] == "evaluated"
    assert "table_scope" not in delta_star(g, limits=Limits(max_sweep_order=12)).to_json_dict()
    c4xc4 = delta_star(parse_group("C4xC4"))
    assert c4xc4.complete and c4xc4.delta_star == (1, 2, 3)


def test_partial_sweep_above_cap():
    # D(C21) = 21 is over the atom length cap, so the generator's row is
    # skipped, it is not extended, and the sweep is incomplete
    g = parse_group("C21")
    report = delta_star(g)
    assert not report.complete and report.evaluated_only
    assert [s for s, _ in report.skipped] == [(1,)]
    assert report.delta_star == (1, 5)
    assert all(1 not in s for s, _ in report.table)


def test_down_set_matches_unpruned_rows():
    # the rows the walk evaluates with a value other than 1 are exactly the
    # non-1 rows of the unpruned sweep over every orbit
    limits = Limits(max_sweep_order=16, max_support=16)
    walk_limits = Limits(max_sweep_order=1, max_support=16)  # above the cap: the table lists evaluated rows
    for g in small_group_list(12) + [parse_group("C4xC4")]:
        walk = delta_star(g, limits=walk_limits)
        unpruned = delta_star(g, limits=limits, prune=False)
        assert walk.evaluated_only and unpruned.complete, str(g)
        assert walk.complete and walk.delta_star == unpruned.delta_star, str(g)
        non_one = {s: v for s, v in walk.table if v != 1}
        assert non_one == {s: v for s, v in unpruned.table if v != 1}, str(g)


def test_above_cap_agrees_with_in_cap_sweep():
    for g in small_group_list(16):
        if g.order >= 11:
            in_cap = delta_star(g, limits=Limits(max_sweep_order=16))
            assert delta_star(g).delta_star == in_cap.delta_star, str(g)


def test_odd_order_mixed_coordinate_construction():
    # independent odd-order e1, e2 plus e0 = e1 + e2 forces minimal distance 1
    g = make_group([3, 9])
    subset = [g.element(1, 1), g.element(1, 0), g.element(0, 1)]
    assert min_delta(g, subset) == 1


def test_complete_report_invariants():
    from pmzs import davenport_monoid
    from helpers import small_group_list

    for group in small_group_list(9):
        report = delta_star(group)
        assert report.complete and report.skipped == ()
        if group.order >= 3:
            assert 1 in report.delta_star
        else:
            assert report.delta_star == ()
        if report.max_delta is not None:
            nonzero = [group.element_at(i) for i in range(1, group.order)]
            assert report.max_delta <= davenport_monoid(group, nonzero) - 2
        # odd-order element contributions are present
        for i in range(1, group.order):
            d = group.element_at(i).order()
            if d >= 3 and d % 2 == 1:
                assert d - 2 in report.delta_star


def test_automorphism_cap_refuses_before_the_search(monkeypatch):
    # C2^5 would try 32^5 image tuples; fresh Group instances show that the
    # refusal comes before the addition table is built or any per-index memo
    # is filled
    monkeypatch.setattr(Group, "_add_table", lambda self: pytest.fail(f"built the addition table of {self}"))
    for factors in ((2, 2, 2, 2, 2), (10**12,)):
        for sweep in (delta_star, _FoldedOrbits):
            g = Group(factors)
            with pytest.raises(ResourceLimitError, match="automorphism search"):
                sweep(g)
            assert not any(vars(g).get(memo) for memo in ("_elements", "_neg", "_shift_steps"))


def test_skipped_rows_for_resource_failures():
    # cap failures land in skipped rather than in the value table
    report = delta_star(parse_group("C30"))
    assert not report.complete and report.skipped
    assert all("cap" in reason for _, reason in report.skipped)
    assert not {s for s, _ in report.skipped} & {s for s, _ in report.table}


def test_report_json_schema():
    report = delta_star(parse_group("C5"))
    data = report.to_json_dict()
    assert data["group"] == "C5"
    assert data["complete"] is True
    assert data["delta_star"] == [1, 3]
    assert data["max"] == 3
    assert set(data["witnesses"]) == {"1", "3"}
    assert all(set(row) == {"subset", "min_delta"} for row in data["table"])
    assert data["skipped"] == []
