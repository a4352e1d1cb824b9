"""Orbit reduction, sweeps, theorem checkers, characterization reports."""

import random
from itertools import combinations

from pmzs import (
    Limits,
    canonical_subset,
    char_compare,
    char_invariants,
    check_elementary_p_gcd,
    check_odd_order_sandwich,
    check_parity,
    delta_star,
    make_group,
    min_delta,
    parse_group,
    subset_orbits,
)
from pmzs.delta_star import NOT_APPLICABLE, PASS, _heuristic_subsets
from pmzs.groups import automorphisms
from helpers import small_group_list


def indices(group, *coords_list):
    return tuple(sorted(group.element(c).index for c in coords_list))


def test_subset_orbits_c3():
    g = make_group([3])
    assert subset_orbits(g) == [(1,)]


def test_subset_orbits_c5():
    g = make_group([5])
    orbits = subset_orbits(g)
    assert orbits == [(1,), (1, 2)]


def test_subset_orbits_c2xc2():
    g = make_group([2, 2])
    orbits = subset_orbits(g)
    assert len(orbits) == 3
    assert orbits[0] == (1,)
    assert sorted(len(o) for o in orbits) == [1, 2, 3]


def test_orbit_members_share_min_delta():
    rng = random.Random(23)
    for spec in ("C7", "C8", "C3xC3"):
        group = parse_group(spec)
        auts = automorphisms(group)
        nonzero = list(range(1, group.order))
        for _ in range(5):
            subset = tuple(sorted(rng.sample(nonzero, rng.randrange(1, 4))))
            rep = canonical_subset(group, subset, auts)
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
    # C4xC4 adds a representative skipped by the support cap on both paths
    cases = [(g, Limits(max_sweep_order=12)) for g in small_group_list(12)]
    cases.append((parse_group("C4xC4"), Limits(max_sweep_order=16)))
    for g, limits in cases:
        pruned = delta_star(g, limits=limits, prune=True).to_json_dict()
        assert pruned == delta_star(g, limits=limits, prune=False).to_json_dict(), str(g)
    assert pruned["complete"] is False and len(pruned["skipped"]) == 1


def test_subset_orbits_match_unfolded_enumeration():
    # the orbits come from the folded universe; the reference canonicalizes
    # every nonempty subset of G minus 0
    for group in small_group_list(12):
        auts = automorphisms(group)
        nonzero = range(1, group.order)
        images = {
            canonical_subset(group, subset, auts)
            for size in range(1, group.order)
            for subset in combinations(nonzero, size)
        }
        assert subset_orbits(group) == sorted(images, key=lambda s: (len(s), s)), str(group)


def test_parallel_sweep_deterministic():
    g = parse_group("C9")
    serial = delta_star(g, jobs=1).to_json_dict()
    parallel = delta_star(g, jobs=4).to_json_dict()
    assert serial == parallel


def test_partial_sweep_above_cap():
    g = parse_group("C12")
    report = delta_star(g)
    assert not report.complete
    table = dict(report.table)
    assert table, "targeted mode still evaluates a heuristic family"
    # the even-order construction {e, 6e} with m = 6 gives distance m - 1 = 5
    pair = indices(g, (1,), (6,))
    assert table.get(pair) == 5
    assert any(len(s) == 1 for s in table)


def test_heuristic_family_shapes():
    from pmzs import DEFAULT_LIMITS

    g = parse_group("C12")
    family = _heuristic_subsets(g, DEFAULT_LIMITS)
    assert all(1 <= len(s) <= 2 for s in family)


def test_user_supplied_subsets():
    g = parse_group("C17")
    report = delta_star(g, subsets=[(1, 4)])
    assert not report.complete
    assert report.delta_star == (3,)


def test_check_odd_order_sandwich():
    assert check_odd_order_sandwich(parse_group("C5")).status == PASS
    assert check_odd_order_sandwich(parse_group("C9")).status == PASS
    assert check_odd_order_sandwich(parse_group("C3xC3")).status == PASS
    assert check_odd_order_sandwich(parse_group("C8")).status == NOT_APPLICABLE
    report = check_odd_order_sandwich(parse_group("C5"))
    assert report.details["lower"] == [3] and report.details["upper"] == [1, 3]


def test_check_parity():
    assert check_parity(parse_group("C8")).status == PASS
    assert check_parity(parse_group("C7")).status == PASS
    assert check_parity(parse_group("C6")).status == PASS
    assert check_parity(parse_group("C3xC6")).status == NOT_APPLICABLE  # order 18 over sweep cap
    assert check_parity(parse_group("C4")).status == NOT_APPLICABLE
    assert check_parity(parse_group("C10")).status == PASS


def test_check_elementary_p():
    assert check_elementary_p_gcd(parse_group("C3xC3")).status == PASS
    assert check_elementary_p_gcd(parse_group("C5")).status == PASS
    assert check_elementary_p_gcd(parse_group("C9")).status == NOT_APPLICABLE
    assert check_elementary_p_gcd(parse_group("C2xC2")).status == NOT_APPLICABLE


def test_odd_order_mixed_coordinate_construction():
    # independent odd-order e1, e2 plus e0 = e1 + e2 forces minimal distance 1
    g = make_group([3, 9])
    subset = [g.element(1, 1), g.element(1, 0), g.element(0, 1)]
    assert min_delta(g, subset) == 1


def test_parity_via_even_order_construction_c3xc6():
    # order 18 is over the sweep cap, but the order-6 element contributes the
    # even distance m - 1 = 2 through the subset {3e2, e2}
    g = parse_group("C3xC6")
    assert min_delta(g, [g.element(0, 3), g.element(0, 1)]) == 2


def test_char_invariants_and_compare():
    c9 = char_invariants(parse_group("C9"))
    c33 = char_invariants(parse_group("C3xC3"))
    cmp_reports = char_compare(c9, c33)
    assert "exponent-via-max-delta-star" in cmp_reports.distinguished_by
    assert "monoid-davenport-via-rho2" in cmp_reports.distinguished_by

    c5 = char_invariants(parse_group("C5"))
    c7 = char_invariants(parse_group("C7"))
    assert "exponent-via-max-delta-star" in char_compare(c5, c7).distinguished_by

    c3 = char_invariants(parse_group("C3"))
    c22 = char_invariants(parse_group("C2xC2"))
    verdict = char_compare(c3, c22)
    assert verdict.indistinguishable

    c8 = char_invariants(parse_group("C8"))
    assert "delta-star-parity" in char_compare(c8, c7).distinguished_by


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


def test_orbit_fallback_without_automorphisms():
    # order 64 is over the automorphism cap, so canonicalization falls back
    # to sign folding; a pair of independent involution-free generators still
    # evaluates fine in targeted mode
    g = make_group([2, 2, 2, 2, 2, 2])
    report = delta_star(g, subsets=[(1, 2), (2, 1)])
    assert not report.complete
    assert dict(report.table) == {(1, 2): None}


def test_skipped_rows_for_resource_failures():
    # D(C64) = 64 exceeds the atom length cap, so the targeted subset lands
    # in skipped rather than in the value table
    g = make_group([64])
    report = delta_star(g, subsets=[(1, 31)])
    assert report.table == ()
    assert len(report.skipped) == 1 and "cap" in report.skipped[0][1]


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
