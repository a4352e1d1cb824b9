"""The one-shot verification suite behind the ``verify`` CLI command.

Runs the mechanical theorem checks over a family of groups plus a fixed set
of worked golden instances, and returns a deterministic report.  The target
``all-small`` covers every abelian group of order at most 10 together with
two targeted larger instances (a generator pair in C17 and a coset of an
index-2 subgroup of C2^4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .atoms import AtomCache, AtomSet, atom_length_profile, davenport_monoid, enumerate_atoms
from .delta_star import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    CheckReport,
    DeltaStarReport,
    check_elementary_p_gcd,
    check_odd_order_sandwich,
    check_parity,
    delta_star,
)
from .groups import Group, abelian_group_types, davenport, make_group
from .limits import DEFAULT_LIMITS, Limits
from .notation import format_group, parse_group, parse_subset
from .relations import Factorizer, min_delta, min_delta_of_atoms, rho_k
from .sequences import Sequence


def small_groups(max_order: int) -> list[Group]:
    """All abelian groups of order 2 through max_order, in a fixed order."""
    out = []
    for order in range(2, max_order + 1):
        for factors in abelian_group_types(order):
            out.append(make_group(factors))
    return out


def _check(check_id: str, group_name: str, ok: bool, details: dict) -> CheckReport:
    return CheckReport(check_id, group_name, PASS if ok else FAIL, details)


def _delta_star_floor(group: Group, report: DeltaStarReport) -> CheckReport:
    """Distance set empty iff |G| <= 2; otherwise 1 is the minimum."""
    name = format_group(group)
    if group.order <= 2:
        ok = report.delta_star == ()
        return _check("delta-star-floor", name, ok, {"computed": list(report.delta_star)})
    ok = bool(report.delta_star) and report.delta_star[0] == 1
    return _check("delta-star-floor", name, ok, {"computed": list(report.delta_star)})


def _delta_star_ceiling(group: Group, report: DeltaStarReport, limits: Limits, cache) -> CheckReport:
    name = format_group(group)
    if report.max_delta is None:
        return CheckReport("delta-star-ceiling", name, PASS, {"computed": None})
    nonzero = [group.element_at(i) for i in range(1, group.order)]
    d_monoid = davenport_monoid(group, nonzero, limits=limits, cache=cache)
    ok = report.max_delta <= d_monoid - 2
    return _check(
        "delta-star-ceiling", name, ok, {"max": report.max_delta, "monoid_davenport": d_monoid}
    )


def _element_order_distances(group: Group, report: DeltaStarReport) -> CheckReport:
    """Every odd element order d >= 3 contributes d - 2 to the distance sweep."""
    name = format_group(group)
    expected = set()
    for i in range(1, group.order):
        d = group.element_at(i).order()
        if d >= 3 and d % 2 == 1:
            expected.add(d - 2)
    ok = expected <= set(report.delta_star)
    return _check(
        "element-order-distances", name, ok,
        {"expected_subset": sorted(expected), "computed": list(report.delta_star)},
    )


def _davenport_checks(group: Group, limits: Limits, cache) -> list[CheckReport]:
    name = format_group(group)
    out = []
    nonzero = [group.element_at(i) for i in range(1, group.order)]
    d_monoid = davenport_monoid(group, nonzero, limits=limits, cache=cache)
    if group.order % 2 == 1 and group.order > 1:
        d_group = davenport(group)
        out.append(_check(
            "monoid-davenport-odd", name, d_monoid == d_group,
            {"monoid": d_monoid, "group": d_group},
        ))
    if group.rank == 1 and group.order % 2 == 0:
        m = group.order // 2
        out.append(_check(
            "monoid-davenport-even-cyclic", name, d_monoid == m + 1,
            {"monoid": d_monoid, "expected": m + 1},
        ))
    if group.order <= 8:
        r2 = rho_k(group, nonzero, 2, limits=limits, cache=cache)
        out.append(_check("rho2-davenport", name, r2 == d_monoid, {"rho2": r2, "monoid": d_monoid}))
    return out


def _small_max_classification(reports: dict[str, DeltaStarReport]) -> list[CheckReport]:
    """Classification of the groups whose maximal value is 1 or 2.

    Checked strictly over every complete sweep: max 1 is expected exactly for
    exponent-3 groups, C2xC2 and C4, and max 2 exactly for C2^3 and C2xC4.
    Known discrepancy: the sweep finds max = 2 for C6 as well (witness
    {e, 3e}, forced by the even-order construction together with the monoid
    Davenport constant 4), so the max = 2 case reports C6 as a
    counterexample.
    """
    max1_expected = set()
    max2_expected = {"C2xC2xC2", "C2xC4"}
    for name in reports:
        if parse_group(name).exponent == 3 or name in ("C2xC2", "C4"):
            max1_expected.add(name)
    max1_got = {name for name, rep in reports.items() if rep.max_delta == 1}
    max2_got = {name for name, rep in reports.items() if rep.max_delta == 2}
    out = [
        _check(
            "small-max-1-classification", "all-small", max1_got == max1_expected,
            {"expected": sorted(max1_expected), "computed": sorted(max1_got)},
        ),
        _check(
            "small-max-2-classification", "all-small", max2_got == max2_expected,
            {"expected": sorted(max2_expected), "computed": sorted(max2_got)},
        ),
    ]
    return out


def _golden_min_distances(limits: Limits, cache) -> list[CheckReport]:
    out = []
    g5 = make_group([5])
    out.append(_check(
        "golden-min-delta", "C5{e}",
        min_delta(g5, [g5.element(1)], limits=limits, cache=cache) == 3, {"expected": 3},
    ))
    g8 = make_group([8])
    out.append(_check(
        "golden-min-delta", "C8{e,3e}",
        min_delta(g8, [g8.element(1), g8.element(3)], limits=limits, cache=cache) == 2,
        {"expected": 2},
    ))
    g17 = make_group([17])
    out.append(_check(
        "golden-min-delta", "C17{e,4e}",
        min_delta(g17, [g17.element(1), g17.element(4)], limits=limits, cache=cache) == 3,
        {"expected": 3},
    ))
    g16 = make_group([2, 2, 2, 2])
    coset = [g16.element(1, a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    atoms = enumerate_atoms(g16, coset, limits=limits, cache=cache)
    profile = atom_length_profile(atoms)
    ok = min_delta_of_atoms(atoms) == 1 and profile.gcd_lengths_minus_2 == 2
    out.append(_check(
        "golden-min-delta", "C2^4 coset", ok,
        {"expected": {"min_delta": 1, "gcd_lengths_minus_2": 2},
         "computed": {"min_delta": min_delta_of_atoms(atoms),
                      "gcd_lengths_minus_2": profile.gcd_lengths_minus_2}},
    ))
    return out


def _single_generator_law(limits: Limits) -> CheckReport:
    """Atoms over a single generator: {g^2, g^ord} for odd order, {g^2} otherwise.

    g and -g fold onto one ground set, and the fold keeps lengths and min
    delta, so each pair is computed once; a failure is still reported for
    each element.
    """
    failures = []
    for group in small_groups(16):
        neg = group._neg_table
        by_fold: dict[int, tuple[list[int], int | None]] = {}
        for i in range(1, group.order):
            g = group.element_at(i)
            d = g.order()
            j = min(i, neg[i])
            if j not in by_fold:
                atoms = enumerate_atoms(group, [group.element_at(j)], limits=limits)
                by_fold[j] = sorted(atoms.lengths()), min_delta_of_atoms(atoms)
            lengths, md = by_fold[j]
            if d % 2 == 1:
                ok = lengths == [2, d] and md == d - 2
            else:
                ok = lengths == [2] and md is None
            if not ok:
                failures.append({"group": format_group(group), "element": str(g),
                                 "lengths": lengths, "min_delta": md})
    return _check("single-generator-law", "order<=16", not failures, {"failures": failures})


def _square_length_instances(limits: Limits, cache) -> Iterator[tuple[str, AtomSet]]:
    """The atom sets whose atoms the square-length check covers: three golden
    subsets, then G minus 0 for every group of order at most 8."""
    for spec, subset_literal in (("C5", "[(1)]"), ("C8", "[(1),(3)]"), ("C17", "[(1),(4)]")):
        group = parse_group(spec)
        yield spec, enumerate_atoms(group, parse_subset(group, subset_literal), limits=limits, cache=cache)
    for group in small_groups(8):
        nonzero = [group.element_at(i) for i in range(1, group.order)]
        yield format_group(group), enumerate_atoms(group, nonzero, limits=limits, cache=cache)


def _atom_square_lengths(limits: Limits, cache) -> CheckReport:
    """L(A^2) contains {2, |A|} for every atom with 0 outside the support.

    The fold phi is a transfer homomorphism, so L(A^2) = L(phi(A)^2): one
    length query per folded atom covers all of its lifts.  A failure still
    lists every lifted atom over the failing folded one.
    """
    failures = []
    for name, atoms in _square_length_instances(limits, cache):
        fz = Factorizer(atoms)
        failing = {}
        for vec in atoms.folded:
            lengths = fz._folded_mask(tuple(2 * c for c in vec))
            if not (lengths >> 2 & 1 and lengths >> sum(vec) & 1):
                failing[vec] = [length for length in range(lengths.bit_length()) if lengths >> length & 1]
        if failing:
            for k, vec in enumerate(atoms.vectors):
                lengths = failing.get(fz._fold(vec))
                if lengths is not None:
                    failures.append({"group": name, "atom": str(atoms.sequence(k)), "lengths": lengths})
    return _check("atom-square-lengths", "golden+order<=8", not failures, {"failures": failures})


def _paired_generator_squares(limits: Limits, cache) -> list[CheckReport]:
    out = []
    g36 = make_group([3, 6])
    subset = [g36.element(1, 1), g36.element(0, 1)]
    atoms = enumerate_atoms(g36, subset, limits=limits, cache=cache)
    u = Sequence.from_items(g36, [(g36.element(1, 1), 3), (g36.element(0, 1), 3)])
    lengths = Factorizer(atoms).length_set(u.power(2))
    out.append(_check(
        "u-square-lengths", "C3xC6{e1+e2,e2}", tuple(lengths) == (2, 6),
        {"expected": [2, 6], "computed": list(lengths)},
    ))
    g44 = make_group([4, 4])
    subset44 = [g44.element(2, 2), g44.element(1, 0), g44.element(0, 1)]
    atoms44 = enumerate_atoms(g44, subset44, limits=limits, cache=cache)
    u44 = Sequence.from_items(g44, [(g44.element(2, 2), 1), (g44.element(1, 0), 2), (g44.element(0, 1), 2)])
    lengths44 = Factorizer(atoms44).length_set(u44.power(2))
    out.append(_check(
        "u-square-lengths", "C4^2 even construction", tuple(lengths44) == (2, 5),
        {"expected": [2, 5], "computed": list(lengths44)},
    ))
    return out


@dataclass(frozen=True)
class SuiteResult:
    target: str
    checks: tuple[CheckReport, ...]
    reports: dict[str, DeltaStarReport]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[CheckReport]:
        return [c for c in self.checks if c.status == FAIL]

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "passed": self.passed,
            "counts": {
                "pass": sum(1 for c in self.checks if c.status == PASS),
                "fail": sum(1 for c in self.checks if c.status == FAIL),
                "not_applicable": sum(1 for c in self.checks if c.status == NOT_APPLICABLE),
            },
            "checks": [c.to_json_dict() for c in self.checks],
            "sweeps": {name: rep.to_json_dict() for name, rep in sorted(self.reports.items())},
        }


def group_checks(
    group: Group,
    *,
    limits: Limits = DEFAULT_LIMITS,
    map_rows=map,
    prune: bool = True,
    cache: AtomCache | None = None,
) -> tuple[list[CheckReport], DeltaStarReport]:
    report = delta_star(group, limits=limits, map_rows=map_rows, prune=prune, cache=cache)
    checks = [
        _delta_star_floor(group, report),
        _delta_star_ceiling(group, report, limits, cache),
        _element_order_distances(group, report),
        check_odd_order_sandwich(group, report, limits=limits),
        check_parity(group, report, limits=limits),
        check_elementary_p_gcd(group, report, limits=limits),
    ]
    checks.extend(_davenport_checks(group, limits, cache))
    return checks, report


def run_suite(
    target: str,
    *,
    limits: Limits = DEFAULT_LIMITS,
    map_rows=map,
    prune: bool = True,
    cache: AtomCache | None = None,
) -> SuiteResult:
    """Run the verification suite for one group literal or for ``all-small``;
    every sweep maps its rows through ``map_rows`` (see :func:`delta_star`)."""
    checks: list[CheckReport] = []
    reports: dict[str, DeltaStarReport] = {}
    if target == "all-small":
        for group in small_groups(10):
            group_result, report = group_checks(group, limits=limits, map_rows=map_rows, prune=prune, cache=cache)
            checks.extend(group_result)
            reports[format_group(group)] = report
        checks.extend(_small_max_classification(reports))
        checks.extend(_golden_min_distances(limits, cache))
        checks.append(_single_generator_law(limits))
        checks.append(_atom_square_lengths(limits, cache))
        checks.extend(_paired_generator_squares(limits, cache))
    else:
        group = parse_group(target)
        group_result, report = group_checks(group, limits=limits, map_rows=map_rows, prune=prune, cache=cache)
        checks.extend(group_result)
        reports[format_group(group)] = report
    return SuiteResult(target=target, checks=tuple(checks), reports=reports)
