"""The verification suite behind the ``verify`` CLI command, and every check.

Runs the mechanical theorem checks over a family of groups plus a fixed set
of worked golden instances, and returns a deterministic report.  The target
``all-small`` covers every abelian group of order at most 10 together with
two targeted larger instances (a generator pair in C17 and a coset of an
index-2 subgroup of C2^4).  The theorem checks are also public one at a
time (``check_*``), as are the characterization records (``char_*``).

Every check's report is built by :func:`_run_check`.  A check is not
applicable to a group of the wrong type (decided first), to a partial
sweep, or when anything it reads is over a cap, with the cap's message as
the reason; so no cap ends a run, and ``verify`` exits 0 or 3.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import combinations_with_replacement
from typing import Iterator

from .atoms import AtomCache, AtomSet, atom_length_profile, davenport_monoid, enumerate_atoms
from .delta_star import DeltaStarReport, delta_star
from .errors import ResourceLimitError
from .groups import (
    Group,
    GroupElement,
    _Record,
    _prime_factorization,
    abelian_group_types,
    davenport,
    make_group,
)
from .limits import DEFAULT_LIMITS, Limits
from .notation import format_group, parse_group, parse_subset
from .relations import Factorizer, min_delta, min_delta_of_atoms, rho_k
from .sequences import Sequence


# -- check reports -----------------------------------------------------------------


PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


class CheckReport(_Record):
    """Outcome of one mechanical check; failures carry a concrete counterexample."""

    __slots__ = _fields = ("check_id", "group", "status", "details")

    def __init__(self, check_id: str, group: str, status: str, details: dict | None = None):
        self.check_id = check_id
        self.group = group
        self.status = status
        self.details = {} if details is None else details

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_id,
            "group": self.group,
            "status": self.status,
            "details": self.details,
        }


def _run_check(check_id: str, group_name: str, compute, *sweeps) -> CheckReport:
    """Run one check and build its report: pass or fail from ``compute``, or
    not applicable when the check cannot reach its values.

    ``sweeps`` are functions returning the delta-star reports the check reads,
    and ``compute`` takes those reports and returns ``(ok, details)``.  The
    check is not applicable, with the reason in its details, when one of the
    sweeps skipped a subset, or when anything it reads is over a cap (a sweep
    itself, or a value ``compute`` reads): then the reason is the message of
    the :class:`ResourceLimitError`.  Whether a check applies to the group's
    type is decided by its caller, before this runs.
    """
    try:
        reports = []
        for sweep in sweeps:
            report = sweep()
            if not report.complete:
                return CheckReport(check_id, group_name, NOT_APPLICABLE, {"reason": "sweep incomplete"})
            reports.append(report)
        ok, details = compute(*reports)
    except ResourceLimitError as exc:
        return CheckReport(check_id, group_name, NOT_APPLICABLE, {"reason": str(exc)})
    return CheckReport(check_id, group_name, PASS if ok else FAIL, details)


# -- theorem checks ----------------------------------------------------------------


def _given_or_swept(group: Group, report: DeltaStarReport | None, limits: Limits):
    """The sweep a theorem check reads: ``report``, or else a sweep of ``group`` under ``limits``."""
    return partial(delta_star, group, limits=limits) if report is None else lambda: report


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def check_odd_order_sandwich(group: Group, report: DeltaStarReport | None = None, *, limits: Limits = DEFAULT_LIMITS) -> CheckReport:
    """For odd group order: D1 <= computed set <= D2 and max = exponent - 2,

    where D1 = {d - 2 : d | exponent, d >= 3} and D2 = all divisors of D1
    members.
    """
    return _odd_order_sandwich(group, _given_or_swept(group, report, limits))


def _odd_order_sandwich(group: Group, sweep) -> CheckReport:
    name = format_group(group)
    if group.order % 2 == 0 or group.exponent < 3:
        return CheckReport("odd-order-sandwich", name, NOT_APPLICABLE)

    def compute(report):
        d1 = {d - 2 for d in _divisors(group.exponent) if d >= 3}
        d2 = {q for d in d1 for q in _divisors(d)}
        computed = set(report.delta_star)
        ok = d1 <= computed <= d2 and report.max_delta == group.exponent - 2
        details = {
            "computed": sorted(computed),
            "lower": sorted(d1),
            "upper": sorted(d2),
            "max_expected": group.exponent - 2,
            "max_computed": report.max_delta,
        }
        return ok, details

    return _run_check("odd-order-sandwich", name, compute, sweep)


def check_parity(group: Group, report: DeltaStarReport | None = None, *, limits: Limits = DEFAULT_LIMITS) -> CheckReport:
    """|G| even iff the computed set contains an even value (groups of order >= 5)."""
    return _parity(group, _given_or_swept(group, report, limits))


def _parity(group: Group, sweep) -> CheckReport:
    name = format_group(group)
    if group.order < 5:
        return CheckReport("parity-even-element", name, NOT_APPLICABLE)

    def compute(report):
        has_even = any(d % 2 == 0 for d in report.delta_star)
        details = {"computed": list(report.delta_star), "order_even": group.order % 2 == 0, "has_even": has_even}
        return has_even == (group.order % 2 == 0), details

    return _run_check("parity-even-element", name, compute, sweep)


def _odd_elementary_prime(group: Group) -> int | None:
    if group.rank == 0:
        return None
    factors = set(group.invariant_factors)
    if len(factors) != 1:
        return None
    (p,) = factors
    if p % 2 == 1 and _prime_factorization(p) == {p: 1}:
        return p
    return None


def check_elementary_p_gcd(group: Group, report: DeltaStarReport | None = None, *, limits: Limits = DEFAULT_LIMITS) -> CheckReport:
    """For odd elementary p-groups: the computed set equals all gcds of rank-many
    values drawn from the cyclic case."""
    return _elementary_p_gcd(group, _given_or_swept(group, report, limits), partial(delta_star, limits=limits))


def _elementary_p_gcd(group: Group, sweep, sweep_of) -> CheckReport:
    """The check on ``sweep``'s report, with ``sweep_of`` mapping the cyclic
    group C_p to the report of its sweep."""
    name = format_group(group)
    p = _odd_elementary_prime(group)
    if p is None:
        return CheckReport("elementary-p-gcd", name, NOT_APPLICABLE)

    def compute(report, base):
        combos = {math.gcd(*combo) for combo in combinations_with_replacement(base.delta_star, group.rank)}
        computed = set(report.delta_star)
        details = {"computed": sorted(computed), "gcd_combinations": sorted(combos), "cyclic": list(base.delta_star)}
        return computed == combos, details

    return _run_check("elementary-p-gcd", name, compute, sweep, partial(sweep_of, make_group([p])))


# -- the suite ---------------------------------------------------------------------


def small_groups(max_order: int) -> list[Group]:
    """All abelian groups of order 2 through max_order, in a fixed order."""
    out = []
    for order in range(2, max_order + 1):
        for factors in abelian_group_types(order):
            out.append(make_group(factors))
    return out


def _delta_star_floor(group: Group, report: DeltaStarReport) -> tuple[bool, dict]:
    """Distance set empty iff |G| <= 2; otherwise 1 is the minimum."""
    if group.order <= 2:
        ok = report.delta_star == ()
    else:
        ok = bool(report.delta_star) and report.delta_star[0] == 1
    return ok, {"computed": list(report.delta_star)}


def _delta_star_ceiling(d_monoid, report: DeltaStarReport) -> tuple[bool, dict]:
    """max Delta* <= D(B(G)) - 2, where ``d_monoid`` returns that constant."""
    if report.max_delta is None:
        return True, {"computed": None}
    monoid = d_monoid()
    return report.max_delta <= monoid - 2, {"max": report.max_delta, "monoid_davenport": monoid}


def _element_order_distances(group: Group, report: DeltaStarReport) -> tuple[bool, dict]:
    """Every odd element order d >= 3 contributes d - 2 to the distance sweep."""
    expected = set()
    for i in range(1, group.order):
        d = group.element_at(i).order()
        if d >= 3 and d % 2 == 1:
            expected.add(d - 2)
    ok = expected <= set(report.delta_star)
    return ok, {"expected_subset": sorted(expected), "computed": list(report.delta_star)}


def _davenport_checks(group: Group, nonzero, d_monoid, limits: Limits, cache) -> list[CheckReport]:
    """The checks of D(B(G)) that apply to the group's type; ``nonzero``
    returns G minus 0 and ``d_monoid`` returns that constant."""
    name = format_group(group)

    def odd():
        monoid, d_group = d_monoid(), davenport(group)
        return monoid == d_group, {"monoid": monoid, "group": d_group}

    def even_cyclic():
        monoid, expected = d_monoid(), group.order // 2 + 1
        return monoid == expected, {"monoid": monoid, "expected": expected}

    def rho2():
        monoid = d_monoid()
        r2 = rho_k(group, nonzero(), 2, limits=limits, cache=cache)
        return r2 == monoid, {"rho2": r2, "monoid": monoid}

    out = []
    if group.order % 2 == 1 and group.order > 1:
        out.append(_run_check("monoid-davenport-odd", name, odd))
    if group.rank == 1 and group.order % 2 == 0:
        out.append(_run_check("monoid-davenport-even-cyclic", name, even_cyclic))
    if group.order <= 8:
        out.append(_run_check("rho2-davenport", name, rho2))
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
    maxima = {name: rep.max_delta for name, rep in reports.items() if rep.complete}

    def classification(value, expected):
        got = {name for name, m in maxima.items() if m == value}
        return got == expected, {"expected": sorted(expected), "computed": sorted(got)}

    max1_expected = {name for name in maxima if parse_group(name).exponent == 3 or name in ("C2xC2", "C4")}
    max2_expected = {"C2xC2xC2", "C2xC4"} & maxima.keys()
    return [
        _run_check("small-max-1-classification", "all-small", partial(classification, 1, max1_expected)),
        _run_check("small-max-2-classification", "all-small", partial(classification, 2, max2_expected)),
    ]


def _golden_min_distances(limits: Limits, cache) -> list[CheckReport]:
    def min_delta_is(expected, order, *generators):
        group = make_group([order])
        value = min_delta(group, [group.element(k) for k in generators], limits=limits, cache=cache)
        return value == expected, {"expected": expected}

    def coset():
        g16 = make_group([2, 2, 2, 2])
        ground = [g16.element(1, a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        atoms = enumerate_atoms(g16, ground, limits=limits, cache=cache)
        md, gcd = min_delta_of_atoms(atoms), atom_length_profile(atoms).gcd_lengths_minus_2
        details = {"expected": {"min_delta": 1, "gcd_lengths_minus_2": 2},
                   "computed": {"min_delta": md, "gcd_lengths_minus_2": gcd}}
        return md == 1 and gcd == 2, details

    return [
        _run_check("golden-min-delta", "C5{e}", partial(min_delta_is, 3, 5, 1)),
        _run_check("golden-min-delta", "C8{e,3e}", partial(min_delta_is, 2, 8, 1, 3)),
        _run_check("golden-min-delta", "C17{e,4e}", partial(min_delta_is, 3, 17, 1, 4)),
        _run_check("golden-min-delta", "C2^4 coset", coset),
    ]


def _single_generator_law(limits: Limits) -> CheckReport:
    """Atoms over a single generator: {g^2, g^ord} for odd order, {g^2} otherwise.

    g and -g fold onto one ground set, and the fold keeps lengths and min
    delta, so each pair is computed once; a failure is still reported for
    each element.
    """

    def compute():
        failures = []
        for group in small_groups(16):
            neg = group._neg
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
        return not failures, {"failures": failures}

    return _run_check("single-generator-law", "order<=16", compute)


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

    def compute():
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
        return not failures, {"failures": failures}

    return _run_check("atom-square-lengths", "golden+order<=8", compute)


def _paired_generator_squares(limits: Limits, cache) -> list[CheckReport]:
    def square_lengths(factors, items, expected):
        group = make_group(factors)
        subset = [group.element(*coords) for coords, _ in items]
        atoms = enumerate_atoms(group, subset, limits=limits, cache=cache)
        u = Sequence.from_items(group, [(g, k) for g, (_, k) in zip(subset, items)])
        lengths = list(Factorizer(atoms).length_set(u.power(2)))
        return lengths == expected, {"expected": expected, "computed": lengths}

    return [
        _run_check("u-square-lengths", "C3xC6{e1+e2,e2}",
                   partial(square_lengths, [3, 6], [((1, 1), 3), ((0, 1), 3)], [2, 6])),
        _run_check("u-square-lengths", "C4^2 even construction",
                   partial(square_lengths, [4, 4], [((2, 2), 1), ((1, 0), 2), ((0, 1), 2)], [2, 5])),
    ]


class SuiteResult(_Record):
    """The suite on ``target`` (a group literal or ``all-small``): a tuple of
    :class:`CheckReport` and a dict group name -> :class:`DeltaStarReport`."""

    __slots__ = _fields = ("target", "checks", "reports")

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

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
    reports: dict[str, DeltaStarReport],
    *,
    limits: Limits = DEFAULT_LIMITS,
    map_rows=map,
    prune: bool = True,
    cache: AtomCache | None = None,
) -> list[CheckReport]:
    """The checks of one group.

    The delta-star sweep, G minus 0 and D(B(G)) are computed once, when a
    check first reads them, and the sweep's report enters ``reports`` under
    the group's name.  The elementary-p check reads the sweep of C_p from
    ``reports`` when it is there, and otherwise sweeps C_p as G is swept,
    without adding it, so the suite reports the same sweeps either way.
    G minus 0 reads the sweep first, so a refused sweep refuses it and
    D(B(G)) with the same message, and nothing of size |G| is built for a
    group the sweep refuses.  A refusal leaves no value (and no entry), so
    each check that reads the value meets the refusal again; the caps are
    checked before their searches start, so that costs microseconds.
    """
    name = format_group(group)
    run = partial(delta_star, limits=limits, map_rows=map_rows, prune=prune, cache=cache)

    def sweep() -> DeltaStarReport:
        if name not in reports:
            reports[name] = run(group)
        return reports[name]

    def sweep_of(other: Group) -> DeltaStarReport:
        known = reports.get(format_group(other))
        return run(other) if known is None else known

    @lru_cache(maxsize=None)
    def nonzero() -> list[GroupElement]:
        sweep()
        return [group.element_at(i) for i in range(1, group.order)]

    @lru_cache(maxsize=None)
    def d_monoid() -> int:
        return davenport_monoid(group, nonzero(), limits=limits, cache=cache)

    return [
        _run_check("delta-star-floor", name, partial(_delta_star_floor, group), sweep),
        _run_check("delta-star-ceiling", name, partial(_delta_star_ceiling, d_monoid), sweep),
        _run_check("element-order-distances", name, partial(_element_order_distances, group), sweep),
        _odd_order_sandwich(group, sweep),
        _parity(group, sweep),
        _elementary_p_gcd(group, sweep, sweep_of),
        *_davenport_checks(group, nonzero, d_monoid, limits, cache),
    ]


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
            checks.extend(group_checks(group, reports, limits=limits, map_rows=map_rows, prune=prune, cache=cache))
        checks.extend(_small_max_classification(reports))
        checks.extend(_golden_min_distances(limits, cache))
        checks.append(_single_generator_law(limits))
        checks.append(_atom_square_lengths(limits, cache))
        checks.extend(_paired_generator_squares(limits, cache))
    else:
        group = parse_group(target)
        checks.extend(group_checks(group, reports, limits=limits, map_rows=map_rows, prune=prune, cache=cache))
    return SuiteResult(target=target, checks=tuple(checks), reports=reports)


# -- characterization invariants ----------------------------------------------------


class CharReport(_Record):
    """Length-system invariants used for telling groups apart: ``group`` is a
    literal, ``delta_star`` a sorted tuple, ``max_delta_star`` an int or None,
    ``has_even_delta`` and ``complete`` (nothing skipped) bools, the rest ints."""

    __slots__ = _fields = (
        "group", "order", "exponent", "davenport_group", "davenport_monoid",
        "delta_star", "max_delta_star", "has_even_delta", "complete",
    )

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "order": self.order,
            "exponent": self.exponent,
            "davenport_group": self.davenport_group,
            "davenport_monoid": self.davenport_monoid,
            "delta_star": list(self.delta_star),
            "max_delta_star": self.max_delta_star,
            "has_even_delta": self.has_even_delta,
            "complete": self.complete,
        }


class CharComparison(_Record):
    """Two :class:`CharReport` records, the tuple of the invariants that tell
    them apart (empty when none does) and a note on what was compared."""

    __slots__ = _fields = ("first", "second", "distinguished_by", "note")

    @property
    def indistinguishable(self) -> bool:
        return not self.distinguished_by

    def to_json_dict(self) -> dict:
        return {
            "first": self.first.group,
            "second": self.second.group,
            "distinguished_by": list(self.distinguished_by),
            "indistinguishable": self.indistinguishable,
            "note": self.note,
        }


def char_invariants(group: Group, *, limits: Limits = DEFAULT_LIMITS, cache: AtomCache | None = None) -> CharReport:
    report = delta_star(group, limits=limits, cache=cache)
    nonzero = [group.element_at(i) for i in range(1, group.order)]
    d_monoid = davenport_monoid(group, nonzero, limits=limits, cache=cache)
    return CharReport(
        group=format_group(group),
        order=group.order,
        exponent=group.exponent,
        davenport_group=davenport(group),
        davenport_monoid=d_monoid,
        delta_star=report.delta_star,
        max_delta_star=report.max_delta,
        has_even_delta=any(d % 2 == 0 for d in report.delta_star),
        complete=report.complete,
    )


def char_compare(first: CharReport, second: CharReport) -> CharComparison:
    """Which length-system invariants separate the two groups.

    Uses the parity of the distance set, the exponent recovered as
    max + 2 for groups of odd order, and the monoid Davenport constant
    (recoverable from lengths via the second local elasticity).  Full distance
    sets are reported but not compared: for equal length systems they are only
    known to agree above half their maximum.
    """
    distinguished = []
    if first.has_even_delta != second.has_even_delta:
        distinguished.append("delta-star-parity")
    both_odd = not first.has_even_delta and not second.has_even_delta
    if both_odd and first.order % 2 == 1 and second.order % 2 == 1:
        if first.max_delta_star != second.max_delta_star:
            distinguished.append("exponent-via-max-delta-star")
    if first.davenport_monoid != second.davenport_monoid:
        distinguished.append("monoid-davenport-via-rho2")
    note = (
        "full distance sets are only comparable above half their maximum; "
        "values below that threshold are informational"
    )
    return CharComparison(first, second, tuple(distinguished), note)
