"""The set of minimal distances over all divisor-closed submonoids.

Every divisor-closed submonoid of the signed zero-sum monoid over G is the
signed zero-sum monoid over some subset of G, so the set of minimal distances
is swept by computing min Delta over subsets of the nonzero elements.  Two
facts about these monoids decide the sweep:

* orbit reduction: an automorphism of G maps the monoid over S isomorphically
  onto the monoid over phi(S), and folding an element onto its negative
  preserves all sets of lengths, so one canonical representative per orbit of
  subsets of the folded universe is evaluated.  Subsets are bitmasks with the
  least element in the highest bit, so the canonical form (the least sorted
  image) is the largest image mask, and an image mask is a sum of image bits.
  The listing of every orbit walks the masks upwards and lists each orbit
  once, from its first mask, at one pass over the maps per orbit;
* the down-set: for S a subset of T, the monoid over S is divisor-closed in
  the monoid over T, so Delta(S) is contained in Delta(T).  The lattice
  computation yields gcd Delta, which equals min Delta, so the subsets whose
  value is not 1 (min Delta >= 2 or an empty distance set) are closed under
  taking subsets; Delta* minus {1} is read off them.

The sweep walks that down-set level by level (Apriori candidate generation
with canonical augmentation).  Level 1 is the canonical singletons; the
candidates of size k + 1 are the canonical one-element extensions of level-k
rows whose value is not 1, kept only if every one-smaller subset canonicalizes
into the down-set.  Every cap grows with the subset (support size, D(<S>),
the Davenport-order test), so a row skipped over a cap is not extended.

Up to ``max_sweep_order`` the table lists every orbit: a row the walk did not
evaluate has a subset with value 1 and gets 1, or is skipped when over a cap.
Above it the table lists the evaluated rows only.  ``prune=False`` evaluates
every orbit representative, as a reference path.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from itertools import combinations_with_replacement
from operator import itemgetter

from .atoms import AtomCache, check_atom_caps, davenport_monoid
from .errors import ResourceLimitError
from .groups import (
    Group,
    GroupElement,
    _Record,
    automorphisms,
    davenport,
    fold_negatives,
    make_group,
    _prime_factorization,
)
from .limits import DEFAULT_LIMITS, Limits
from .notation import format_group, subset_to_json
from .relations import min_delta


# -- canonical subsets and orbits -------------------------------------------------


def folded_automorphisms(group: Group) -> list[tuple[int, ...]]:
    """The maps i -> min(p[i], -p[i]) over the automorphisms p of G.

    p and -p give the same map, so there are half as many maps as
    automorphisms unless negation is the identity.
    """
    auts = automorphisms(group)  # refused before any table is built
    neg = group._neg
    fold = [min(j, neg[j]) for j in range(group.order)]
    return list({tuple(map(fold.__getitem__, perm)) for perm in auts})


class _FoldedOrbits:
    """Subsets of the folded universe as bitmasks, and their orbits under the folded maps.

    The folded universe u_0 < ... < u_{k-1} gives u_r the bit 1 << (k - 1 - r).
    Of two subsets of one size, the smaller sorted tuple then has the larger
    mask (the least element of their symmetric difference is the highest bit
    where they differ), so the least sorted image of a subset is its largest
    image mask.  A map becomes a tuple of image bits indexed by element index;
    a map is injective on a folded subset, so an image mask is the sum of the
    image bits of its members.
    """

    def __init__(self, group: Group, maps: list[tuple[int, ...]]):
        self.universe = fold_negatives(group, range(1, group.order))
        k = len(self.universe)
        self.units = tuple(1 << (k - 1 - r) for r in range(k))
        self.bit_of = [0] * group.order
        for u, unit in zip(self.universe, self.units):
            self.bit_of[u] = unit
        self.bit_maps = [tuple(map(self.bit_of.__getitem__, m)) for m in maps]
        self._canonical: dict[int, int] = {}

    def members(self, mask: int) -> tuple[int, ...]:
        return tuple(u for u, unit in zip(self.universe, self.units) if mask & unit)

    def images(self, mask: int):
        """The image masks of a nonempty mask under every map; index 0, the zero
        element with image bit 0, keeps the getter's result a tuple."""
        return map(sum, map(itemgetter(0, *self.members(mask)), self.bit_maps))

    def canonical(self, mask: int) -> int:
        found = self._canonical.get(mask)
        if found is None:
            found = self._canonical[mask] = max(self.images(mask))
        return found

    @cached_property
    def representatives(self) -> list[int]:
        """The canonical mask of every orbit of nonempty subsets, in table order.

        Masks are walked upwards and each orbit is listed once, from its first
        mask: its images are marked seen and the largest is kept.  The marks
        are one byte per mask, so the listing holds 2^k bytes, not 2^k ints.
        """
        seen = bytearray(1 << len(self.universe))
        reps = []
        for mask in range(1, len(seen)):
            if not seen[mask]:
                orbit = set(self.images(mask))
                for image in orbit:
                    seen[image] = 1
                reps.append(max(orbit))
        return _by_size(reps)


def _by_size(masks) -> list[int]:
    """Table order, by size and then by sorted tuple: the larger mask first."""
    return sorted(masks, key=lambda mask: (mask.bit_count(), -mask))


def _check_orbit_listing(group: Group, limits: Limits) -> None:
    """Refuse to list every orbit of a group over the sweep cap: the listing
    walks every subset of the folded universe."""
    if group.order > limits.max_sweep_order:
        raise ResourceLimitError(f"an unpruned sweep evaluates every orbit, capped at order {limits.max_sweep_order}")


# -- sweep -------------------------------------------------------------------------


class DeltaStarReport(_Record):
    """Aggregated minimal distances over canonical subsets (index tuples) of G
    minus 0: ``table`` rows (subset, min delta or None), all orbits or with
    ``evaluated_only`` the evaluated ones; ``skipped`` rows (subset, reason),
    ``complete`` when there are none; ``delta_star`` the sorted values,
    ``max_delta`` the largest or None, ``witnesses`` value -> first subset."""

    __slots__ = _fields = (
        "group", "complete", "table", "delta_star", "max_delta", "witnesses", "skipped", "evaluated_only"
    )
    _defaults = {"evaluated_only": False}

    def subset_elements(self, indices: tuple[int, ...]) -> tuple[GroupElement, ...]:
        return tuple(self.group.element_at(i) for i in indices)

    def to_json_dict(self) -> dict:
        def subset_json(indices):
            return subset_to_json(self.subset_elements(indices))

        data = {
            "group": format_group(self.group),
            "complete": self.complete,
            "delta_star": list(self.delta_star),
            "max": self.max_delta,
            "witnesses": {str(d): subset_json(s) for d, s in sorted(self.witnesses.items())},
            "table": [
                {"subset": subset_json(s), "min_delta": md} for s, md in self.table
            ],
            "skipped": [
                {"subset": subset_json(s), "reason": reason} for s, reason in self.skipped
            ],
        }
        if self.evaluated_only:
            data["table_scope"] = "evaluated"
        return data


Row = tuple[tuple[int, ...], int | None, str | None]


def _evaluate_subset(group: Group, limits: Limits, cache: AtomCache | None, rep: tuple[int, ...]) -> Row:
    try:
        value = min_delta(group, [group.element_at(i) for i in rep], limits=limits, cache=cache)
        return rep, value, None
    except ResourceLimitError as exc:
        return rep, None, str(exc)


def _inherited_row(group: Group, rep: tuple[int, ...], limits: Limits) -> Row:
    """Value 1 for a representative over a value-1 subset, unless atom
    enumeration over it would hit a cap (:func:`check_atom_caps`, with its
    message): a capped subset is skipped whether or not it inherits, so the
    report does not depend on ``prune``."""
    try:
        check_atom_caps(group, rep, limits)
    except ResourceLimitError as exc:
        return rep, None, str(exc)
    return rep, 1, None


def delta_star(
    group: Group,
    *,
    limits: Limits = DEFAULT_LIMITS,
    map_rows=map,
    prune: bool = True,
    cache: AtomCache | None = None,
) -> DeltaStarReport:
    """Sweep minimal distances over subsets of G minus 0 by the down-set walk.

    The table lists every orbit for groups of order up to the sweep cap and
    the evaluated rows above it.  Resource failures land in ``skipped``, never
    in the value table, and the report is complete iff nothing was skipped.
    ``prune=False`` evaluates every orbit representative instead, and raises
    :class:`ResourceLimitError` above the sweep cap.

    Each level's rows go through one ``map_rows(function, reps)`` call; an
    executor's ``map`` spreads them over processes, with the same report.
    """
    maps = folded_automorphisms(group)
    listed = group.order <= limits.max_sweep_order
    if not prune:
        _check_orbit_listing(group, limits)

    orbits = _FoldedOrbits(group, maps)
    evaluate = partial(_evaluate_subset, group, limits, cache)
    rows: dict[tuple[int, ...], Row] = {}

    def down_set_rows(masks) -> set[int]:
        masks = _by_size(masks)
        found = list(map_rows(evaluate, [orbits.members(mask) for mask in masks]))
        rows.update((row[0], row) for row in found)
        # a skipped row is over a cap, and so is every superset of it
        return {mask for mask, (_, value, error) in zip(masks, found) if error is None and value != 1}

    if not prune:
        down_set_rows(orbits.representatives)
    else:
        units = orbits.units
        down = down_set_rows({orbits.canonical(unit) for unit in units})
        while down:
            # a largest image minus its lowest bit (its largest element) is
            # a largest image, so extending by lower bits reaches every
            # canonical candidate
            extensions = {orbits.canonical(rep | unit) for rep in down for unit in units if unit < rep & -rep}
            down = down_set_rows(
                ext for ext in extensions
                if all(orbits.canonical(ext ^ unit) in down for unit in units if ext & unit)
            )

    if listed:
        reps = (orbits.members(mask) for mask in orbits.representatives)
        results = [rows.get(rep) or _inherited_row(group, rep, limits) for rep in reps]
    else:
        results = sorted(rows.values(), key=lambda row: (len(row[0]), row[0]))
    table = []
    skipped = []
    values = set()
    witnesses: dict[int, tuple[int, ...]] = {}
    for rep, value, error in results:
        if error is not None:
            skipped.append((rep, error))
            continue
        table.append((rep, value))
        if value is not None:
            values.add(value)
            witnesses.setdefault(value, rep)
    delta = tuple(sorted(values))
    return DeltaStarReport(
        group=group,
        complete=not skipped,
        table=tuple(table),
        delta_star=delta,
        max_delta=delta[-1] if delta else None,
        witnesses=witnesses,
        skipped=tuple(skipped),
        evaluated_only=not listed,
    )


# -- theorem checkers ---------------------------------------------------------------


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


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _given_or_swept(group: Group, report: DeltaStarReport | None, limits: Limits):
    """The sweep a theorem check reads: ``report``, or else a sweep of ``group`` under ``limits``."""
    return partial(delta_star, group, limits=limits) if report is None else lambda: report


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
    return _elementary_p_gcd(group, _given_or_swept(group, report, limits), limits)


def _elementary_p_gcd(group: Group, sweep, limits: Limits) -> CheckReport:
    name = format_group(group)
    p = _odd_elementary_prime(group)
    if p is None:
        return CheckReport("elementary-p-gcd", name, NOT_APPLICABLE)

    def compute(report, base):
        combos = {math.gcd(*combo) for combo in combinations_with_replacement(base.delta_star, group.rank)}
        computed = set(report.delta_star)
        details = {"computed": sorted(computed), "gcd_combinations": sorted(combos), "cyclic": list(base.delta_star)}
        return computed == combos, details

    return _run_check("elementary-p-gcd", name, compute, sweep, partial(delta_star, make_group([p]), limits=limits))


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
