"""The set of minimal distances over all divisor-closed submonoids.

Every divisor-closed submonoid of the signed zero-sum monoid over G is the
signed zero-sum monoid over some subset of G, so the set of minimal distances
is swept by running the kernel computation over subsets of the nonzero
elements.  Two facts about these monoids cut the sweep down:

* orbit reduction: an automorphism of G maps the monoid over S isomorphically
  onto the monoid over phi(S), and folding an element onto its negative
  preserves all sets of lengths, so the sweep enumerates the subsets of the
  folded universe and evaluates one canonical representative per orbit;
* inheritance: for S a subset of T, the monoid over S is divisor-closed in the
  monoid over T, so Delta(S) is contained in Delta(T).  The kernel computation
  yields gcd Delta, which equals min Delta, so a subset with value 1 has 1 in
  its distance set and forces the value 1 on every superset.  Representatives
  are visited level by level by size, and one that drops an element onto a
  value-1 row is recorded as 1 without atom enumeration (``prune=False``
  evaluates every representative, as a reference path).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, groupby

from .atoms import AtomCache, atom_length_bound, davenport_monoid
from .errors import ResourceLimitError
from .groups import (
    Group,
    GroupElement,
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


def canonical_subset(
    group: Group, indices: tuple[int, ...], auts: list[tuple[int, ...]] | None
) -> tuple[int, ...]:
    """Lexicographically least image of the subset under automorphisms and sign folding."""
    if auts is None:
        return fold_negatives(group, indices)
    # automorphisms commute with negation, so every folded image has the same size
    return min(fold_negatives(group, tuple(perm[i] for i in indices)) for perm in auts)


def _automorphisms_or_none(group: Group, limits: Limits) -> list[tuple[int, ...]] | None:
    try:
        return automorphisms(group, max_order=limits.max_automorphism_order)
    except ResourceLimitError:
        return None


def _by_size(subsets) -> list[tuple[int, ...]]:
    return sorted(subsets, key=lambda s: (len(s), s))


def _orbit_representatives(group: Group, auts: list[tuple[int, ...]] | None) -> list[tuple[int, ...]]:
    # every subset folds onto a subset of the folded universe with the same image
    universe = fold_negatives(group, range(1, group.order))
    reps = set()
    for bits in range(1, 1 << len(universe)):
        subset = tuple(u for i, u in enumerate(universe) if (bits >> i) & 1)
        reps.add(canonical_subset(group, subset, auts))
    return _by_size(reps)


def subset_orbits(group: Group, *, limits: Limits = DEFAULT_LIMITS) -> list[tuple[int, ...]]:
    """Canonical representatives of the nonempty subsets of G minus 0.

    Representatives are ordered by (size, index tuple).  Falls back to sign
    folding alone when the automorphism group is over the enumeration cap.
    """
    return _orbit_representatives(group, _automorphisms_or_none(group, limits))


# -- sweep -------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaStarReport:
    """Aggregated minimal distances over canonical subsets of G minus 0."""

    group: Group
    complete: bool
    table: tuple[tuple[tuple[int, ...], int | None], ...]
    delta_star: tuple[int, ...]
    max_delta: int | None
    witnesses: dict[int, tuple[int, ...]]
    skipped: tuple[tuple[tuple[int, ...], str], ...]

    def subset_elements(self, indices: tuple[int, ...]) -> tuple[GroupElement, ...]:
        return tuple(self.group.element_at(i) for i in indices)

    def to_json_dict(self) -> dict:
        def subset_json(indices):
            return subset_to_json(self.subset_elements(indices))

        return {
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


Row = tuple[tuple[int, ...], int | None, str | None]


def _evaluate_subset(group: Group, rep: tuple[int, ...], limits: Limits, cache: AtomCache | None) -> Row:
    try:
        value = min_delta(group, [group.element_at(i) for i in rep], limits=limits, cache=cache)
        return rep, value, None
    except ResourceLimitError as exc:
        return rep, None, str(exc)


def _inherited_row(group: Group, rep: tuple[int, ...], limits: Limits) -> Row:
    """Value 1 for a representative over a value-1 subset, unless atom
    enumeration over it would hit a cap: a capped subset is skipped whether
    or not it inherits, so the report does not depend on ``prune``."""
    try:
        atom_length_bound(group, rep, limits)
        return rep, 1, None
    except ResourceLimitError as exc:
        return rep, None, str(exc)


def _sweep_worker(payload) -> Row:
    factors, rep, limits, cache_dir = payload
    group = make_group(factors)
    cache = AtomCache(cache_dir) if cache_dir else None
    return _evaluate_subset(group, rep, limits, cache)


def _heuristic_subsets(group: Group, limits: Limits) -> list[tuple[int, ...]]:
    """Targeted family for groups above the complete-sweep cap.

    Covers all folded subsets of size at most 2 plus the independent-basis
    construction sets known to carry large minimal distances.
    """
    universe = fold_negatives(group, range(1, group.order))
    reps = {(i,) for i in universe}
    reps.update(combinations(universe, 2))
    basis = []
    offset = [0] * group.rank
    for pos, n in enumerate(group.invariant_factors):
        coords = [0] * group.rank
        coords[pos] = 1
        basis.append(group.element(tuple(coords)))
        if n % 2 == 0:
            offset[pos] = n // 2
    if all(n % 2 == 0 for n in group.invariant_factors) and group.rank >= 1:
        even_zero = group.element(tuple(offset))
        construction = tuple(sorted({even_zero.index, *(g.index for g in basis)}))
        reps.add(fold_negatives(group, construction))
    return _by_size(reps)


def delta_star(
    group: Group,
    *,
    limits: Limits = DEFAULT_LIMITS,
    jobs: int = 1,
    prune: bool = True,
    cache: AtomCache | None = None,
    subsets: list[tuple[int, ...]] | None = None,
) -> DeltaStarReport:
    """Sweep minimal distances over subsets of G minus 0.

    Complete for groups with order within the sweep cap; larger groups run in
    targeted mode over a heuristic subset family (or caller-given subsets)
    and are flagged incomplete.  Resource failures land in ``skipped``, never
    in the value table.  With ``prune``, a representative that drops one
    element onto a value-1 row already in the table is recorded as 1 without
    atom enumeration.
    """
    if subsets is None and group.order > limits.max_sweep_order:
        auts = None  # the heuristic family is canonical under sign folding only
        reps = _heuristic_subsets(group, limits)
    else:
        auts = _automorphisms_or_none(group, limits)
        if subsets is None:
            reps = _orbit_representatives(group, auts)
        else:
            reps = _by_size({canonical_subset(group, tuple(sorted(set(s))), auts) for s in subsets})
    complete = subsets is None and group.order <= limits.max_sweep_order

    cache_dir = str(cache.directory) if cache is not None else None
    ones: set[tuple[int, ...]] = set()
    results: list[Row] = []
    parallel = jobs > 1 and len(reps) > 1
    with ProcessPoolExecutor(max_workers=jobs) if parallel else nullcontext() as pool:
        # one size level at a time, so every one-smaller subset is already decided
        for _, level in groupby(reps, key=len):
            rows, pending = [], []
            for rep in level:
                # with no value-1 row yet, skip canonicalizing (C2^4 has 20,160 automorphisms)
                if prune and ones and any(
                    canonical_subset(group, rep[:i] + rep[i + 1:], auts) in ones for i in range(len(rep))
                ):
                    rows.append(_inherited_row(group, rep, limits))
                else:
                    pending.append(rep)
            if pool is None:
                rows += [_evaluate_subset(group, rep, limits, cache) for rep in pending]
            else:
                rows += pool.map(_sweep_worker, [(group.invariant_factors, rep, limits, cache_dir) for rep in pending])
            ones.update(rep for rep, value, _ in rows if value == 1)
            results += rows

    results.sort(key=lambda row: (len(row[0]), row[0]))
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
        complete=complete and not skipped,
        table=tuple(table),
        delta_star=delta,
        max_delta=delta[-1] if delta else None,
        witnesses=witnesses,
        skipped=tuple(skipped),
    )


# -- theorem checkers ---------------------------------------------------------------


PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one mechanical check; failures carry a concrete counterexample."""

    check_id: str
    group: str
    status: str
    details: dict = field(default_factory=dict)

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


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def check_odd_order_sandwich(group: Group, report: DeltaStarReport | None = None, *, limits: Limits = DEFAULT_LIMITS) -> CheckReport:
    """For odd group order: D1 <= computed set <= D2 and max = exponent - 2,

    where D1 = {d - 2 : d | exponent, d >= 3} and D2 = all divisors of D1
    members.
    """
    name = format_group(group)
    if group.order % 2 == 0 or group.exponent < 3:
        return CheckReport("odd-order-sandwich", name, NOT_APPLICABLE)
    if report is None:
        report = delta_star(group, limits=limits)
    if not report.complete:
        return CheckReport("odd-order-sandwich", name, NOT_APPLICABLE, {"reason": "sweep incomplete"})
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
    return CheckReport("odd-order-sandwich", name, PASS if ok else FAIL, details)


def check_parity(group: Group, report: DeltaStarReport | None = None, *, limits: Limits = DEFAULT_LIMITS) -> CheckReport:
    """|G| even iff the computed set contains an even value (groups of order >= 5)."""
    name = format_group(group)
    if group.order < 5:
        return CheckReport("parity-even-element", name, NOT_APPLICABLE)
    if report is None:
        report = delta_star(group, limits=limits)
    if not report.complete:
        return CheckReport("parity-even-element", name, NOT_APPLICABLE, {"reason": "sweep incomplete"})
    has_even = any(d % 2 == 0 for d in report.delta_star)
    ok = has_even == (group.order % 2 == 0)
    details = {"computed": list(report.delta_star), "order_even": group.order % 2 == 0, "has_even": has_even}
    return CheckReport("parity-even-element", name, PASS if ok else FAIL, details)


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
    name = format_group(group)
    p = _odd_elementary_prime(group)
    if p is None:
        return CheckReport("elementary-p-gcd", name, NOT_APPLICABLE)
    if report is None:
        report = delta_star(group, limits=limits)
    if not report.complete:
        return CheckReport("elementary-p-gcd", name, NOT_APPLICABLE, {"reason": "sweep incomplete"})
    base = delta_star(make_group([p]), limits=limits)
    combos = set()
    for combo in combinations_with_replacement(base.delta_star, group.rank):
        combos.add(math.gcd(*combo))
    computed = set(report.delta_star)
    ok = computed == combos
    details = {"computed": sorted(computed), "gcd_combinations": sorted(combos), "cyclic": list(base.delta_star)}
    return CheckReport("elementary-p-gcd", name, PASS if ok else FAIL, details)


# -- characterization invariants ----------------------------------------------------


@dataclass(frozen=True)
class CharReport:
    """Length-system invariants used for telling groups apart."""

    group: str
    order: int
    exponent: int
    davenport_group: int
    davenport_monoid: int
    delta_star: tuple[int, ...]
    max_delta_star: int | None
    has_even_delta: bool
    complete: bool

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


@dataclass(frozen=True)
class CharComparison:
    first: CharReport
    second: CharReport
    distinguished_by: tuple[str, ...]
    note: str

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
        davenport_group=davenport(group, max_order=limits.max_davenport_order),
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
