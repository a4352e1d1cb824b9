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
  image) is the largest image mask, and an image mask is a sum of the image
  bits that each automorphism from the search gives (u and -u share a bit).
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
every orbit representative, as a reference path.  Both read the one listing
of every orbit, which refuses over the sweep cap without pruning and over
``MAX_LISTED_UNIVERSE`` folded elements, before any row is evaluated.

This module is the sweep alone; the checks that read its reports, and the
characterization records built from them, are in :mod:`pmzs.suite`.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter

from .atoms import AtomCache, check_atom_caps
from .errors import ResourceLimitError
from .groups import Group, GroupElement, _Record, automorphisms, fold_negatives
from .limits import DEFAULT_LIMITS, Limits
from .notation import format_group, subset_to_json
from .relations import min_delta


# -- canonical subsets and orbits -------------------------------------------------


MAX_LISTED_UNIVERSE = 26
"""The most folded elements whose subsets the orbit listing marks, at one byte each (64 MiB)."""


class _FoldedOrbits:
    """Subsets of the folded universe as bitmasks, and their orbits under Aut(G) and sign.

    The folded universe u_0 < ... < u_{k-1} gives u_r and -u_r the bit
    1 << (k - 1 - r), and 0 the bit 0.  Of two subsets of one size, the
    smaller sorted tuple then has the larger mask (the least element of their
    symmetric difference is the highest bit where they differ), so the least
    sorted image of a subset is its largest image mask.  An automorphism p
    becomes the tuple of image bits ``bit_of[p[i]]`` indexed by element index
    i, built straight from the search; p and -p give the same tuple, which is
    kept once.  A map is injective on a folded subset, so an image mask is the
    sum of the image bits of its members.
    """

    def __init__(self, group: Group):
        auts = automorphisms(group)  # refused before any table is built
        self.group = group
        self.universe = fold_negatives(group, range(1, group.order))
        k = len(self.universe)
        self.units = tuple(1 << (k - 1 - r) for r in range(k))
        self.bit_of = bit_of = [0] * group.order
        for u, unit in zip(self.universe, self.units):
            bit_of[u] = bit_of[group._neg[u]] = unit
        self.bit_maps = list(dict.fromkeys(tuple(map(bit_of.__getitem__, perm)) for perm in auts))
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

    def representatives(self, max_order: int) -> list[int]:
        """The canonical mask of every orbit of nonempty subsets, in table order.

        Masks are walked upwards and each orbit is listed once, from its first
        mask: its images are marked seen and the largest is kept.  The marks
        are one byte per mask, so the listing holds 2^k bytes, not 2^k ints.
        This is the one walk over every subset, so it owns the refusals: a
        group over the sweep cap ``max_order``, and a folded universe of more
        than ``MAX_LISTED_UNIVERSE`` elements.
        """
        if self.group.order > max_order:
            raise ResourceLimitError(f"an unpruned sweep evaluates every orbit, capped at order {max_order}")
        k = len(self.universe)
        if k > MAX_LISTED_UNIVERSE:
            raise ResourceLimitError(f"orbit listing capped at {MAX_LISTED_UNIVERSE} folded elements; {self.group} folds onto {k}")
        seen = bytearray(1 << k)
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
    ``prune=False`` evaluates every orbit representative instead.  Listing
    every orbit raises :class:`ResourceLimitError` before any row is
    evaluated (see :meth:`_FoldedOrbits.representatives`).

    Each level's rows go through one ``map_rows(function, reps)`` call; an
    executor's ``map`` spreads them over processes, with the same report.
    """
    orbits = _FoldedOrbits(group)
    listed = group.order <= limits.max_sweep_order
    listing = orbits.representatives(limits.max_sweep_order) if listed or not prune else None
    evaluate = partial(_evaluate_subset, group, limits, cache)
    rows: dict[tuple[int, ...], Row] = {}

    def down_set_rows(masks) -> set[int]:
        masks = _by_size(masks)
        found = list(map_rows(evaluate, [orbits.members(mask) for mask in masks]))
        rows.update((row[0], row) for row in found)
        # a skipped row is over a cap, and so is every superset of it
        return {mask for mask, (_, value, error) in zip(masks, found) if error is None and value != 1}

    if not prune:
        down_set_rows(listing)
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
        reps = (orbits.members(mask) for mask in listing)
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
