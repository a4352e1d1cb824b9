"""The set of minimal distances over all divisor-closed submonoids.

Every divisor-closed submonoid of the signed zero-sum monoid over G is the
one over a subset of G, so min Delta is swept over subsets of G minus 0.
Two facts decide the sweep:

* orbit reduction: an automorphism of G maps the monoid over S onto the one
  over phi(S), and folding u onto -u keeps all sets of lengths, so one
  canonical subset per orbit in the folded universe is evaluated.  With the
  least element in the highest bit, the canonical form (the least sorted
  image) is the largest image mask, built bit by bit from the top over
  image planes.  Orbits are listed by orderly generation;
* the down-set: for S a subset of T, the monoid over S is divisor-closed in
  the one over T, so Delta(S) is in Delta(T), and min Delta = gcd Delta
  (the lattice computation).  So the subsets whose value is not 1 (min
  Delta >= 2 or no distance) are closed under taking subsets, and Delta*
  minus {1} is read off them.

The sweep walks that down-set level by level (Apriori candidate generation
with canonical augmentation): the candidates of size k + 1 are the
canonical one-element extensions of level-k rows whose value is not 1 whose
one-smaller subsets all canonicalize into the down-set.  Every cap grows
with the subset, so a row skipped over a cap is not extended.

Up to ``max_sweep_order`` the table lists every orbit: a row the walk did not
evaluate has a subset with value 1 and gets 1, or is skipped over a cap.
Above it the table lists the evaluated rows only.  ``prune=False`` evaluates
every orbit, as a reference path.  Both read the one listing of every orbit,
which refuses over the sweep cap without pruning and over
``MAX_LISTED_UNIVERSE`` folded elements, before any row is evaluated.

The checks that read its reports are in :mod:`pmzs.suite`.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import compress
from operator import itemgetter, or_

from .atoms import AtomCache, check_atom_caps
from .errors import ResourceLimitError
from .groups import Group, GroupElement, _Record, automorphisms, fold_negatives
from .limits import DEFAULT_LIMITS, Limits
from .notation import format_group, subset_to_json
from .relations import min_delta


# -- canonical subsets and orbits -------------------------------------------------


MAX_LISTED_UNIVERSE = 26
"""The most folded elements whose orbits are listed (C64 folds onto 32: 2^32 / 16 orbits)."""


class _FoldedOrbits:
    """Subsets of the folded universe as bitmasks, and their orbits under Aut(G) and sign.

    u_r and -u_r get the bit 1 << (k - 1 - r): of two subsets of one size the
    smaller sorted tuple has the larger mask.  Of p and -p (alike here) the
    one that sends x != -x below -p(x) is a bit of ``maps``; the plane
    ``planes[t][r]`` holds the maps that send u_r to +-u_t (0 at r = k), and
    ``reach[r]`` has byte t set for u_t in the orbit of u_r.
    """

    def __init__(self, group: Group):
        auts = automorphisms(group)  # refused before any table is built
        self.group = group
        self.universe = universe = fold_negatives(group, range(1, group.order))
        k = len(universe)
        self.units = tuple(1 << (k - 1 - r) for r in range(k))
        neg = group._neg
        slot = [k] * group.order
        for r, u in enumerate(universe):
            slot[u] = slot[neg[u]] = r
        x = next((u for u in universe if neg[u] != u), None)
        images = []
        while auts:  # free the permutations first: they pin the search's ints
            perm = auts.pop()
            if x is None or perm[x] < neg[perm[x]]:
                images.append(list(map(slot.__getitem__, map(perm.__getitem__, universe))))
        self.maps = (1 << len(images)) - 1
        self.planes = planes = [[0] * (k + 1) for _ in universe]
        while images:
            bit = 1 << len(images) - 1
            for r, plane in enumerate(map(planes.__getitem__, images.pop())):
                plane[r] = plane[r] | bit if plane[r] else bit  # one map: share its bit
        self.reach = [int.from_bytes(bytes(map(bool, map(itemgetter(r), planes))), "big") for r in range(k)] + [0]
        self._targets = tuple(zip(self.units, planes))
        self._canonical: dict[int, int] = {}

    def positions(self, mask: int):
        k, found = len(self.units), []
        while mask:
            found.append(k - mask.bit_length())
            mask ^= self.units[found[-1]]
        return found

    def members(self, mask: int) -> tuple[int, ...]:
        return tuple(map(self.universe.__getitem__, self.positions(mask)))

    def extensions(self, mask: int):
        """The mask plus each unit below its lowest bit (every unit for 0)."""
        k = len(self.units)
        return [mask | unit for unit in self.units[k + 1 - (mask & -mask or 1 << k).bit_length():]]

    def canonical(self, mask: int) -> int:
        """The largest image: down the bits its members reach, a bit reached
        under a map of ``alive`` beats any image without it."""
        found = self._canonical.get(mask)
        if found is None:
            k = len(self.units)
            getter = itemgetter(k, *self.positions(mask))
            alive, found, left = self.maps, 0, mask.bit_count()
            for unit, plane in compress(self._targets, reduce(or_, getter(self.reach)).to_bytes(k, "big")):
                if reach := sum(getter(plane)) & alive:  # planes are disjoint
                    alive, found, left = reach, found | unit, left - 1
                    if not left:
                        break
            self._canonical[mask] = found
        return found

    def representatives(self, max_order: int) -> list[int]:
        """The canonical mask of every orbit, in table order, by orderly
        generation: a largest image minus its lowest bit is one, so the
        extensions that are canonical list each orbit once.  The listing
        owns both refusals (``max_order``, ``MAX_LISTED_UNIVERSE``)."""
        if self.group.order > max_order:
            raise ResourceLimitError(f"an unpruned sweep evaluates every orbit, capped at order {max_order}")
        k = len(self.universe)
        if k > MAX_LISTED_UNIVERSE:
            raise ResourceLimitError(f"orbit listing capped at {MAX_LISTED_UNIVERSE} folded elements; {self.group} folds onto {k}")
        reps, level = [], [0]
        while level:
            level = [ext for rep in level for ext in self.extensions(rep) if self.canonical(ext) == ext]
            reps += level
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

    Resource failures land in ``skipped``, never in the value table, and the
    report is complete iff nothing was skipped.  A refused listing raises
    :class:`ResourceLimitError` before any row is evaluated.  Each level's
    rows go through one ``map_rows(function, reps)`` call; an executor's
    ``map`` spreads them over processes, with the same report.
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
            # a largest image minus its lowest bit is a largest image
            extensions = {orbits.canonical(ext) for rep in down for ext in orbits.extensions(rep)}
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
