"""Atom (irreducible element) testing and complete enumeration for the monoid
of plus-minus weighted zero-sum sequences over a subset of a finite abelian group.

The enumeration walks exponent vectors over the ground set depth first with
non-decreasing ground index, so every multiset up to the length bound is
visited exactly once.  The set of signed sums of the current prefix is carried
down the recursion as a bitmask and extended by one block rotation per
coordinate of the added term (:func:`pmzs.groups.shift_mask`), and every
signed zero sum is collected into one dict.  Irreducibility is then
decided against earlier atoms, as in the completion step of Hilbert-basis
algorithms: taken in order of length, a zero sum v is an atom iff no atom a
already kept, with a <= v, leaves a remainder v - a that is a zero sum.  The
rule is exact.  If v = c * (v - c) with c a proper zero-sum divisor, then c =
a * (c - a) for some atom a, and v - a = (c - a) * (v - c) is a shorter zero
sum, so it is in the set.  :func:`is_atom` runs the same rule over the
sub-multisets of the queried sequence.

Atoms are enumerated over the folded ground set fold S
(:func:`pmzs.groups.fold_negatives`), once per folded set per process, and an
:class:`AtomSet` holds that folded list; every invariant reads it.  The fold
phi sends g and -g to min(g, -g) and sums their multiplicities.
Giving the copies of -g the opposite sign turns a signed zero sum over fold S
into one over S and back, so phi preserves and reflects zero sums; and any
split phi(v) = x * y into zero sums lifts to v = c * w by handing out the
copies of g and -g.  So phi is a transfer homomorphism (Geroldinger--Halter-
Koch, *Non-Unique Factorizations*, 3.2): v is an atom iff phi(v) is, the
atoms over S are all preimages of the atoms over fold S, and L(v) = L(phi(v)).
The atoms over S themselves are lifted only when asked for.

Over the folded set the coordinate of g is capped at min(bound, ord g).  Take
a signing that makes an atom v a zero sum.  If it gives g both signs, then
v - g^2 is a zero sum; if all copies of g have one sign and v_g >= ord g, then
v - g^ord(g) is one.  Either way v is reducible unless v = g^2 or
v = g^ord(g).  Every remainder v - a <= v stays within the caps, so the
earlier-atom rule still finds it.

Atom lengths are bounded by the Davenport constant of the subgroup generated
by the ground set: in any longer signed zero sum, the first length-minus-one
weighted terms already contain a proper nonempty zero-sum block, and both the
block and its complement inherit signed zero sums.  The support cap counts
fold S, the set the walk runs over.  The sequence (0) is an
atom (in fact prime); a zero in the ground set is stripped and tracked by the
``includes_zero`` flag since it never affects distances.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable

from .errors import DomainError, PmzsError, ResourceLimitError
from .groups import (
    Group,
    GroupElement,
    _classify_subgroup,
    _span_mask,
    davenport,
    fold_negatives,
    fold_positions,
    signed_shift_mask,
)
from .limits import DEFAULT_LIMITS, Limits
from .notation import format_group, parse_group, subset_from_json, subset_to_json
from .sequences import Sequence

CACHE_VERSION = 1


@dataclass(frozen=True)
class AtomSet:
    """The complete list of atoms over a ground set, as exponent vectors.

    ``ground`` lists the distinct nonzero support elements S in index order.
    ``folded`` lists the atoms over fold S, in :func:`_atom_order`;
    ``folded[k][j]`` is the multiplicity of the j-th element of fold S.
    ``vectors`` lists the atoms over S, lifted from ``folded`` on first use;
    ``vectors[k][i]`` is the multiplicity of ``ground[i]``.  The length-1
    atom (0) is tracked only by ``includes_zero``.
    """

    group: Group
    ground: tuple[GroupElement, ...]
    folded: tuple[tuple[int, ...], ...]
    includes_zero: bool
    bound: int

    @cached_property
    def source(self) -> tuple[int, ...]:
        """The coordinate of fold S that each ground position folds onto."""
        return fold_positions(self.group, tuple(g.index for g in self.ground))[1]

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        """Every preimage of the folded atoms; ``folded`` itself when S is folded."""
        if self.source == tuple(range(len(self.source))):
            return self.folded
        return _lift(self.source, self.folded)

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {g.index: i for i, g in enumerate(self.ground)}

    def __len__(self) -> int:
        return len(self.vectors)

    def lengths(self) -> tuple[int, ...]:
        return tuple(sum(v) for v in self.vectors)

    def sequence(self, k: int) -> Sequence:
        vec = self.vectors[k]
        return Sequence.from_items(self.group, [(g, m) for g, m in zip(self.ground, vec) if m])

    def sequences(self) -> list[Sequence]:
        return [self.sequence(k) for k in range(len(self.vectors))]

    def vector_of(self, seq: Sequence) -> tuple[int, ...]:
        """Exponent vector of a sequence over this ground set (0 entries not represented)."""
        index_pos = self._positions
        vec = [0] * len(self.ground)
        for idx, mult in seq.entries:
            if idx == 0:
                raise DomainError("sequence contains 0; strip it before exponent-vector queries")
            if idx not in index_pos:
                raise DomainError("sequence support is not contained in the ground set")
            vec[index_pos[idx]] = mult
        return tuple(vec)

    def to_json_dict(self) -> dict:
        return {
            "version": CACHE_VERSION,
            "group": format_group(self.group),
            "ground_set": subset_to_json(self.ground),
            "bound": self.bound,
            "atoms": [list(v) for v in self.vectors],
            "includes_zero": self.includes_zero,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AtomSet":
        """The atom set of a dict over a folded ground set, such as a cache entry."""
        group = parse_group(data["group"])
        ground = subset_from_json(group, data["ground_set"])
        indices = tuple(g.index for g in ground)
        if fold_negatives(group, indices) != indices:
            raise DomainError("an atom set is read back only over a folded ground set")
        return cls(
            group=group,
            ground=ground,
            folded=tuple(tuple(int(x) for x in v) for v in data["atoms"]),
            includes_zero=bool(data["includes_zero"]),
            bound=int(data["bound"]),
        )


@dataclass(frozen=True)
class LengthProfile:
    max_length: int
    gcd_lengths_minus_2: int


def _enumerate_atom_vectors(
    group: Group, ground_indices: tuple[int, ...], bound: int, caps: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Atoms among the exponent vectors v <= caps of length at most bound, in
    :func:`_atom_order`, by the earlier-atom rule of the module docstring.

    A vector is packed into one int, ground position 0 in the most
    significant field, so int order is tuple order.  A field holds values up
    to ``bound`` and has a guard bit on top: ``d = (v | G) - a`` keeps every
    guard bit iff ``a <= v``, and then ``d ^ G`` is ``v - a``.  Every
    remainder v - a is shorter than v and within the caps, so the one dict of
    zero sums collected here answers every lookup.

    Only the atoms that cover one field of v, the field of its lowest set bit,
    are tried.  If v = c * w with c and w nonempty zero sums, one of them
    covers that field, and so does one of its atoms a; v - a is then a shorter
    nonempty zero sum.
    """
    n = len(ground_indices)
    bits = bound.bit_length()
    field = (1 << bits) - 1
    offsets = [(n - 1 - j) * (bits + 1) for j in range(n)]
    units = [1 << off for off in offsets]
    guards = sum(unit << bits for unit in units)
    zero_sums: dict[int, int] = {}  # packed vector -> length

    def extend(min_pos: int, length: int, vec: int, mask: int) -> None:
        if length and mask & 1:
            zero_sums[vec] = length
        if length == bound:
            return
        for j in range(min_pos, n):
            if (vec >> offsets[j]) & field < caps[j]:
                extend(j, length + 1, vec + units[j], signed_shift_mask(group, mask, ground_indices[j]))

    extend(0, 0, 0, 1)
    atoms: list[int] = []
    covering: list[list[int]] = [[] for _ in range(n)]  # the atoms with a nonzero field j
    # the list for the field that holds each bit, found from a vector's lowest set bit
    covering_bit = [covering[n - 1 - b // (bits + 1)] for b in range(n * (bits + 1))]
    for _, v in sorted((length, vec) for vec, length in zero_sums.items()):
        guarded = v | guards
        # a remainder of an atom a not <= v loses a guard bit
        if not any(
            (d := guarded - a) & guards == guards and (d ^ guards) in zero_sums
            for a in covering_bit[(v & -v).bit_length() - 1]
        ):
            atoms.append(v)
            for j, off in enumerate(offsets):
                if (v >> off) & field:
                    covering[j].append(v)
    return [tuple((a >> off) & field for off in offsets) for a in atoms]


@lru_cache(maxsize=1024)
def _folded_atom_vectors(group: Group, folded: tuple[int, ...], bound: int) -> tuple[tuple[int, ...], ...]:
    """The atom list over a folded ground set, enumerated once per process,
    each coordinate capped at min(bound, ord g) (see the module docstring)."""
    caps = tuple(min(bound, group._order_table[gi]) for gi in folded)
    return tuple(_enumerate_atom_vectors(group, folded, bound, caps))


def _lift(source: tuple[int, ...], atoms: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Every preimage of the given folded atoms, in :func:`_atom_order`;
    ``source[p]`` is the folded coordinate of ground position p.

    When two ground positions p < q share a folded coordinate (g and -g), its
    multiplicity m splits as (m - k, k) over them for k = 0..m; every other
    coordinate is copied.
    """
    first: dict[int, int] = {}
    pairs = []
    for q, j in enumerate(source):
        if j in first:
            pairs.append((first[j], q))
        else:
            first[j] = q
    out = []
    for atom in atoms:
        base = [atom[j] if first[j] == p else 0 for p, j in enumerate(source)]
        lifted = [base]
        for p, q in pairs:
            m = base[p]
            split = []
            for vec in lifted:
                for k in range(1, m + 1):
                    part = vec.copy()
                    part[p] = m - k
                    part[q] = k
                    split.append(part)
            lifted += split  # k = 0 keeps vec
        out.extend(map(tuple, lifted))
    return tuple(sorted(out, key=_atom_order))


def _atom_order(vec: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort key of atom lists: by length, then by exponent vector."""
    return sum(vec), vec


def _is_valid_atom_list(
    group: Group, ground_indices: tuple[int, ...], bound: int, vectors: tuple[tuple[int, ...], ...]
) -> bool:
    """True iff the vectors could be an enumerated atom list over the ground set.

    Each vector must be a nonnegative exponent vector of the ground width with
    a signed zero sum and length 2..bound, and the list must be strictly
    increasing in :func:`_atom_order`, which also rules out duplicates.
    Completeness is checked only in part: for each ground element g the list
    must hold g^2, and g^ord(g) when ord(g) is odd, since both are atoms by
    definition.  Irreducibility is not re-checked.
    """
    width = len(ground_indices)
    if not all(len(v) == width and all(m >= 0 for m in v) and 2 <= sum(v) <= bound for v in vectors):
        return False
    keys = [_atom_order(v) for v in vectors]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return False
    listed = set(vectors)
    for pos, gi in enumerate(ground_indices):
        order = group._order_table[gi]
        required = (2, order) if order % 2 else (2,)
        if any(tuple(p if i == pos else 0 for i in range(width)) not in listed for p in required):
            return False
    for vec in vectors:
        mask = 1
        for gi, mult in zip(ground_indices, vec):
            for _ in range(mult):
                mask = signed_shift_mask(group, mask, gi)
        if not mask & 1:
            return False
    return True


@lru_cache(maxsize=4096)
def is_atom(seq: Sequence) -> bool:
    """True iff the sequence is an irreducible element of the signed zero-sum monoid.

    Decided by the enumeration rule over the sub-multisets of the sequence.
    The single-term sequence (0) is an atom; any longer sequence containing 0
    splits off (0) and is reducible.
    """
    if not seq.is_pm_zero_sum():
        return False
    ground = tuple(idx for idx, _ in seq.entries)
    vec = tuple(mult for _, mult in seq.entries)
    return vec in _enumerate_atom_vectors(seq.group, ground, len(seq), vec)


def _fnv1a_64(data: bytes) -> int:
    """The 64-bit FNV-1a digest of ``data``: fixed across processes and
    platforms, unlike :func:`hash`, and needing no OpenSSL, unlike hashlib."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = (h ^ byte) * 0x100000001B3 & 0xFFFFFFFFFFFFFFFF
    return h


class AtomCache:
    """Persistent JSON store for enumerated atom sets, one entry per folded
    ground set: an atom set over fold S, whatever S a caller asked for.

    An entry's file is named ``atoms-<16 hex digits>.json`` after the 64-bit
    FNV-1a digest of its key (cache version, group, folded ground indices,
    length bound).  Two keys with one name are harmless: :meth:`load`
    checks the group, ground set and bound, so the other key's entry is a
    miss and gets overwritten.  Entries written under the earlier sha256
    names are not found; they are misses and are written again under the
    new names, with unchanged contents, so ``CACHE_VERSION`` stays 1.  A
    cache pickles as its directory; unpickling it makes no directory.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, group: Group, ground_indices: tuple[int, ...], bound: int) -> Path:
        key = f"{CACHE_VERSION}|{format_group(group)}|{','.join(map(str, ground_indices))}|{bound}"
        return self.directory / f"atoms-{_fnv1a_64(key.encode()):016x}.json"

    def load(self, group: Group, ground_indices: tuple[int, ...], bound: int) -> AtomSet | None:
        """The stored atom set over a folded ground set, or None on a miss.

        An entry that cannot be read, decoded or parsed, that describes a
        different group, ground set or bound, or whose atom list fails
        :func:`_is_valid_atom_list`, counts as a miss.
        """
        path = self._path(group, ground_indices, bound)
        try:
            data = json.loads(path.read_text())
            if data.get("version") != CACHE_VERSION:
                return None
            atom_set = AtomSet.from_json_dict(data)
        except (OSError, ValueError, KeyError, TypeError, AttributeError, PmzsError):
            return None
        valid = (
            atom_set.group == group
            and atom_set.bound == bound
            and tuple(g.index for g in atom_set.ground) == ground_indices
            and _is_valid_atom_list(group, ground_indices, bound, atom_set.folded)
        )
        return atom_set if valid else None

    def store(self, atom_set: AtomSet) -> None:
        """Write the entry of an atom set over a folded ground set atomically,
        so an interrupted run never leaves a partial file."""
        ground_indices = tuple(g.index for g in atom_set.ground)
        path = self._path(atom_set.group, ground_indices, atom_set.bound)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(atom_set.to_json_dict(), sort_keys=True))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


@lru_cache(maxsize=4096)
def _span_davenport(group: Group, ground_indices: tuple[int, ...], max_order: int) -> int:
    """D of the subgroup generated by a folded ground set (<S> = <fold S>), once
    per folded set per process; a refused search raises on every call, since
    raising caches nothing.  The span is closed and typed on element indices,
    so no element object is built."""
    return davenport(_classify_subgroup(group, _span_mask(group, ground_indices)), max_order=max_order)


def atom_length_bound(group: Group, ground_indices: tuple[int, ...], limits: Limits = DEFAULT_LIMITS) -> int:
    """Davenport bound on atom lengths over a nonzero ground set S, within the caps.

    Raises :class:`ResourceLimitError` when fold S, the set the enumeration
    walks, has more elements than the support cap, or when the length bound
    exceeds its cap.
    """
    folded = fold_negatives(group, ground_indices)
    if len(folded) > limits.max_support:
        raise ResourceLimitError(
            f"atom enumeration capped at {limits.max_support} support elements, got {len(folded)}"
        )
    bound = _span_davenport(group, folded, limits.max_davenport_order)
    if bound > limits.max_atom_length:
        raise ResourceLimitError(
            f"atom length bound {bound} exceeds the cap {limits.max_atom_length} for {format_group(group)}"
        )
    return bound


def enumerate_atoms(
    group: Group,
    subset: Iterable[GroupElement],
    *,
    limits: Limits = DEFAULT_LIMITS,
    cache: AtomCache | None = None,
) -> AtomSet:
    """Complete atom list of the signed zero-sum monoid over the given subset.

    Zero is stripped first and recorded in the flag.  Raises
    :class:`ResourceLimitError` when the size of the folded ground set or the
    length bound exceeds the configured caps, rather than returning a partial
    list.  The atoms are enumerated once per process over the folded ground
    set, which also keys the ``cache``; a cache miss that the process already
    enumerated is still stored.
    """
    indices = set()
    includes_zero = False
    for g in subset:
        if g.group != group:
            raise DomainError("subset members must belong to the given group")
        if g.is_zero:
            includes_zero = True
        else:
            indices.add(g.index)
    ground_indices = tuple(sorted(indices))
    folded_indices = fold_negatives(group, ground_indices)
    bound = atom_length_bound(group, folded_indices, limits)
    entry = cache.load(group, folded_indices, bound) if cache is not None else None
    if entry is not None:
        folded = entry.folded
    else:
        folded = _folded_atom_vectors(group, folded_indices, bound)
        if cache is not None:
            folded_ground = tuple(map(group.element_at, folded_indices))
            cache.store(AtomSet(group, folded_ground, folded, includes_zero, bound))
    return AtomSet(group, tuple(map(group.element_at, ground_indices)), folded, includes_zero, bound)


def atom_length_profile(atom_set: AtomSet) -> LengthProfile:
    """Maximum atom length and gcd of (length - 2) over the atoms.

    The fold keeps atom lengths, so both are read off the folded atoms.  The
    flag atom (0) contributes its length 1 only when it is the sole atom; the
    gcd of an empty collection is reported as 0.
    """
    lengths = [sum(v) for v in atom_set.folded]
    if lengths:
        max_length = max(lengths)
    elif atom_set.includes_zero:
        max_length = 1
    else:
        max_length = 0
    g = 0
    for length in lengths:
        g = math.gcd(g, length - 2)
    return LengthProfile(max_length=max_length, gcd_lengths_minus_2=g)


def davenport_monoid(
    group: Group,
    subset: Iterable[GroupElement],
    *,
    limits: Limits = DEFAULT_LIMITS,
    cache: AtomCache | None = None,
) -> int:
    """Largest atom length of the signed zero-sum monoid over the subset."""
    return atom_length_profile(enumerate_atoms(group, subset, limits=limits, cache=cache)).max_length
