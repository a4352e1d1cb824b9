"""Complete enumeration of the atoms (irreducible elements) of the monoid of
plus-minus weighted zero-sum sequences over a subset of a finite abelian group.

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

The atoms over F = fold S come from the ordinary zero-sum sequences over
U = F u -F.  Let phi also denote the map that sums the multiplicities of f
and -f, from sequences over U to exponent vectors over F.  A sequence w over
U has sum 0 iff phi(w), with the copies of -f signed minus, is a signed zero
sum, so phi maps the zero-sum monoid B(U) onto B+-(F), and the zero-sum
preimages of v are its signings.  Then v is an atom iff every zero-sum
preimage of v is a minimal zero-sum sequence over U.  If v = x * y with x
and y nonempty signed zero sums, a zero-sum preimage of x times one of y is
a preimage of v that is not minimal.  Conversely, if a zero-sum preimage of
v splits as w1 * w2 into nonempty zero sums, then v = phi(w1) * phi(w2).
The fact uses the definitions only, no theorem on these monoids.

So :func:`_minimal_zero_sum_atom_vectors` walks the zero-sum-free sequences T
over U (:func:`pmzs.groups._minimal_zero_sums`), depth first by
non-decreasing position, carrying the subsequence sums of T as a bitmask; u
extends T zero-sum free iff the bit of -u is clear, which is tested before
any shift.  T * u is a minimal zero-sum sequence iff u = -sigma(T).  These
are grouped by their image phi(T * u), and an image v is kept iff its number
N(v) of zero-sum preimages equals the number of minimal ones found.  N(v)
comes from a DP over the coordinates: m copies of f split as k copies of f
and m - k of -f, m + 1 choices, or one choice when 2f = 0.  Negation maps
the zero-sum preimages of v onto themselves.  A preimage w = -w holds
f * -f or has only terms of order 2, so it is minimal only when it is
f * -f or the sole preimage.  So the walk visits one of each pair {w, -w},
and v is kept iff N(v) = 1 or N(v) is twice the number of pairs found.
Zero-sum-free sequences are shorter than D(<S>), so the walk needs no
length bound; it builds no |G| x |G| table.  The walk is the only
irreducibility test: a sequence is an atom iff it is on the list over its
support.

Atom lengths are bounded by the Davenport constant of the subgroup generated
by the ground set: in any longer signed zero sum, the first length-minus-one
weighted terms already contain a proper nonempty zero-sum block, and both the
block and its complement inherit signed zero sums.  Neither the walk nor
:class:`AtomSet` holds the bound D(<S>); it is read only where it decides a
cap.  :func:`check_atom_caps` computes it only where the length cap could
bind, a cache load only for an entry whose longest atom is longer than every
ord(g), g in fold S, and :class:`pmzs.relations.Factorizer` on its first
query, for its query cap.  The support cap counts fold S.  The sequence (0)
is an atom (in fact prime); a zero in the ground set is stripped and tracked
by the ``includes_zero`` flag since it never affects distances.
"""

from __future__ import annotations

import json
import math
import os
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable

from .errors import DomainError, ResourceLimitError
from .groups import (
    MAX_DAVENPORT_ORDER,
    Group,
    GroupElement,
    _Record,
    _check_walk_masks,
    _minimal_zero_sums,
    _span_type,
    davenport,
    fold_negatives,
    fold_positions,
    signed_shift_mask,
)
from .limits import DEFAULT_LIMITS, Limits
from .notation import format_group, subset_to_json
from .sequences import Sequence

CACHE_VERSION = 2


class AtomSet(_Record):
    """The complete list of atoms over a ground set, as exponent vectors.

    ``ground`` lists the distinct nonzero support elements S of ``group`` in index order.
    ``folded`` lists the atoms over fold S, in :func:`_atom_order`;
    ``folded[k][j]`` is the multiplicity of the j-th element of fold S.
    ``vectors`` lists the atoms over S, lifted from ``folded`` on first use;
    ``vectors[k][i]`` is the multiplicity of ``ground[i]``.  The length-1
    atom (0) is tracked only by the bool ``includes_zero``.  The record holds
    the enumeration alone: no bound on atom lengths.
    """

    _fields = ("group", "ground", "folded", "includes_zero")

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
            "atoms": [list(v) for v in self.vectors],
            "includes_zero": self.includes_zero,
        }


class LengthProfile(_Record):
    """The longest atom length and the gcd of (length - 2) over the atoms (ints)."""

    __slots__ = _fields = ("max_length", "gcd_lengths_minus_2")


def _add_index(group: Group, x: int, y: int) -> int:
    """The index of x + y, moved by the block rotations that translate by y."""
    for lo, up, hi, down in group._shift_steps[y]:
        x = x + up if lo >> x & 1 else x - down
    return x


def _signed_multiples(group: Group, f: int, m: int) -> list[int]:
    """The sums (2k - m) f, by index, of the splits of m copies of f into k
    copies of f and m - k of -f, for k = 0..m; the one sum m f when 2f = 0."""
    neg = group._neg
    if neg[f] == f:
        return [f if m % 2 else 0]
    e = 0
    for _ in range(m):
        e = _add_index(group, e, neg[f])
    twice = _add_index(group, f, f)
    out = [e]
    for _ in range(m):
        e = _add_index(group, e, twice)
        out.append(e)
    return out


@lru_cache(maxsize=4096)
def _split_sums(group: Group, f: int, m: int) -> dict[int, int]:
    """The sums of :func:`_signed_multiples`, with the number of splits giving
    each.  The memo hands every caller the same dict, so callers only read it."""
    out: dict[int, int] = {}
    for e in _signed_multiples(group, f, m):
        out[e] = out.get(e, 0) + 1
    return out


def _minimal_zero_sum_atom_vectors(group: Group, folded: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The atoms over a folded ground set F, in :func:`_atom_order`, as the
    images phi(w) of the minimal zero-sum sequences w over U = F u -F whose
    every zero-sum preimage is minimal (see the module docstring).

    An image is packed into one int with a field per coordinate of F, wide
    enough for ord(f) (a minimal zero-sum sequence holds f or -f, not both
    except in f * -f, at most ord(f) times).  Its zero-sum preimages are
    counted by a DP over the coordinates: the m copies of f split as k
    copies of f and m - k of -f, with sum (2k - m) f, for k = 0..m, or as
    one choice when 2f = 0.  Sums are added as indices through the block
    rotations of :func:`pmzs.groups._rotations`.
    """
    n = len(folded)
    neg = group._neg
    steps = group._shift_steps
    bits = group.exponent.bit_length()
    offsets = [(n - 1 - j) * bits for j in range(n)]
    field = (1 << bits) - 1
    found = _minimal_zero_sums(group, folded, tuple(1 << off for off in offsets))

    atoms = []
    for image, pairs in found.items():
        parts = [_split_sums(group, f, m) for f, off in zip(folded, offsets) if (m := image >> off & field)]
        sums = parts.pop()
        if parts:
            last = sums
            sums = parts.pop()
            for part in parts:
                merged: dict[int, int] = {}
                for x, count in sums.items():
                    by_x = steps[x]
                    for y, ways in part.items():
                        for lo, up, hi, down in by_x:  # y + x
                            y = y + up if lo >> y & 1 else y - down
                        merged[y] = merged.get(y, 0) + count * ways
                sums = merged
            zero_sums = sum(ways * sums.get(neg[y], 0) for y, ways in last.items())
        else:
            zero_sums = sums.get(0, 0)
        # a lone zero-sum preimage is its own negative; otherwise none is
        if zero_sums == 1 or zero_sums == 2 * pairs:
            atoms.append(tuple(image >> off & field for off in offsets))
    return sorted(atoms, key=_atom_order)


@lru_cache(maxsize=1024)
def _folded_atom_vectors(group: Group, folded: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The atom list over a folded ground set, enumerated once per process."""
    return tuple(_minimal_zero_sum_atom_vectors(group, folded))


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


def _is_valid_atom_list(group: Group, ground_indices: tuple[int, ...], vectors: tuple[tuple[int, ...], ...]) -> bool:
    """True iff the vectors could be an enumerated atom list over a folded ground set.

    Each vector must be a nonnegative exponent vector of the ground width with
    a signed zero sum and length 2..D(<S>), and the list must be strictly
    increasing in :func:`_atom_order`, which also rules out duplicates.  The
    order puts the longest vector last.  D(<S>) >= exp(<S>) >= ord(g) for
    each ground element g, so D(<S>) is computed only when that vector is
    longer than every ord(g).  Completeness is checked only in part: for each
    ground element g the list must hold g^2, and g^ord(g) when ord(g) is odd,
    since both are atoms by definition.  Irreducibility is not re-checked.
    """
    width = len(ground_indices)
    if not all(len(v) == width and all(m >= 0 for m in v) for v in vectors):
        return False
    keys = [_atom_order(v) for v in vectors]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return False
    orders = [group.element_at(gi).order() for gi in ground_indices]
    if keys:
        shortest, longest = keys[0][0], keys[-1][0]
        if shortest < 2 or longest > max(orders) and longest > _span_davenport(group, ground_indices):
            return False
    listed = set(vectors)
    for pos, order in enumerate(orders):
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
    FNV-1a digest of its key (cache version, group, folded ground indices).
    The entry is :meth:`AtomSet.to_json_dict` of the folded set with
    ``includes_zero`` False, so it holds the key and the enumerated atoms
    only, and its bytes do not depend on which caller missed first.  Two keys
    with one name are harmless: :meth:`load` compares the entry's version,
    group and ground set with the requested key, so the other key's entry is
    a miss and gets overwritten.  A cache pickles as its directory;
    unpickling it makes no directory.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, group: Group, ground_indices: tuple[int, ...]) -> Path:
        key = f"{CACHE_VERSION}|{format_group(group)}|{','.join(map(str, ground_indices))}"
        return self.directory / f"atoms-{_fnv1a_64(key.encode()):016x}.json"

    def load(self, group: Group, ground_indices: tuple[int, ...]) -> AtomSet | None:
        """The stored atom set over a folded ground set, or None on a miss.

        An entry that cannot be read or decoded (JSON nested past the
        recursion limit included), whose version, group string
        or ground-set coordinates differ from the requested key's, whose atoms
        are not lists of ints, or whose atom list fails
        :func:`_is_valid_atom_list` counts as a miss.  The set is built from
        the requested group and indices, with ``includes_zero`` False: the
        flag belongs to the subset a caller asked for, not to the entry.
        """
        try:
            data = json.loads(self._path(group, ground_indices).read_bytes())
            if (
                data["version"] != CACHE_VERSION
                or data["group"] != format_group(group)
                or data["ground_set"] != [list(group._coords_of(i)) for i in ground_indices]
            ):
                return None
            atoms = data["atoms"]
        except (OSError, ValueError, KeyError, TypeError, RecursionError):
            return None
        if type(atoms) is not list or not all(type(v) is list and all(type(m) is int for m in v) for v in atoms):
            return None
        folded = tuple(map(tuple, atoms))
        if not _is_valid_atom_list(group, ground_indices, folded):
            return None
        return AtomSet(group, tuple(map(group.element_at, ground_indices)), folded, False)

    def store(self, atom_set: AtomSet) -> None:
        """Write the entry of an atom set over a folded ground set atomically,
        so an interrupted run never leaves a partial file."""
        path = self._path(atom_set.group, tuple(g.index for g in atom_set.ground))
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(atom_set.to_json_dict(), sort_keys=True))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


@lru_cache(maxsize=4096)
def _span_davenport(group: Group, ground_indices: tuple[int, ...]) -> int:
    """D of the subgroup generated by a folded ground set (<S> = <fold S>), once
    per folded set per process; a refused search raises on every call, since
    raising caches nothing.  The type of the span is read from the relation
    lattice of the ground set's coordinates (:func:`pmzs.groups._span_type`),
    so neither an element object nor anything of size |G| is built."""
    return davenport(_span_type(group, [group._coords_of(i) for i in ground_indices]))


def check_atom_caps(group: Group, ground_indices: tuple[int, ...] | None, limits: Limits = DEFAULT_LIMITS) -> None:
    """Refuse atom enumeration over a nonzero ground set S past the caps.

    Raises :class:`ResourceLimitError` when fold S, the set the enumeration
    walks, has more elements than the support cap, or when D(<S>) exceeds the
    length cap or its Davenport search is refused.  D(H) <= |H| for every
    group H: of the |H| prefix sums of a sequence of length |H|, two are
    equal or one is 0.  So when |G| is within the length cap and the
    Davenport-order bound, neither can refuse, and D(<S>) is computed only
    above them.

    ``ground_indices`` None stands for S = G minus 0, which is checked
    before it is listed.  It spans G, and fold S has (|G| - 1 + t) / 2
    elements: x and -x are two elements that fold onto one, except for the
    t = 2^e - 1 nonzero elements with 2x = 0, e the number of even
    invariant factors.  After the two caps it is held to the walk's mask
    budget (:func:`pmzs.groups._check_walk_masks`), since the walk over it
    steps by every value c != 0 of every coordinate k: sum(n_k - 1) steps.
    """
    if ground_indices is None:
        support = (group.order - 2 + 2 ** group.m_rank(2)) // 2
    else:
        folded = fold_negatives(group, ground_indices)
        support = len(folded)
    if support > limits.max_support:
        raise ResourceLimitError(f"atom enumeration capped at {limits.max_support} support elements, got {support}")
    if group.order > min(limits.max_atom_length, MAX_DAVENPORT_ORDER):
        bound = davenport(group) if ground_indices is None else _span_davenport(group, folded)
        if bound > limits.max_atom_length:
            raise ResourceLimitError(
                f"atom length bound {bound} exceeds the cap {limits.max_atom_length} for {format_group(group)}"
            )
    if ground_indices is None:
        _check_walk_masks(group, sum(n - 1 for n in group.invariant_factors))


def enumerate_atoms(
    group: Group,
    subset: Iterable[GroupElement],
    *,
    limits: Limits = DEFAULT_LIMITS,
    cache: AtomCache | None = None,
) -> AtomSet:
    """Complete atom list of the signed zero-sum monoid over the given subset.

    Zero is stripped first and recorded in the flag.  Raises
    :class:`ResourceLimitError` when :func:`check_atom_caps` refuses the
    folded ground set, rather than returning a partial list.  The atoms are
    enumerated once per process over the folded ground set, which keys the
    ``cache``; a cache miss that the process already enumerated is still
    stored, with ``includes_zero`` False.
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
    check_atom_caps(group, folded_indices, limits)
    entry = None if cache is None else cache.load(group, folded_indices)
    if entry is not None:
        folded = entry.folded
    else:
        folded = _folded_atom_vectors(group, folded_indices)
        if cache is not None:
            cache.store(AtomSet(group, tuple(map(group.element_at, folded_indices)), folded, False))
    return AtomSet(group, tuple(map(group.element_at, ground_indices)), folded, includes_zero)


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
