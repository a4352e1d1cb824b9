"""Factorizations, sets of lengths, and the exact minimal distance.

The minimal distance of a monoid with a known complete atom list comes out of
the lattice Lambda spanned by the vectors (a, 1) over the atoms a, with the
length coordinate last.  An integer vector z with sum z_a a = 0 (in the
kernel of the atom exponent matrix) splits as z = z+ - z-, and z+ and z- are
two factorizations of the same element whose lengths differ by sum(z).
Conversely any two factorizations z, z' of one element give the kernel vector
z - z'.  The set of length differences therefore generates the ideal dZ of the
sums of kernel vectors, and d is the minimal distance (which equals the gcd
of the distance set).  Since sum z_a (a, 1) = (sum z_a a, sum z_a), the
vectors of Lambda that vanish off the length coordinate are exactly 0 x dZ.
In an echelon basis of Lambda those are the multiples of the row whose pivot
lies in the length column, so d is that last pivot, and no row there means
an empty distance set.  The basis is built one atom at a time and holds at
most one row per coordinate.  :func:`pmzs.groups._echelon_rows` is the one
lattice routine of the package (it also types subgroup spans); the tests
check it against a kernel basis.

Every invariant here reads the atoms over the folded ground set that an
:class:`~pmzs.atoms.AtomSet` holds: the fold is a transfer homomorphism (see
:mod:`pmzs.atoms`), so it keeps every set of lengths.
"""

from __future__ import annotations

from itertools import chain, combinations_with_replacement, product
from typing import Iterable

from . import atoms
from .atoms import AtomCache, AtomSet, enumerate_atoms
from .errors import DomainError, ResourceLimitError
from .groups import Group, GroupElement, _echelon_rows, _Record, fold_negatives
from .limits import DEFAULT_LIMITS, Limits
from .sequences import Sequence

ZERO_ATOM = -1  # marker index for the prime atom (0) in factorization listings


def min_delta_of_atoms(atom_set: AtomSet) -> int | None:
    """Minimal distance of the monoid with the given complete atom list.

    The last pivot of an echelon basis of the lattice spanned by the vectors
    (a, 1) over the folded atoms a, with the length coordinate last (see
    the module docstring).  None means the distance set is empty (the monoid
    is half-factorial).
    """
    if not atom_set.folded:
        return None
    width = len(atom_set.folded[0])
    last = _echelon_rows(vec + (1,) for vec in atom_set.folded).get(width)
    return abs(last[width]) if last else None


def min_delta(
    group: Group,
    subset: Iterable[GroupElement],
    *,
    limits: Limits = DEFAULT_LIMITS,
    cache: AtomCache | None = None,
) -> int | None:
    """Exact min of the distance set of the signed zero-sum monoid over the subset.

    Read off the echelon form of :func:`min_delta_of_atoms`; ``None`` when
    the distance set is empty.
    """
    return min_delta_of_atoms(enumerate_atoms(group, subset, limits=limits, cache=cache))


class FactorizationSet(_Record):
    """All factorizations of one element into atoms, with derived lengths.

    Each factorization of the :class:`Sequence` ``element`` is a sorted tuple
    of atom indices into the atom set (``ZERO_ATOM`` entries stand for the
    prime atom (0)); ``lengths`` is a sorted tuple, ``delta`` its successive gaps.
    """

    __slots__ = _fields = ("element", "factorizations", "lengths", "delta")

    def to_json_dict(self) -> dict:
        packed = []
        for fac in self.factorizations:
            counts: dict[int, int] = {}
            for idx in fac:
                counts[idx] = counts.get(idx, 0) + 1
            packed.append([[idx, counts[idx]] for idx in sorted(counts)])
        return {
            "element": str(self.element),
            "factorizations": packed,
            "lengths": list(self.lengths),
            "delta": list(self.delta),
        }


def delta_of_lengths(lengths: Iterable[int]) -> tuple[int, ...]:
    """The set of distances Delta(L) of a finite set L of integers: the
    distinct gaps between successive elements of L, in increasing order."""
    ordered = sorted(set(lengths))
    return tuple(sorted({b - a for a, b in zip(ordered, ordered[1:])}))


class Factorizer:
    """Factorization queries against a fixed complete atom set.

    Lengths come from one memoized length-mask DP over residual exponent
    vectors: ``mask(0) = 1`` and ``mask(r)`` is the OR of ``mask(r - a) << 1``
    over the atoms ``a <= r``, so bit l is set iff r has a factorization of
    length l (Geroldinger--Halter-Koch, *Non-Unique Factorizations*, 1.4).
    Only the atoms that cover the lowest nonzero field of r are tried, since
    every factorization of r holds one of them.  A residual is packed into one
    int with a fixed-width field per ground element and a guard bit on top of
    each field: ``d = (r | G) - a`` keeps every guard bit iff ``a <= r``, and
    then ``d ^ G`` is ``r - a``.  The fields start wide enough for a product
    of eight atoms; they are widened, and the memo dropped, when a query has
    a coordinate that does not fit.  The full listing of
    :meth:`factorizations` is memoized on (residual, first atom index).  Both
    run on explicit stacks, so an element with more atom factors than
    Python's recursion limit still factors.

    The DP runs over the atoms of the folded ground set that the atom set
    holds: the fold phi sums the coordinates of g and -g onto min(g, -g), and
    it is a transfer homomorphism (see :mod:`pmzs.atoms`), so
    L(v) = L(phi(v)).  Queries are answered at phi(v).  Only the listing of
    :meth:`factorizations` reads the atoms over the ground set itself.

    A query longer than 8 D(<S>) is refused.  D(<S>) is read on each query
    from :func:`pmzs.atoms._span_davenport`, which computes it once per
    folded ground set per process.
    """

    def __init__(self, atom_set: AtomSet):
        self.atom_set = atom_set
        self._source = atom_set.source
        self._width = len(set(self._source))
        # wide enough for a product of eight atoms; larger queries widen
        top = max((max(vec) for vec in atom_set.folded), default=1)
        self._set_field_bits((8 * top).bit_length())
        memo: dict[tuple[tuple[int, ...], int], tuple[tuple[int, ...], ...]] = {}

        def suffix_factorizations(residual: tuple[int, ...], start: int) -> tuple[tuple[int, ...], ...]:
            """Every factorization of the residual into the atoms of index
            ``start`` on, each as a non-decreasing tuple of atom indices."""
            vectors = atom_set.vectors
            # post-order on an explicit stack: (r, first, None) lists the
            # steps r - a_k, k >= first, and comes back as (r, first, steps)
            # to be built, once, after every (r - a_k, k) is memoized
            stack = [(residual, start, None)]
            while stack:
                r, first, steps = stack.pop()
                if steps is None:
                    if (r, first) in memo:
                        continue
                    if not any(r):
                        memo[r, first] = ((),)
                        continue
                    steps = []
                    for k in range(first, len(vectors)):
                        vec = vectors[k]
                        if all(a >= b for a, b in zip(r, vec)):
                            steps.append((k, tuple(a - b for a, b in zip(r, vec))))
                    stack.append((r, first, steps))
                    stack.extend((rest, k, None) for k, rest in steps if (rest, k) not in memo)
                else:
                    memo[r, first] = tuple((k,) + suffix for k, rest in steps for suffix in memo[rest, k])
            return memo[residual, start]

        self._suffixes = suffix_factorizations

    def _set_field_bits(self, bits: int) -> None:
        """Pack with ``bits``-wide fields, so every coordinate below 2**bits fits,
        and start a fresh memo keyed on residuals packed that way."""
        self._field_limit = 1 << bits
        self._stride = bits + 1
        guards = sum(1 << (i * self._stride + bits) for i in range(self._width))
        per_field = [tuple(self._pack(vec) for vec in self.atom_set.folded if vec[i]) for i in range(self._width)]
        # the atoms that cover the field holding each bit
        covering = [per_field[b // self._stride] for b in range(self._width * self._stride)]
        memo = {0: 1}

        def mask(residual: int) -> int:
            found = memo.get(residual)
            if found is not None:
                return found
            # a residual leaves the stack once all its r - a are memoized, so
            # the depth is not bounded by Python's recursion limit
            stack = [residual]
            while stack:
                r = stack[-1]
                guarded = r | guards
                found = 0
                ready = True
                for atom in covering[(r & -r).bit_length() - 1]:
                    d = guarded - atom
                    if d & guards == guards:
                        rest = memo.get(d ^ guards)
                        if rest is None:
                            stack.append(d ^ guards)
                            ready = False
                        else:
                            found |= rest
                if ready:
                    stack.pop()
                    memo[r] = found << 1
            return memo[residual]

        self._mask = mask

    def _fold(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """phi(vec): the coordinates of g and -g summed onto the folded one."""
        folded = [0] * self._width
        for j, c in zip(self._source, vec):
            folded[j] += c
        return tuple(folded)

    def _pack(self, vec: tuple[int, ...]) -> int:
        return sum(c << (i * self._stride) for i, c in enumerate(vec))

    def _mask_of(self, vec: tuple[int, ...]) -> int:
        """Bitmask of the factorization lengths of an exponent vector over the ground set."""
        if len(vec) != len(self._source) or min(vec, default=0) < 0:
            raise DomainError(f"expected a nonnegative exponent vector of length {len(self._source)}, got {vec}")
        return self._folded_mask(self._fold(vec))

    def _folded_mask(self, folded: tuple[int, ...]) -> int:
        """Bitmask of the factorization lengths of an exponent vector over the folded ground set."""
        top = max(folded, default=0)
        if top >= self._field_limit:
            self._set_field_bits(top.bit_length())
        lengths = self._mask(self._pack(folded))
        if not lengths:
            raise AssertionError("a signed zero-sum element failed to factor over a complete atom set")
        return lengths

    def _vector_and_zeros(self, element: Sequence) -> tuple[tuple[int, ...], int]:
        if element.group != self.atom_set.group:
            raise DomainError("element belongs to a different group than the atom set")
        folded = fold_negatives(element.group, [g.index for g in self.atom_set.ground])
        cap = 8 * max(atoms._span_davenport(element.group, folded), 1)
        # summed here, since len() cannot return a length past sys.maxsize
        length = sum(mult for _, mult in element.entries)
        if length > cap:
            raise ResourceLimitError(f"factorization query capped at length {cap}, got {length}")
        zeros = 0
        stripped = element
        # entries are sorted by index, so a 0 term comes first
        if element.entries and element.entries[0][0] == 0:
            if not self.atom_set.includes_zero:
                raise DomainError("element contains 0 but 0 is not in the ground set")
            zeros = element.entries[0][1]
            stripped = Sequence(element.group, element.entries[1:])
        if not element.is_pm_zero_sum():
            raise DomainError("only signed zero-sum sequences factor in this monoid")
        return self.atom_set.vector_of(stripped), zeros

    def _lengths(self, vec: tuple[int, ...], zeros: int) -> tuple[int, ...]:
        lengths = self._mask_of(vec)
        return tuple(length + zeros for length in range(lengths.bit_length()) if lengths >> length & 1)

    def factorizations(self, element: Sequence) -> FactorizationSet:
        """Every factorization, listed; only the ``lengths`` command needs the list.
        The lengths come from the DP, which also checks that the element factors."""
        vec, zeros = self._vector_and_zeros(element)
        lengths = self._lengths(vec, zeros)
        facs = tuple(sorted((ZERO_ATOM,) * zeros + f for f in self._suffixes(vec, 0)))
        return FactorizationSet(element, facs, lengths, delta_of_lengths(lengths))

    def length_set(self, element: Sequence) -> tuple[int, ...]:
        return self._lengths(*self._vector_and_zeros(element))

    def max_length(self, element: Sequence) -> int:
        vec, zeros = self._vector_and_zeros(element)
        return self._mask_of(vec).bit_length() - 1 + zeros

    def max_length_of_vector(self, vec: tuple[int, ...]) -> int:
        return self._mask_of(vec).bit_length() - 1


def factorizations(element: Sequence, atom_set: AtomSet) -> FactorizationSet:
    return Factorizer(atom_set).factorizations(element)


def length_set(element: Sequence, atom_set: AtomSet) -> tuple[int, ...]:
    return Factorizer(atom_set).length_set(element)


def delta_of_element(element: Sequence, atom_set: AtomSet) -> tuple[int, ...]:
    return delta_of_lengths(length_set(element, atom_set))


def rho_k(
    group: Group,
    subset: Iterable[GroupElement],
    k: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
    cache: AtomCache | None = None,
) -> int:
    """Largest factorization length among elements that are products of k atoms.

    Exact for every k: an element with k in its length set is such a product.
    The products range over the folded atoms, whose elements have the same
    sets of lengths.  They are visited by decreasing total length t, and the
    search stops once floor(t / 2) is at most the best length found: every
    folded atom has length at least 2, so an element of length t has no
    factorization longer than floor(t / 2).  k = 1 returns 1.  k above the
    configured cap raises ResourceLimitError.
    """
    if k < 1:
        raise DomainError(f"rho_k requires k >= 1, got {k}")
    if k > limits.rho_cap:
        raise ResourceLimitError(f"rho_k capped at k <= {limits.rho_cap}, got {k}")
    if k == 1:
        return 1
    atom_set = enumerate_atoms(group, subset, limits=limits, cache=cache)
    if not atom_set.folded:
        # only the prime atom (0) can be present; its powers have single lengths
        return k if atom_set.includes_zero else 0
    fz = Factorizer(atom_set)
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for vec in atom_set.folded:
        by_length.setdefault(sum(vec), []).append(vec)
    # the multisets of k atom lengths, by decreasing total
    shapes = sorted(combinations_with_replacement(sorted(by_length, reverse=True), k), key=sum, reverse=True)
    best = k
    for shape in shapes:
        if sum(shape) // 2 <= best:
            break
        per_length = [combinations_with_replacement(by_length[l], shape.count(l)) for l in sorted(set(shape))]
        for parts in product(*per_length):
            total = tuple(map(sum, zip(*chain.from_iterable(parts))))
            best = max(best, fz._folded_mask(total).bit_length() - 1)
    return best
