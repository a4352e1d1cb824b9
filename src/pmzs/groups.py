"""Finite abelian groups in invariant-factor form.

Elements carry reduced coordinate vectors and are densely indexed by the
mixed-radix rank of their coordinates (coordinate 0 most significant), so
subsets of a group can be stored as integer bitmasks.  Translating a bitmask
by a group element rotates each coordinate: the bits of coordinate k fall in
blocks of n_k * stride_k consecutive indices (stride_k the product of the
later factors), and adding c to that coordinate rotates every block by
c * stride_k bits, which is one masked shift each way (:func:`_rotations`).

Every fact about an element index (its element object, its negative, the
rotations that translate a bitmask by it) is computed from the index's
coordinates on its first lookup and memoized per index (:class:`_IndexMemo`),
so a group hands out the same object for an index every time and builds
nothing for the elements no one asks about.  The abstract type of a subgroup
<S> is read from the relation lattice of S (:func:`_span_type`), with no
table at all; so a cap that needs D(<S>) refuses before anything of size |G|
is built.  Only the automorphism search, after its work cap, builds the
|G| x |G| addition table, and no group keeps it.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import chain, product
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence as SequenceABC

from .errors import DomainError, ResourceLimitError


_TRIAL_DIVISION_BOUND = 10**6
"""Trial division tries the divisors below this bound, so every n below its
square factors by trial division alone."""

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981
"""Every odd composite below this fails the strong probable-prime test to
one of the bases above (Sorenson--Webster, 2017)."""


def _proven_prime(n: int) -> bool:
    """Whether the odd n > 41 is below ``_MILLER_RABIN_LIMIT`` and a strong
    probable prime to every base of ``_MILLER_RABIN_BASES``, which proves n prime."""
    if n >= _MILLER_RABIN_LIMIT:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_RHO_BUDGET = 2**22
"""Pollard--Brent rho gives up on a cofactor once the cycle lengths it has
tried sum past this; a cycle length r costs up to 2r squarings."""


def _rho_divisor(n: int) -> int | None:
    """A proper divisor of the odd composite n, by Pollard's rho with Brent's
    cycle search over x -> x^2 + c (mod n) from the fixed seed 2, for
    c = 1, 2, ... in turn; None once ``_RHO_BUDGET`` is spent.

    The differences x - y are multiplied in batches of 128 before each gcd;
    a batch whose product shares all of n is stepped through again one term
    at a time, and a cycle that yields only n moves on to the next c.
    """
    budget, c = _RHO_BUDGET, 0
    while budget > 0:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and budget > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            budget -= r
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


def _prime_factorization(n: int) -> dict[int, int]:
    """Map prime -> exponent for n >= 1.

    Trial division runs up to sqrt(n), or below ``_TRIAL_DIVISION_BOUND``.  A
    cofactor left past the bound has no prime factor below it, and neither
    has any divisor of it, so such a number is a prime if it is below the
    bound squared or :func:`_proven_prime` proves it; otherwise it is split
    by :func:`_rho_divisor` and each part is factored by the same rule.  A
    cofactor past ``_MILLER_RABIN_LIMIT``, or one that does not split within
    the budget, is refused with a ResourceLimitError: a factorization is
    never returned unproven.
    """
    out: dict[int, int] = {}
    cofactor = n
    for d in chain((2,), range(3, _TRIAL_DIVISION_BOUND, 2)):
        if d * d > cofactor:
            break
        while cofactor % d == 0:
            out[d] = out.get(d, 0) + 1
            cofactor //= d
    else:
        if cofactor >= _MILLER_RABIN_LIMIT:
            raise ResourceLimitError(
                f"factorization of {n} capped at trial division below {_TRIAL_DIVISION_BOUND}: "
                f"the cofactor {cofactor} is too large to prove prime"
            )
        parts, cofactor = [cofactor], 1
        while parts:
            part = parts.pop()
            if part < _TRIAL_DIVISION_BOUND**2 or _proven_prime(part):
                out[part] = out.get(part, 0) + 1
                continue
            d = _rho_divisor(part)
            if d is None:
                raise ResourceLimitError(
                    f"factorization of {n} capped at {_RHO_BUDGET} Pollard-Brent steps: "
                    f"the composite {part} did not split"
                )
            parts += (d, part // d)
    if cofactor > 1:
        out[cofactor] = out.get(cofactor, 0) + 1
    return out


def _partitions_desc(n: int) -> Iterator[tuple[int, ...]]:
    """Integer partitions of n in non-increasing order."""

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(largest, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def _invariant_factors(chains: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
    """The invariant factors (ascending) of the sum of cyclic p-groups given as
    one non-increasing chain of orders per prime p: the i-th largest factor is
    the product of the i-th largest order of every chain."""
    chains = list(chains)
    width = max(map(len, chains), default=0)
    return tuple(math.prod(chain[i] for chain in chains if i < len(chain)) for i in reversed(range(width)))


@lru_cache(maxsize=None)
def abelian_group_types(order: int) -> tuple[tuple[int, ...], ...]:
    """All invariant-factor chains (ascending) of abelian groups of the given order."""
    if order < 1:
        raise DomainError(f"group order must be positive, got {order}")
    per_prime = []
    for p, a in sorted(_prime_factorization(order).items()):
        per_prime.append([tuple(p**e for e in part) for part in _partitions_desc(a)])
    return tuple(sorted({_invariant_factors(combo) for combo in product(*per_prime)}))


class _Record:
    """A value class whose construction, equality, hash and repr derive from
    the fields it names once, in ``_fields``.

    The constructor binds the fields in order, positional values first, then
    keywords, then the immutable values of ``_defaults``; a missing, duplicate
    or unknown field is a TypeError.  Two records are equal only when they are
    of the same class and their fields are equal in order, and a record's hash
    is the hash of the tuple of its fields: both as for a frozen dataclass of
    those fields.  Records are immutable by convention: nothing assigns to a
    field after ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # the tuple of field values; attrgetter of one name gives the bare value
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __init__(self, *values, **named):
        fields, cls = self._fields, type(self).__name__
        if len(values) > len(fields):
            raise TypeError(f"{cls} takes {len(fields)} fields, got {len(values)} values")
        for name, value in zip(fields, values):
            setattr(self, name, value)
        for name in fields[len(values):]:
            if name not in named and name not in self._defaults:
                raise TypeError(f"{cls} is missing the field {name!r}")
            setattr(self, name, named.pop(name) if name in named else self._defaults[name])
        for name in named:
            problem = "got two values for the field" if name in fields else "has no field"
            raise TypeError(f"{cls} {problem} {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Group(_Record):
    """A finite abelian group given by its invariant factors n1 | n2 | ... | nr.

    The empty tuple is the trivial group.  Use :func:`make_group` to build a
    group from an arbitrary list of cyclic orders; the direct constructor
    insists on an already-canonical chain.
    """

    _fields = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...]):
        factors = self.invariant_factors = tuple(int(n) for n in invariant_factors)
        for n in factors:
            if n < 2:
                raise DomainError(f"invariant factor must be >= 2, got {n}")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise DomainError(f"invariant factors must form a divisibility chain, got {factors}")

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @cached_property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def m_rank(self, m: int) -> int:
        """Number of invariant factors divisible by m (m >= 2)."""
        if m < 2:
            raise DomainError(f"m-rank requires m >= 2, got {m}")
        return sum(1 for n in self.invariant_factors if n % m == 0)

    @property
    def d_star(self) -> int:
        """The classical lower-bound formula sum(ni - 1) + 1 for the Davenport constant."""
        return sum(n - 1 for n in self.invariant_factors) + 1

    @property
    def is_p_group(self) -> bool:
        return len(_prime_factorization(self.exponent)) <= 1

    # -- element construction and indexing ------------------------------------

    def element(self, *coords: int) -> "GroupElement":
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        return GroupElement(self, tuple(coords))

    def element_at(self, index: int) -> "GroupElement":
        if not 0 <= index < self.order:
            raise DomainError(f"element index {index} out of range for {self}")
        return self._elements[index]

    def elements(self) -> Iterator["GroupElement"]:
        for i in range(self.order):
            yield self.element_at(i)

    def index_of(self, coords: tuple[int, ...]) -> int:
        idx = 0
        for c, n in zip(coords, self.invariant_factors):
            idx = idx * n + c
        return idx

    @cached_property
    def _radix(self) -> tuple[tuple[int, int], ...]:
        """Per coordinate k, (n_k, stride_k): stride_k is the product of the
        later factors, so coordinate k of an index i is i // stride_k % n_k."""
        radix, stride = [], self.order
        for n in self.invariant_factors:
            stride //= n
            radix.append((n, stride))
        return tuple(radix)

    def _coords_of(self, index: int) -> tuple[int, ...]:
        """The coordinate vector of an element index (the inverse of :meth:`index_of`)."""
        return tuple([index // stride % n for n, stride in self._radix])

    # -- per-index memos and the addition table --------------------------------

    @cached_property
    def _elements(self) -> "_IndexMemo":
        """The element object of each index, so that :meth:`element_at` hands
        out the same object for an index every time."""
        return _IndexMemo(lambda i: GroupElement(self, self._coords_of(i)))

    @cached_property
    def _neg(self) -> "_IndexMemo":
        """The index of the negative of each index: coordinate c becomes n - c, or stays 0."""
        radix = self._radix

        def negative(index: int) -> int:
            out = 0
            for n, stride in radix:
                if c := index // stride % n:
                    out += (n - c) * stride
            return out

        return _IndexMemo(negative)

    @cached_property
    def _shift_steps(self) -> "_IndexMemo":
        """The block rotations that translate a bitmask by each index (see :func:`_rotations`)."""
        return _IndexMemo(_rotations(self.order, self._radix))

    def _add_table(self) -> tuple[tuple[int, ...], ...]:
        """The |G| x |G| table of sums by index, built anew by each call.

        The index of a + b is the sum over k of ((a_k + b_k) mod n_k) * stride_k,
        so row a is built one coordinate at a time: the sums, in index order, of
        one entry from each strided column [(a_k + x) % n_k * stride_k for x < n_k].
        """
        rows = []
        for a in range(self.order):
            row = [0]
            for n, stride in self._radix:
                c = a // stride % n
                column = [(c + x) % n * stride for x in range(n)]
                row = [s + t for s in row for t in column]
            rows.append(tuple(row))
        return tuple(rows)

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "C1"
        return "x".join(f"C{n}" for n in self.invariant_factors)

    def __repr__(self) -> str:
        return f"Group({list(self.invariant_factors)})"

    def __reduce__(self):
        # pickle as the invariant factors, without the cached tables; unpickling gives the interned group
        return _canonical_group, (self.invariant_factors,)


class _IndexMemo(dict):
    """Element index -> a fact about that element, computed by ``fact`` on its
    first lookup and kept, so only the indices asked about are ever computed."""

    __slots__ = ("_fact",)

    def __init__(self, fact: Callable[[int], object]):
        super().__init__()
        self._fact = fact

    def __missing__(self, index: int):
        value = self[index] = self._fact(index)
        return value


def _rotations(order: int, radix: tuple[tuple[int, int], ...]) -> Callable[[int], tuple[tuple[int, int, int, int], ...]]:
    """The map from an element index to the block rotations that translate a
    bitmask by that element.

    A step ``(lo, up, hi, down)`` adds c to coordinate k: ``lo`` holds the
    indices whose coordinate k is below n_k - c, which move up by
    ``up = c * stride_k`` bits, and ``hi`` the rest, which wrap down by
    ``down = (n_k - c) * stride_k`` bits.  An element's tuple has one step per
    nonzero coordinate.  The steps are built per (k, c) and shared by the
    elements, and the |G|-bit pattern of block starts that they read is built
    per coordinate k on its first step.  Each step holds two |G|-bit masks,
    so a memo of this map builds them only for the elements actually shifted
    by, and making the map builds none.
    """
    repeats: dict[int, int] = {}  # per coordinate k, a 1 at the start of every block
    steps: dict[tuple[int, int], tuple[int, int, int, int]] = {}

    def step(k: int, c: int) -> tuple[int, int, int, int]:
        found = steps.get((k, c))
        if found is None:
            n, stride = radix[k]
            full = (1 << order) - 1
            if k not in repeats:
                # doubling shifts take O(|G| log) bit operations; full // (2^(n stride) - 1) is quadratic
                pattern, width = 1, n * stride
                while width < order:
                    pattern |= pattern << width
                    width *= 2
                repeats[k] = pattern & full
            lo = ((1 << ((n - c) * stride)) - 1) * repeats[k]
            found = steps[k, c] = (lo, c * stride, full ^ lo, (n - c) * stride)
        return found

    return lambda index: tuple(
        step(k, c) for k, (n, stride) in enumerate(radix) if (c := index // stride % n)
    )


@lru_cache(maxsize=None)
def _canonical_group(factors: tuple[int, ...]) -> Group:
    return Group(factors)


def make_group(cyclic_orders: Iterable[int]) -> Group:
    """Build the group C_{m1} + ... + C_{mk} in canonical invariant-factor form.

    Any list of cyclic orders >= 2 is accepted; the result is the isomorphic
    invariant-factor decomposition, e.g. [2, 3] -> C6 and [6, 4] -> C2xC12.
    """
    orders = [int(m) for m in cyclic_orders]
    for m in orders:
        if m < 2:
            raise DomainError(f"cyclic order must be >= 2, got {m}")
    per_prime: dict[int, list[int]] = {}
    for m in orders:
        for p, e in _prime_factorization(m).items():
            per_prime.setdefault(p, []).append(p**e)
    return _canonical_group(_invariant_factors(tuple(sorted(powers, reverse=True)) for powers in per_prime.values()))


class GroupElement(_Record):
    """An element of a :class:`Group`; coordinates are kept reduced mod each factor."""

    _fields = ("group", "coords")

    def __init__(self, group: Group, coords: tuple[int, ...]):
        factors = group.invariant_factors
        if len(coords) != len(factors):
            raise DomainError(f"element needs {len(factors)} coordinates for {group}, got {len(coords)}")
        self.group = group
        self.coords = tuple(int(c) % n for c, n in zip(coords, factors))

    @cached_property
    def index(self) -> int:
        return self.group.index_of(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        """Smallest k >= 1 with k * self = 0."""
        k = 1
        for c, n in zip(self.coords, self.group.invariant_factors):
            k = math.lcm(k, n // math.gcd(n, c))
        return k

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"

    def __repr__(self) -> str:
        return f"{self.group}:{self}"


def signed_shift_mask(group: Group, mask: int, gi: int) -> int:
    """(T + g) | (T - g) for a bitmask T; one step of the signed-sum recursion.

    Each side applies the block rotations of :func:`_rotations` inline, so a
    step makes no call beyond the lookups in the lazily filled step table.
    """
    steps = group._shift_steps
    plus = minus = mask
    for lo, up, hi, down in steps[gi]:
        plus = (plus & lo) << up | (plus & hi) >> down
    for lo, up, hi, down in steps[group._neg[gi]]:
        minus = (minus & lo) << up | (minus & hi) >> down
    return plus | minus


def _echelon_rows(vectors: Iterable[SequenceABC[int]]) -> dict[int, list[int]]:
    """An echelon basis of the lattice the vectors span, as its rows by pivot column.

    Each vector is reduced against the rows in column order.  Where a row
    already holds a pivot in the vector's leading column, Euclid's algorithm
    runs on the two: the vector minus the quotient times the row, and while
    that leaves the vector's entry nonzero, the two swap and go on.  So a
    vector whose entry the row's pivot divides leaves the row as it is.  Each
    step is unimodular, so the rows keep spanning the same lattice.  A vector
    with no row at its leading column becomes that row.  A pivot may be
    negative.  A row's entries before its pivot are 0, so the rows with pivot
    at column c or later span the lattice vectors that vanish before c.
    """
    rows: dict[int, list[int]] = {}
    for vec in vectors:
        v = list(vec)
        for c in range(len(v)):
            if not v[c]:
                continue
            row = rows.get(c)
            if row is None:
                rows[c] = v
                break
            while v[c]:
                q = v[c] // row[c]
                v = [a - q * b for a, b in zip(v, row)]
                if v[c]:
                    row, v = v, row
            rows[c] = row
    return rows


def _span_type(group: Group, generators: list[tuple[int, ...]]) -> Group:
    """The abstract type of the subgroup <S> spanned by elements given by
    their coordinates, from the Smith form of the relations of S (Cohen, *A
    Course in Computational Algebraic Number Theory*, 2.4).

    With s_1..s_m the generators, <S> = Z^m / K for K the lattice of the a
    with sum a_i s_i = 0.  The rows (s_i | e_i) and (n_j e_j | 0) span the
    vectors (sum a_i s_i + sum b_j n_j e_j | a), and those that vanish on
    the r coordinate columns are exactly (0 | K).  So in an echelon basis
    (:func:`_echelon_rows`) the rows with pivot past the coordinate columns
    are a basis of K.  K holds ord(s_i) e_i, so it has rank m.  Echelon forms
    of K's basis and of its transpose in alternation, each a unimodular
    change of rows or columns that keeps the Smith form, reach a diagonal
    matrix: each pass makes the first pivot the gcd of its column, so its
    size falls until it divides the first row too, and then that row and
    column clear and stay clear.  <S> is the sum of the cyclic groups of
    order |d| over the diagonal.  No element is listed, so nothing of size
    |G| is built.
    """
    factors = group.invariant_factors
    r, m = len(factors), len(generators)
    rows = [list(s) + [int(i == j) for j in range(m)] for i, s in enumerate(generators)]
    rows += [[n * (j == k) for k in range(r + m)] for j, n in enumerate(factors)]
    lattice = _echelon_rows(rows)
    relations = [lattice[c][r:] for c in sorted(lattice) if c >= r]
    while any(x for i, row in enumerate(relations) for j, x in enumerate(row) if i != j):
        echelon = _echelon_rows(zip(*relations))
        relations = [echelon[c] for c in sorted(echelon)]
    return make_group(d for i, row in enumerate(relations) if (d := abs(row[i])) > 1)


def fold_negatives(group: Group, indices: Iterable[int]) -> tuple[int, ...]:
    """Replace each element index by min(i, index of -i) and deduplicate.

    Negating a single generator, or merging g with an already-present -g,
    preserves every set of signed sums, hence all sets of lengths computed
    from the resulting monoid; folding is therefore safe for any invariant
    derived from lengths (minimal distance, Davenport constant, rho_k).
    """
    neg = group._neg
    return tuple(sorted({min(i, neg[i]) for i in indices}))


def fold_positions(group: Group, indices: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``fold_negatives(group, indices)``, and the position in it of each given
    index's image min(i, index of -i)."""
    folded = fold_negatives(group, indices)
    neg = group._neg
    slot = {f: j for j, f in enumerate(folded)}
    return folded, tuple(slot[min(i, neg[i])] for i in indices)


class GroupSummary(_Record):
    """Structural invariants reported by the CLI ``group`` command: ints, but for
    the :class:`Group` ``group`` and ``m_ranks``, a dict prime p -> p-rank."""

    __slots__ = _fields = ("group", "order", "exponent", "rank", "d_star", "m_ranks")


def group_invariants(group: Group) -> GroupSummary:
    primes = sorted(_prime_factorization(group.exponent))
    return GroupSummary(
        group=group,
        order=group.order,
        exponent=group.exponent,
        rank=group.rank,
        d_star=group.d_star,
        m_ranks={p: group.m_rank(p) for p in primes},
    )


MAX_WALK_MASK_BYTES = 2**26
"""The most bytes of |G|-bit rotation masks that :func:`_minimal_zero_sums`
builds: two per distinct (coordinate, value) step of its elements."""


def _check_walk_masks(group: Group, steps: int) -> None:
    """Refuse with a ResourceLimitError a zero-sum walk over ``group`` whose
    elements make ``steps`` distinct (coordinate, value) steps, when their
    rotation masks, two |G|-bit masks a step, pass ``MAX_WALK_MASK_BYTES``."""
    need = 2 * steps * (group.order + 7 >> 3)
    if need > MAX_WALK_MASK_BYTES:
        raise ResourceLimitError(
            f"zero-sum walk capped at {MAX_WALK_MASK_BYTES} bytes of rotation masks; "
            f"{steps} steps over {group} need {need}"
        )


def _minimal_zero_sums(group: Group, folded: tuple[int, ...], weights: tuple[int, ...]) -> dict[int, int]:
    """The minimal zero-sum sequences w over U = F u -F, for F a folded set
    of nonzero element indices, one of each pair {w, -w}, counted by their
    image under the fold: w adds 1 at the key sum_j weights[j] * phi(w)_j,
    where phi(w)_j counts the terms f_j and -f_j of w.

    The walk runs over the zero-sum-free sequences T over U by non-decreasing
    position in the order f_0, -f_0, f_1, -f_1, ..., with the elements of
    order 2 last.  It carries the negatives of the sums of T's subsequences,
    the empty one included, as a bitmask, and -sigma(T) as an index.  T * u
    is zero-sum free iff the bit of u is clear in that mask, so the test
    comes before any shift; extending by u translates the mask and the index
    by -u with the same block rotations (:func:`_rotations`).  T * u is a
    zero sum iff u = -sigma(T), and then it is minimal: a proper zero-sum
    subsequence would contain u, and T minus the rest of it would be a
    nonempty zero sum in T.  Every minimal zero-sum sequence w is met exactly
    once, as T * u with u the last term of w, since every subsequence of T
    is zero-sum free.  Zero-sum-free sequences are shorter than D(G), so the
    walk stops by itself; it keeps the sequences still to extend on a list,
    so their length is not bounded by Python's recursion limit.

    Only sequences whose first term lies in F are walked.  Negation swaps
    the positions of f and -f, so unless w = -w exactly one of w and -w has
    its first term in F; and w = -w only for f * -f, which starts at f, and
    for sequences of elements of order 2, which come last.

    The walk is refused by :func:`_check_walk_masks` before any mask is
    built when the rotation masks it needs pass ``MAX_WALK_MASK_BYTES``.
    """
    neg = group._neg
    elements: list[int] = []
    keys: list[int] = []
    heads: list[int] = []  # the positions of the elements of F
    for gi, weight in sorted(zip(folded, weights), key=lambda pair: neg[pair[0]] == pair[0]):
        heads.append(len(elements))
        pair = (gi,) if neg[gi] == gi else (gi, neg[gi])
        elements += pair
        keys += (weight,) * len(pair)
    # the distinct steps (k, c) of U, two |G|-bit masks each; U is closed
    # under negation, so the steps by -u over U are those by u
    radix = group._radix
    needed = len({(k, c) for gi in elements for k, (n, stride) in enumerate(radix) if (c := gi // stride % n)})
    _check_walk_masks(group, needed)
    steps = group._shift_steps
    position = {gi: p for p, gi in enumerate(elements)}
    # from each position on: the term, its key and the rotations that translate by -u
    terms = [(p, gi, keys[p], steps[neg[gi]]) for p, gi in enumerate(elements)]
    tails = [terms[p:] for p in range(len(terms))]
    found: dict[int, int] = {}
    # the sequences T still to extend, as (last position, mask, -sigma(T), key)
    stack = [(p, 1 | 1 << neg[elements[p]], neg[elements[p]], keys[p]) for p in heads]
    while stack:
        start, minus_sums, target, key = stack.pop()
        if target in position and (p := position[target]) >= start:
            done = key + keys[p]
            found[done] = found.get(done, 0) + 1
        for p, gi, weight, back in tails[start]:
            if minus_sums >> gi & 1:
                continue
            shifted, t = minus_sums, target
            for lo, up, hi, down in back:
                shifted = (shifted & lo) << up | (shifted & hi) >> down
                t = t + up if lo >> t & 1 else t - down
            stack.append((p, minus_sums | shifted, t, key + weight))
    return found


@lru_cache(maxsize=None)
def _longest_minimal_zero_sum(group: Group) -> int:
    """Length of the longest minimal zero-sum sequence over G minus 0, by the
    walk of :func:`_minimal_zero_sums` with every weight 1."""
    folded = fold_negatives(group, range(1, group.order))
    return max(_minimal_zero_sums(group, folded, (1,) * len(folded)))


def davenport_exhaustive(group: Group) -> int:
    """Davenport constant by exhaustive zero-sum-free search (no formula shortcut):
    the length of the longest minimal zero-sum sequence."""
    if group.order == 1:
        return 1
    return _longest_minimal_zero_sum(group)


MAX_DAVENPORT_ORDER = 24
"""The largest order at which :func:`davenport` runs the exhaustive search."""


def davenport(group: Group) -> int:
    """Exact Davenport constant D(G).

    For p-groups and groups of rank at most two this equals the d_star
    formula (any order); otherwise an exhaustive search runs, capped at
    ``MAX_DAVENPORT_ORDER`` because the search cost grows steeply with the
    order.  Past the cap a ResourceLimitError carries the d_star lower bound.
    """
    if group.rank <= 2 or group.is_p_group:
        return group.d_star
    if group.order > MAX_DAVENPORT_ORDER:
        raise ResourceLimitError(
            f"exact Davenport search capped at order {MAX_DAVENPORT_ORDER}; "
            f"d_star gives D({group}) >= {group.d_star}",
            lower_bound=group.d_star,
        )
    return davenport_exhaustive(group)


MAX_AUTOMORPHISM_WORK = 2**22
"""The most work (image tuples times |G| entries) that :func:`automorphisms` takes on."""


def automorphisms(group: Group) -> list[tuple[int, ...]]:
    """All automorphisms of the group, as permutations of element indices.

    Generator images are chosen depth first, in the order of a product over
    the candidate images.  An automorphism keeps element orders, so the
    image of ei ranges over the elements of order exactly ni, in index order;
    each choice induces a well-defined homomorphism on <e1, ..., ei>, listed
    as the images of its elements.  A choice is dropped as soon as that list
    repeats an index, since a restriction of a bijection is injective; a
    full list without repeats permutes the group.  (An image of smaller
    order than ni would repeat the index 0, so leaving those out changes
    neither the list nor its order.)  The work of a full product over the
    prod_j gcd(ni, nj) elements killed by ni (image tuples times |G|
    entries) is computed from the invariant factors, and the search is refused
    when it exceeds ``MAX_AUTOMORPHISM_WORK``; only then does it build the
    addition table, which it drops when it returns.
    """
    factors = group.invariant_factors
    tuples = math.prod(math.gcd(n, m) for n in factors for m in factors)
    if tuples * group.order > MAX_AUTOMORPHISM_WORK:
        raise ResourceLimitError(
            f"automorphism search over {group} tries {tuples} image tuples of {group.order} elements, "
            f"over the work cap {MAX_AUTOMORPHISM_WORK}"
        )
    if group.order == 1:
        return [()]
    add = group._add_table()
    radix = group._radix
    orders = [math.lcm(*[n // math.gcd(n, i // stride % n) for n, stride in radix]) for i in range(group.order)]
    # the multiples 0, gi, 2 gi, ... of each candidate image of ei
    candidates = []
    for n in factors:
        per_image = []
        for gi, order in enumerate(orders):
            if order == n:
                multiples = [0]
                for _ in range(n - 1):
                    multiples.append(add[multiples[-1]][gi])
                per_image.append(multiples)
        candidates.append(per_image)
    out = []

    def extend(depth: int, maps: list[int]) -> None:
        if depth == len(factors):
            out.append(tuple(maps))
            return
        for multiples in candidates[depth]:
            # keep earlier coordinates most significant, matching element indexing
            images = [add[x][m] for x in maps for m in multiples]
            if len(set(images)) == len(images):
                extend(depth + 1, images)

    extend(0, [0])
    return out
