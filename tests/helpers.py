"""Independent oracles used to cross-check the library paths.

The brute-force ones avoid the library's set-DP, lattice and memoized
factorization code: translates come from the addition table, signed sums from
explicit sign enumeration, subgroup spans from a breadth-first search over
the addition table, factorization lengths from a naive recursion over atom
vectors and factorizations from every choice of atom multiplicities.  Two
are second mechanisms for a library result: the earlier-atom rule
(:func:`_enumerate_atom_vectors`) lists atoms by another search than
the minimal-zero-sum walk, and :func:`integer_kernel_basis` computes the
lattice of relations that the echelon form behind min delta reads.  The CLI's
argv parser is checked against the argparse parser it replaced
(:func:`argparse_parse_args`), and the sweep's canonical forms and orbit
listing against a maximum over one image mask per map and a listing that
marks every subset (:class:`PerMapOrbits`).
"""

from __future__ import annotations

import argparse
import math
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations_with_replacement, product
from operator import itemgetter
from pathlib import Path

from pmzs import DEFAULT_LIMITS, AtomSet, DomainError, Group, GroupElement, Sequence, abelian_group_types, make_group
import pmzs.atoms
import pmzs.relations
from pmzs.groups import automorphisms


REPO = Path(__file__).resolve().parents[1]


def run_fresh(snippet: str, *args: str, env: dict[str, str] | None = None) -> str:
    """Run a Python snippet in a new interpreter and return its stdout.

    The interpreter starts as a benchmark child process does
    (``perfbench/child.py``): in the repository root, with
    ``PYTHONPATH=src`` and every ``PMZS_*`` variable removed.  ``args``
    become ``sys.argv[1:]``, and ``env`` adds variables.
    """
    done = subprocess.run(
        [sys.executable, "-c", snippet, *args], cwd=REPO, env=_child_env(env), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_cli_limited(*argv: str, memory_mb: int = 256) -> tuple[int, str, float]:
    """Run ``pmzs.cli`` with the given argv in a new interpreter whose address
    space is capped at ``memory_mb`` (``RLIMIT_AS``, set in the child before
    it starts; the limit covers that one process only), started as
    :func:`run_fresh` starts its interpreter.  Returns the exit code, stderr
    and the wall-clock seconds the child took, start-up included.
    """
    limit = memory_mb << 20

    def cap_memory() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pmzs.cli", *argv],
        cwd=REPO, env=_child_env(None), capture_output=True, text=True, preexec_fn=cap_memory,
    )
    return done.returncode, done.stderr, time.perf_counter() - start


def _child_env(env: dict[str, str] | None) -> dict[str, str]:
    child_env = {k: v for k, v in os.environ.items() if not k.startswith("PMZS_")}
    child_env["PYTHONPATH"] = str(REPO / "src")
    child_env.update(env or {})
    return child_env


def clear_process_memos() -> None:
    """Empty every per-process memo of atom lists, length DPs and span
    Davenport constants, so a count of the work a run does does not depend
    on which tests ran before it in the same process."""
    pmzs.atoms._folded_atom_vectors.cache_clear()
    pmzs.atoms._cyclic_atom_vectors.cache_clear()
    pmzs.atoms._span_davenport.cache_clear()
    pmzs.relations._length_dp.cache_clear()


def small_group_list(max_order: int) -> list[Group]:
    return [make_group(f) for order in range(2, max_order + 1) for f in abelian_group_types(order)]


def mixed_unfolded_grounds(max_order: int, per_group: int, seed: int):
    """Seeded (group, ground indices) pairs over every group of order <= max_order.

    Each ground set holds, where the group has them, a merged pair {g, -g}, a
    lone negative (the larger index of h and -h, without the smaller) and an
    element of order 2, padded with random nonzero elements to at most five.
    """
    rng = random.Random(seed)
    for group in small_group_list(max_order):
        neg = group._neg
        pairs = [i for i in range(1, group.order) if i < neg[i]]
        involutions = [i for i in range(1, group.order) if i == neg[i]]
        for _ in range(per_group):
            ground = set()
            if pairs:
                g = rng.choice(pairs)
                ground |= {g, neg[g]}
                lone = [neg[h] for h in pairs if h != g]
                if lone:
                    ground.add(rng.choice(lone))
            if involutions:
                ground.add(rng.choice(involutions))
            size = rng.randint(len(ground), max(len(ground), min(5, group.order - 1)))
            while len(ground) < size:
                ground.add(rng.randrange(1, group.order))
            yield group, tuple(sorted(ground))


def brute_automorphisms(group: Group) -> list[tuple[int, ...]]:
    """Every automorphism as a permutation of element indices, in product order
    over the images of the generators.

    Each tuple of images x_k with n_k * x_k = 0 defines the homomorphism
    sum c_k e_k -> sum c_k x_k, evaluated here coordinate by coordinate through
    the addition table; the bijections are kept.
    """
    factors = group.invariant_factors
    add = group._add_table()

    def times(c: int, x: int) -> int:
        y = 0
        for _ in range(c):
            y = add[y][x]
        return y

    coords = [group.element_at(i).coords for i in range(group.order)]
    killed = [[x for x in range(group.order) if times(n, x) == 0] for n in factors]
    out = []
    for images in product(*killed):
        multiples = [[times(c, x) for c in range(n)] for n, x in zip(factors, images)]
        perm = []
        for cs in coords:
            y = 0
            for c, mult in zip(cs, multiples):
                y = add[y][mult[c]]
            perm.append(y)
        if len(set(perm)) == group.order:
            out.append(tuple(perm))
    return out


class PerMapOrbits:
    """The sweep's canonical forms and orbit listing, one image per map.

    Each automorphism from the search gives every element an image bit (u
    and -u share the bit of the folded universe, 0 has the bit 0; p and -p
    give the same bits and count once), kept as one column of bits over the
    maps per element.  A map is injective on a folded subset, so an image
    mask is the sum of its members' bits, and the canonical form is the
    largest image over every map.  The listing walks the masks upwards,
    marks the orbit of each unmarked mask and keeps its largest image.
    """

    def __init__(self, orbits):
        group = orbits.group
        self.orbits = orbits
        bit_of = [0] * group.order
        for u, unit in zip(orbits.universe, orbits.units):
            bit_of[u] = bit_of[group._neg[u]] = unit
        bit_maps = dict.fromkeys(tuple(map(bit_of.__getitem__, perm)) for perm in automorphisms(group))
        self.columns = list(zip(*bit_maps))

    def images(self, mask: int):
        members = [u for u, unit in zip(self.orbits.universe, self.orbits.units) if mask & unit]
        return map(sum, zip(*map(self.columns.__getitem__, members)))

    def canonical(self, mask: int) -> int:
        return max(self.images(mask))

    def listing(self, canonical_of: dict[int, int] | None = None) -> list[int]:
        """Every orbit's largest image mask in table order; fills
        ``canonical_of`` with the canonical form of every mask when given."""
        seen = bytearray(1 << len(self.orbits.universe))
        reps = []
        for mask in range(1, len(seen)):
            if not seen[mask]:
                orbit = set(self.images(mask))
                top = max(orbit)
                for image in orbit:
                    seen[image] = 1
                if canonical_of is not None:
                    canonical_of.update(dict.fromkeys(orbit, top))
                reps.append(top)
        return sorted(reps, key=lambda mask: (mask.bit_count(), -mask))


def brute_shift_mask(group: Group, mask: int, gi: int) -> int:
    """Translate a bitmask of element indices bit by bit through the addition table."""
    row = group._add_table()[gi]
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << row[low.bit_length() - 1]
        mask ^= low
    return out


def signed_shift_mask(group: Group, mask: int, gi: int) -> int:
    """(T + g) | (T - g) for a bitmask T, one step of the signed-sum set DP
    that the earlier-atom rule runs: each side translates T by the group's
    block rotations, which :func:`brute_shift_mask` checks."""
    steps = group._shift_steps
    plus = minus = mask
    for lo, up, hi, down in steps[gi]:
        plus = (plus & lo) << up | (plus & hi) >> down
    for lo, up, hi, down in steps[group._neg[gi]]:
        minus = (minus & lo) << up | (minus & hi) >> down
    return plus | minus


def brute_subgroup_generated(group: Group, gens: list[int]) -> tuple[int, tuple[int, ...]]:
    """The subgroup spanned by the given element indices, as a bitmask, and its
    invariant factors.

    The span is a breadth-first search from 0 over the addition table.  The
    type is the abelian group of the same order whose multiset of element
    orders equals the subgroup's; finite abelian groups with the same order
    statistics are isomorphic.
    """
    add = group._add_table()
    seen = {0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for gi in gens:
                y = add[x][gi]
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    mask = sum(1 << i for i in seen)
    orders = sorted(group.element_at(i).order() for i in seen)
    for factors in abelian_group_types(len(seen)):
        candidate = make_group(factors)
        if sorted(x.order() for x in candidate.elements()) == orders:
            return mask, factors
    raise AssertionError(f"no abelian group of order {len(seen)} has the element orders {orders}")


def brute_minimal_zero_sums(group: Group, folded: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The minimal zero-sum sequences w over U = F u -F, one of each pair
    {w, -w}, counted by their image over F (the multiplicities of f and -f
    summed), for a folded set F of nonzero element indices.

    Every multiset over U of length at most |G| is summed through the
    addition table, and a zero sum is kept when no proper nonempty
    sub-multiset sums to 0.
    """
    add, neg = group._add_table(), group._neg
    slot = {}
    for j, f in enumerate(folded):
        slot[f] = slot[neg[f]] = j
    universe = sorted(slot)

    def total(terms) -> int:
        s = 0
        for x in terms:
            s = add[s][x]
        return s

    pairs: dict[tuple[int, ...], set] = {}
    for length in range(1, group.order + 1):
        for terms in combinations_with_replacement(universe, length):
            if total(terms):
                continue
            counts = sorted(Counter(terms).items())
            proper = (
                [x for x, c in zip(counts, taken) for x in [x[0]] * c]
                for taken in product(*(range(c + 1) for _, c in counts))
            )
            if any(0 < len(sub) < length and total(sub) == 0 for sub in proper):
                continue
            image = [0] * len(folded)
            for x in terms:
                image[slot[x]] += 1
            negated = tuple(sorted(neg[x] for x in terms))
            pairs.setdefault(tuple(image), set()).add(min(terms, negated))
    return {image: len(ws) for image, ws in pairs.items()}


def concat(*seqs: Sequence) -> Sequence:
    """The product of sequences over one group: their multiplicities added."""
    return Sequence.from_items(seqs[0].group, [item for seq in seqs for item in seq.items()])


def element_sum(group: Group, weighted) -> GroupElement:
    """The sum of the (weight, element) pairs, coordinate by coordinate."""
    total = [0] * group.rank
    for k, g in weighted:
        total = [t + k * c for t, c in zip(total, g.coords)]
    return group.element(*total)


def brute_signed_sums(seq: Sequence) -> set[tuple[int, ...]]:
    """All plus-minus weighted sums by explicit enumeration of sign patterns."""
    group = seq.group
    terms = [group.element_at(idx) for idx, mult in seq.entries for _ in range(mult)]
    return {element_sum(group, zip(signs, terms)).coords for signs in product((1, -1), repeat=len(terms))}


def brute_zero_sum_count(group: Group, entries: list[tuple[int, int]]) -> int:
    """The number of zero-sum signings of the sequence with the given
    (element index, multiplicity) entries, by trying every sign on every copy.

    A signing is, per distinct element g, the multiset of its signed copies,
    so sign patterns that give g the same multiset count once.  The sum of a
    choice of multisets is added coordinate by coordinate.
    """
    factors = group.invariant_factors
    per_element = []
    for idx, mult in entries:
        x = group.element_at(idx).coords
        signed = {1: x, -1: tuple(-c % n for c, n in zip(x, factors))}
        multisets = {tuple(sorted(signed[s] for s in signs)) for signs in product((1, -1), repeat=mult)}
        per_element.append([[sum(col) for col in zip(*terms)] for terms in multisets])
    count = 0
    for choice in product(*per_element):
        totals = [sum(col) for col in zip(*choice)] or [0] * len(factors)
        count += all(t % n == 0 for t, n in zip(totals, factors))
    return count


def brute_is_pm_zero_sum(seq: Sequence) -> bool:
    return (0,) * seq.group.rank in brute_signed_sums(seq)


def brute_is_atom(seq: Sequence) -> bool:
    """Irreducibility by enumerating every proper nonempty subsequence."""
    if len(seq) == 0 or not brute_is_pm_zero_sum(seq):
        return False
    if len(seq) == 1:
        return seq.support[0].is_zero
    entries = seq.entries
    ranges = [range(m + 1) for _, m in entries]
    for combo in product(*ranges):
        taken = sum(combo)
        if taken == 0 or taken == len(seq):
            continue
        part = Sequence(seq.group, tuple((idx, c) for (idx, _), c in zip(entries, combo) if c))
        rest = Sequence(seq.group, tuple((idx, m - c) for (idx, m), c in zip(entries, combo) if m > c))
        if brute_is_pm_zero_sum(part) and brute_is_pm_zero_sum(rest):
            return False
    return True


def _lengths_recursion(atom_vectors: tuple[tuple[int, ...], ...], memo: dict):
    def rec(residual: tuple[int, ...]) -> set[int]:
        if not any(residual):
            return {0}
        cached = memo.get(residual)
        if cached is not None:
            return cached
        out = set()
        for atom in atom_vectors:
            if all(a >= b for a, b in zip(residual, atom)):
                rest = tuple(a - b for a, b in zip(residual, atom))
                out.update(l + 1 for l in rec(rest))
        memo[residual] = out
        return out

    return rec


def brute_factorization_lengths(
    vec: tuple[int, ...], atom_vectors: tuple[tuple[int, ...], ...], memo: dict | None = None
) -> set[int]:
    """All factorization lengths of an exponent vector over the given atoms.

    Pass the same ``memo`` to queries over the same atoms to share residuals.
    """
    return set(_lengths_recursion(atom_vectors, {} if memo is None else memo)(tuple(vec)))


def brute_factorizations(vec: tuple[int, ...], atom_vectors: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """Every factorization of an exponent vector over the given atoms, each as
    the non-decreasing tuple of its atom indices, in sorted order: every
    choice of a multiplicity for each atom in turn, up to what the vector
    left by the earlier atoms allows, kept when nothing is left."""
    out = []

    def choose(k: int, residual: tuple[int, ...], chosen: tuple[int, ...]) -> None:
        if k == len(atom_vectors):
            if not any(residual):
                out.append(chosen)
            return
        while True:
            choose(k + 1, residual, chosen)
            if not all(a >= b for a, b in zip(residual, atom_vectors[k])):
                return
            residual = tuple(a - b for a, b in zip(residual, atom_vectors[k]))
            chosen += (k,)

    choose(0, tuple(vec), ())
    return sorted(out)


def gcd_of_length_differences_up_to_3(atom_vectors: tuple[tuple[int, ...], ...]) -> int | None:
    """gcd of all length differences over products of at most 3 atoms.

    None when no product of at most 3 atoms has two different factorization
    lengths.  The residual memo is shared across products; the recursion
    depends only on the residual vector, so sharing is sound.
    """
    from itertools import combinations_with_replacement

    n = len(atom_vectors)
    width = len(atom_vectors[0]) if atom_vectors else 0
    rec = _lengths_recursion(atom_vectors, {})
    g = 0
    for count in (2, 3):
        for combo in combinations_with_replacement(range(n), count):
            total = [0] * width
            for k in combo:
                for i in range(width):
                    total[i] += atom_vectors[k][i]
            lengths = sorted(rec(tuple(total)))
            for a, b in zip(lengths, lengths[1:]):
                g = math.gcd(g, b - a)
    return g if g else None


def _enumerate_atom_vectors(
    group: Group, ground_indices: tuple[int, ...], bound: int, caps: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Atoms among the exponent vectors v <= caps of length at most bound, by
    length and then by vector, by the earlier-atom rule.

    Taken in order of length, a zero sum v is an atom iff no atom a already
    kept, with a <= v, leaves a remainder v - a that is a zero sum.  The rule
    is exact.  If v = c * (v - c) with c a proper zero-sum divisor, then
    c = a * (c - a) for some atom a, and v - a = (c - a) * (v - c) is a
    shorter zero sum, so it is in the set.  Over a folded set the coordinate
    of g may be capped at min(bound, ord g).  Take a signing that makes an
    atom v a zero sum.  If it gives g both signs, then v - g^2 is a zero sum;
    if all copies of g have one sign and v_g >= ord g, then v - g^ord(g) is
    one.  Either way v is reducible unless v = g^2 or v = g^ord(g).  Every
    remainder v - a <= v stays within the caps, so the earlier-atom rule
    still finds it.

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


def atom_matrix(atom_set: AtomSet) -> list[list[int]]:
    """Exponent matrix of the folded atoms, with one row per element of the
    folded ground set and one column per atom."""
    return [list(row) for row in zip(*atom_set.folded)]


def integer_kernel_basis(matrix: list[list[int]]) -> list[list[int]]:
    """Lattice basis of {v integer : M v = 0}, by unimodular row reduction.

    Works on [M^T | I] with exact integer arithmetic (Python integers are
    arbitrary precision, so entry growth during elimination is harmless) and
    returns the right-hand blocks of the rows whose left half vanished.  Every
    returned vector is re-multiplied against M as a self-check.
    """
    rows = [list(r) for r in matrix]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise DomainError("kernel computation requires a rectangular matrix")
    if n == 0:
        return []
    work = [[rows[i][j] for i in range(m)] + [1 if t == j else 0 for t in range(n)] for j in range(n)]
    r = 0
    for c in range(m):
        while True:
            pivot = None
            for i in range(r, n):
                if work[i][c] and (pivot is None or abs(work[i][c]) < abs(work[pivot][c])):
                    pivot = i
            if pivot is None:
                break
            work[r], work[pivot] = work[pivot], work[r]
            done = True
            for i in range(r + 1, n):
                if work[i][c]:
                    q = work[i][c] // work[r][c]
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
                    if work[i][c]:
                        done = False
            if done:
                r += 1
                break
    basis = []
    for i in range(r, n):
        if any(work[i][c] for c in range(m)):
            raise AssertionError("row reduction left a nonzero entry outside the pivot block")
        basis.append(work[i][m:])
    for v in basis:
        for row in rows:
            if sum(a * b for a, b in zip(row, v)) != 0:
                raise AssertionError("kernel basis vector fails re-multiplication check")
    return basis


# The argparse parser that pmzs.cli built on every call before it read argv
# from its own tables: the reference for the argv grid of tests/test_cli.py.
# Its only reading that the CLI gave up on purpose is an abbreviated long
# flag (``--max-sup 3`` for ``--max-support 3``).


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _env_default(name: str, fallback):
    value = os.environ.get(f"PMZS_{name}")
    return value if value is not None else fallback


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _env_flag(parser: _Parser, name: str) -> bool:
    value = _env_default(name, "0")
    try:
        return bool(int(value))
    except ValueError:
        parser.error(f"PMZS_{name}: expected an integer, got {value!r}")


def _env_choice(parser: _Parser, name: str, choices: tuple[str, ...]) -> str:
    """The PMZS_<name> value, or the first choice; argparse checks choices only on the command line."""
    value = _env_default(name, choices[0])
    if value not in choices:
        parser.error(f"PMZS_{name}: expected one of {', '.join(choices)}, got {value!r}")
    return value


_ARGUMENTS = {
    "group": ("structural invariants of a group", [("group", {})]),
    "atoms": ("complete atom list over a subset", [
        ("group", {}),
        ("subset", {"help": "subset literal like '[(1),(3)]', or 'all' for G minus 0"}),
    ]),
    "min-delta": ("exact minimal distance over a subset", [("group", {}), ("subset", {})]),
    "lengths": ("set of factorization lengths of a sequence", [
        ("group", {}),
        ("sequence", {"help": "sequence literal like '[(1)^10]'"}),
    ]),
    "rho": ("k-th local elasticity", [
        ("group", {}),
        ("subset", {"nargs": "?", "default": "all"}),
        ("-k", {"type": int, "default": 2}),
    ]),
    "delta-star": ("sweep minimal distances over subsets", [("group", {})]),
    "davenport": ("Davenport constant of the group or of the monoid over a subset", [
        ("group", {}),
        ("subset", {"nargs": "?", "default": None}),
    ]),
    "verify": ("run the mechanical verification suite", [
        ("target", {"help": "a group literal, or 'all-small'"}),
        ("--out", {"default": None, "help": "also write the JSON report to this path"}),
    ]),
}


def _build_parser(command: str | None = None) -> _Parser:
    parser = _Parser(prog="pmzs", description="Invariants of plus-minus weighted zero-sum sequence monoids.")
    common = argparse.ArgumentParser(add_help=False)
    formats = ("table", "json", "csv")
    common.add_argument("--format", choices=formats, default=_env_choice(parser, "FORMAT", formats))
    common.add_argument("--cache-dir", default=_env_default("CACHE_DIR", None))
    # a string default goes through ``type`` too, so a PMZS_* value is checked like its flag
    common.add_argument("--jobs", type=_positive_int, default=_env_default("JOBS", "1"))
    common.add_argument("--max-atom-len", type=_positive_int, default=_env_default("MAX_ATOM_LEN", str(DEFAULT_LIMITS.max_atom_length)))
    common.add_argument("--max-order", type=_positive_int, default=_env_default("MAX_ORDER", str(DEFAULT_LIMITS.max_sweep_order)),
                        help="largest group order whose delta-star report lists every orbit")
    common.add_argument("--no-prune", action="store_true", default=_env_flag(parser, "NO_PRUNE"))
    common.add_argument("--rho-cap", type=_positive_int, default=_env_default("RHO_CAP", str(DEFAULT_LIMITS.rho_cap)))
    common.add_argument("--max-support", type=_positive_int, default=_env_default("MAX_SUPPORT", str(DEFAULT_LIMITS.max_support)))

    if command in _ARGUMENTS:
        names = (command,)
        sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(_ARGUMENTS) + "}")
    else:
        names = tuple(_ARGUMENTS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, arguments = _ARGUMENTS[name]
        p = sub.add_parser(name, parents=[common], help=help_text)
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
    return parser


def argparse_parse_args(argv: list[str]) -> argparse.Namespace:
    """What the argparse CLI made of ``argv``; help and usage errors raise SystemExit."""
    return _build_parser(argv[0] if argv else None).parse_args(argv)
