"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

All checks are exact integer comparisons.  Criterion 4 asserts the
classification of the groups of order <= 10 with max delta* = 1 or 2 that the
monoid satisfies: max 2 holds for C6 as well as for C2^3 and C2xC4 (witness
{e, 3e}).  C6's value is certified by the brute-force oracles in
``tests/helpers.py`` alone, without the library's DP, kernel or sweep.  C6 is
therefore a counterexample to the classification *as stated* in the library's
``small-max-2-classification`` check, which keeps reporting it, and criterion
4 asserts that it does.
"""

import json
import math
import random
import time
from itertools import combinations, combinations_with_replacement

from pmzs import (
    Sequence,
    atom_length_profile,
    davenport,
    davenport_monoid,
    delta_star,
    enumerate_atoms,
    make_group,
    min_delta,
    min_delta_of_atoms,
    parse_group,
    parse_subset,
    rho_k,
)
from pmzs.cli import main as cli_main
from pmzs.relations import Factorizer
from pmzs.suite import _small_max_classification, small_groups
from helpers import (
    atom_matrix,
    brute_factorization_lengths,
    brute_is_atom,
    gcd_of_length_differences_up_to_3,
    integer_kernel_basis,
)


def _report(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {criterion}: {status}" + (f"  ({detail})" if detail else ""))
    return ok


def test_criterion_1_single_generator_law():
    start = time.perf_counter()
    failures = []
    for group in small_groups(16):
        for i in range(1, group.order):
            g = group.element_at(i)
            d = g.order()
            atoms = enumerate_atoms(group, [g])
            lengths = sorted(atoms.lengths())
            md = min_delta_of_atoms(atoms)
            if d % 2 == 1:
                ok = lengths == [2, d] and md == d - 2
            else:
                ok = lengths == [2] and md is None
            if not ok:
                failures.append((str(group), str(g), lengths, md))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    assert _report("1 single-generator law", ok, f"{elapsed:.2f}s"), failures
    assert elapsed < 1.0


def test_criterion_2_min_delta_goldens():
    start = time.perf_counter()
    g5 = make_group([5])
    ok = min_delta(g5, [g5.element(1)]) == 3

    g8 = make_group([8])
    ok &= min_delta(g8, parse_subset(g8, "[(1),(3)]")) == 2

    g16 = make_group([2, 2, 2, 2])
    coset = [g16.element(1, a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    atoms = enumerate_atoms(g16, coset)
    ok &= min_delta_of_atoms(atoms) == 1
    ok &= atom_length_profile(atoms).gcd_lengths_minus_2 == 2

    g17 = make_group([17])
    ok &= min_delta(g17, parse_subset(g17, "[(1),(4)]")) == 3

    elapsed = time.perf_counter() - start
    assert _report("2 min-delta golden values", ok and elapsed < 30.0, f"{elapsed:.2f}s")


def test_criterion_3_delta_star_tables():
    start = time.perf_counter()
    expected = {
        "C3": (1,),
        "C4": (1,),
        "C2xC2": (1,),
        "C5": (1, 3),
        "C7": (1, 5),
        "C9": (1, 7),
        "C2xC2xC2": (1, 2),
    }
    mismatches = []
    reports = {}
    for group in small_groups(9):
        reports[str(group)] = delta_star(group)
    for spec, values in expected.items():
        if reports[spec].delta_star != values:
            mismatches.append((spec, reports[spec].delta_star, values))
    if reports["C2xC4"].max_delta != 2:
        mismatches.append(("C2xC4 max", reports["C2xC4"].max_delta, 2))
    c8_start = time.perf_counter()
    c8 = delta_star(parse_group("C8"))
    c8_elapsed = time.perf_counter() - c8_start
    if not (c8.max_delta == 3 and {1, 2, 3} <= set(c8.delta_star)):
        mismatches.append(("C8", c8.delta_star, "max 3, contains {1,2,3}"))
    elapsed = time.perf_counter() - start
    ok = not mismatches and all(reports[s].complete for s in reports) and elapsed < 600 and c8_elapsed < 120
    assert _report("3 delta-star tables", ok, f"sweeps<=9 {elapsed:.2f}s, C8 {c8_elapsed:.2f}s"), mismatches


def test_criterion_4_theorem_suites():
    from pmzs import check_elementary_p_gcd, check_odd_order_sandwich, check_parity

    failures = []
    for group in small_groups(10):
        report = delta_star(group)
        sandwich = check_odd_order_sandwich(group, report)
        parity = check_parity(group, report)
        if sandwich.status == "fail":
            failures.append((str(group), "odd-order-sandwich", sandwich.details))
        if parity.status == "fail":
            failures.append((str(group), "parity", parity.details))
    elp = check_elementary_p_gcd(parse_group("C3xC3"))
    if elp.status != "pass":
        failures.append(("C3xC3", "elementary-p-gcd", elp.details))
    assert _report("4 theorem suites (sandwich, parity, elementary-p)", not failures), failures


def test_criterion_4_small_max_classification():
    reports = {str(g): delta_star(g) for g in small_groups(10)}
    maxima = {s: rep.max_delta for s, rep in reports.items()}
    max1_expected = {s for s in maxima if parse_group(s).exponent == 3} | {"C2xC2", "C4"}
    max1_got = {s for s, m in maxima.items() if m == 1}
    ok1 = max1_got == max1_expected

    # C6 belongs here by test_criterion_4_c6_oracle_certificate, which shows
    # from the monoid definitions alone that max delta*(C6) = 2 (witness
    # {e, 3e}: atoms e^2, (3e)^2, e^3(3e), L((e^3(3e))^2) = {2, 4}).
    max2_expected = {"C2xC2xC2", "C2xC4", "C6"}
    max2_got = {s for s, m in maxima.items() if m == 2}
    ok2 = max2_got == max2_expected

    # The library's check states the classification without C6; it must keep
    # reporting C6, and only C6, as its counterexample.
    checks = {c.check_id: c for c in _small_max_classification(reports)}
    stated = checks["small-max-2-classification"]
    stated_expected = set(stated.details["expected"])
    stated_computed = set(stated.details["computed"])
    ok3 = (
        checks["small-max-1-classification"].status == "pass"
        and stated.status == "fail"
        and stated_computed - stated_expected == {"C6"}
        and stated_expected <= stated_computed
    )

    _report("4 small-max classification", ok1 and ok2 and ok3,
            f"max=1: {sorted(max1_got)}; max=2: {sorted(max2_got)}")
    assert ok1, (max1_got, max1_expected)
    assert ok2, (max2_got, max2_expected)
    assert ok3, (stated.status, sorted(stated_expected), sorted(stated_computed))


def test_criterion_4_c6_oracle_certificate():
    """max delta*(C6) = 2, from the brute-force oracles in helpers.py alone.

    Replacing a term by its negative keeps every set of signed sums, and so
    does merging g with -g, so every subset of C6 \\ {0} has the distances of a
    subset of {e, 2e, 3e}.  A plus-minus atom of length n, with each term
    weighted by the sign that makes it sum to zero, is an ordinary zero-sum
    sequence; if n > D(C6) = 6 that sequence splits into two ordinary
    zero-sums, which split the atom, so atoms of length <= 6 are all the
    atoms.  Being an atom depends only on the sequence, so the atoms over a
    subset are the atoms over {e, 2e, 3e} supported in it.
    """
    start = time.perf_counter()
    c6 = make_group([6])
    folded = (c6.element(1), c6.element(2), c6.element(3))
    atoms = []  # exponent vectors over (e, 2e, 3e)
    for length in range(1, 7):
        for combo in combinations_with_replacement(range(3), length):
            if brute_is_atom(Sequence.of(c6, *(folded[k] for k in combo))):
                atoms.append(tuple(combo.count(k) for k in range(3)))
    longest = max(sum(v) for v in atoms)

    pair = ((2, 0), (0, 2), (3, 1))  # e^2, (3e)^2, e^3(3e) over (e, 3e)
    pair_atoms = {(v[0], v[2]) for v in atoms if v[1] == 0}
    pair_ok = pair_atoms == set(pair)
    # (e^3(3e))^2 = (e^2)^3 (3e)^2: lengths 2 and 4.
    square_lengths = brute_factorization_lengths((6, 2), pair)
    # The atom columns have rank 2, so the relations among the three atoms
    # form a rank-1 lattice; a primitive relation spans it, and every length
    # difference is a multiple of its coordinate sum 3 + 1 - 2 = 2.
    relation = (3, 1, -2)
    relation_ok = (
        all(sum(c * v[i] for c, v in zip(relation, pair)) == 0 for i in range(2))
        and math.gcd(*relation) == 1
        and pair[0][0] * pair[1][1] - pair[0][1] * pair[1][0] != 0
        and sum(relation) == 2
    )

    # min delta of a subset divides every length difference, hence the oracle
    # gcd, so a gcd of 1 or 2 bounds it by 2.  Subsets are named by multiples of e.
    gcds = {}
    for size in (1, 2, 3):
        for subset in combinations(range(3), size):
            vectors = tuple(v for v in atoms if all(v[k] == 0 for k in range(3) if k not in subset))
            if len(vectors) > 1:
                gcds[tuple(k + 1 for k in subset)] = gcd_of_length_differences_up_to_3(vectors)
    gcd_ok = set(gcds.values()) <= {1, 2} and {s for s, g in gcds.items() if g == 2} == {(1, 3)}

    elapsed = time.perf_counter() - start
    ok = longest == 4 and pair_ok and square_lengths == {2, 4} and relation_ok and gcd_ok
    _report("4 C6 oracle certificate", ok, f"{len(atoms)} atoms, gcds {sorted(gcds.items())}, {elapsed:.2f}s")
    assert longest == 4, atoms
    assert pair_ok, sorted(pair_atoms)
    assert square_lengths == {2, 4}, square_lengths
    assert relation_ok
    assert gcd_ok, gcds


def test_criterion_5_davenport_cross_checks():
    failures = []
    for spec in ("C3", "C5", "C7", "C9", "C3xC3"):
        group = parse_group(spec)
        nonzero = [group.element_at(i) for i in range(1, group.order)]
        d_monoid = davenport_monoid(group, nonzero)
        if d_monoid != davenport(group):
            failures.append((spec, d_monoid, davenport(group)))
    for m in (2, 3, 4):
        group = make_group([2 * m])
        nonzero = [group.element_at(i) for i in range(1, group.order)]
        d_monoid = davenport_monoid(group, nonzero)
        if d_monoid != m + 1:
            failures.append((str(group), d_monoid, m + 1))
    for group in small_groups(8):
        nonzero = [group.element_at(i) for i in range(1, group.order)]
        r2 = rho_k(group, nonzero, 2)
        d_monoid = davenport_monoid(group, nonzero)
        if r2 != d_monoid:
            failures.append((str(group), "rho2", r2, d_monoid))
    assert _report("5 davenport cross-checks", not failures), failures


def test_criterion_6_kernel_oracle_equivalence():
    rng = random.Random(20260809)
    instances = 0
    failures = []
    for group in small_groups(9):
        nonzero = list(range(1, group.order))
        if len(nonzero) >= 4:
            sizes = [1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4]
        else:
            sizes = [1, 2] * 9
        for size in sizes:
            size = min(size, len(nonzero))
            subset_idx = sorted(rng.sample(nonzero, size))
            subset = [group.element_at(i) for i in subset_idx]
            atoms = enumerate_atoms(group, subset)
            kernel_value = min_delta_of_atoms(atoms)
            oracle_value = gcd_of_length_differences_up_to_3(atoms.vectors)
            # the library reads an echelon form; the kernel basis is the lattice oracle
            basis_gcd = math.gcd(*(sum(v) for v in integer_kernel_basis(atom_matrix(atoms)))) if atoms.folded else 0
            instances += 1
            if not kernel_value == oracle_value == (basis_gcd or None):
                failures.append((str(group), subset_idx, kernel_value, oracle_value, basis_gcd))
            if kernel_value is not None:
                g = atom_length_profile(atoms).gcd_lengths_minus_2
                if g % kernel_value or (2 * kernel_value) % g:
                    failures.append((str(group), subset_idx, "sandwich", kernel_value, g))
    ok = not failures and instances >= 200
    assert _report("6 kernel/oracle equivalence", ok, f"{instances} instances"), failures[:5]
    assert instances >= 200


def test_criterion_7_square_length_sets():
    g36 = make_group([3, 6])
    subset = [g36.element(1, 1), g36.element(0, 1)]
    atoms36 = enumerate_atoms(g36, subset)
    u = Sequence.from_items(g36, [(g36.element(1, 1), 3), (g36.element(0, 1), 3)])
    ok = Factorizer(atoms36).length_set(u.power(2)) == (2, 6)

    checked = 0
    for group in small_groups(8):
        nonzero = [group.element_at(i) for i in range(1, group.order)]
        atoms = enumerate_atoms(group, nonzero)
        fz = Factorizer(atoms)
        for k in range(len(atoms)):
            atom_seq = atoms.sequence(k)
            lengths = set(fz.length_set(atom_seq.power(2)))
            checked += 1
            if not {2, len(atom_seq)} <= lengths:
                ok = False
    for spec, literal in [("C5", "[(1)]"), ("C8", "[(1),(3)]"), ("C17", "[(1),(4)]")]:
        group = parse_group(spec)
        atoms = enumerate_atoms(group, parse_subset(group, literal))
        fz = Factorizer(atoms)
        for k in range(len(atoms)):
            atom_seq = atoms.sequence(k)
            checked += 1
            if not {2, len(atom_seq)} <= set(fz.length_set(atom_seq.power(2))):
                ok = False
    assert _report("7 square length sets", ok, f"{checked} atoms checked")


def test_criterion_8_verify_determinism(capsys):
    code1 = cli_main(["verify", "all-small", "--format", "json", "--jobs", "1"])
    out1 = capsys.readouterr().out
    code8 = cli_main(["verify", "all-small", "--format", "json", "--jobs", "8"])
    out8 = capsys.readouterr().out
    ok = out1 == out8 and code1 == code8
    json.loads(out1)  # well-formed artifact
    _report("8 verify determinism across job counts", ok)
    assert ok
