"""The verify suite: the theorem checks, the characterization records, and
the checks against the paths they replaced."""

from collections import Counter

from pmzs import char_compare, char_invariants, check_elementary_p_gcd, check_odd_order_sandwich, check_parity
from pmzs import min_delta, parse_group, suite
from pmzs.delta_star import DeltaStarReport, delta_star
from pmzs.limits import DEFAULT_LIMITS
from pmzs.relations import Factorizer
from pmzs.suite import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    _atom_square_lengths,
    _small_max_classification,
    _square_length_instances,
    run_suite,
    small_groups,
)


def _lifted_square_failures():
    """The square-length check over the lifted atoms, one length query per
    lifted atom through its Sequence, as the check ran before it folded."""
    failures = []
    for name, atoms in _square_length_instances(DEFAULT_LIMITS, None):
        fz = Factorizer(atoms)
        for k in range(len(atoms)):
            atom_seq = atoms.sequence(k)
            lengths = set(fz.length_set(atom_seq.power(2)))
            if not {2, len(atom_seq)} <= lengths:
                failures.append({"group": name, "atom": str(atom_seq), "lengths": sorted(lengths)})
    return failures


def test_square_check_passes():
    report = _atom_square_lengths(DEFAULT_LIMITS, None)
    assert report.status == PASS and report.details == {"failures": []}
    assert _lifted_square_failures() == []


def test_folded_square_check_reports_the_lifted_failures(monkeypatch):
    real = Factorizer._folded_mask

    def faulty(self, folded):
        # the DP loses the length 2 of every element of length 6 or 12
        lengths = real(self, folded)
        return lengths & ~0b100 if sum(folded) % 6 == 0 else lengths

    monkeypatch.setattr(Factorizer, "_folded_mask", faulty)
    report = _atom_square_lengths(DEFAULT_LIMITS, None)
    expected = _lifted_square_failures()
    assert report.status == FAIL and report.details["failures"] == expected
    # every lift of the folded atom e^3 of C3 is listed, in atom order
    assert [e["atom"] for e in expected if e["group"] == "C3"] == ["[(2)^3]", "[(1), (2)^2]", "[(1)^2, (2)]", "[(1)^3]"]


def test_classification_reads_complete_sweeps_only():
    # a partial sweep leaves both sets: C6 the computed max-2 set, C2xC4 the
    # expected one, C3 the expected max-1 set
    reports = {str(g): delta_star(g) for g in small_groups(10)}
    for name in ("C6", "C2xC4", "C3"):
        r = reports[name]
        reports[name] = DeltaStarReport(
            r.group, False, r.table, r.delta_star, r.max_delta, r.witnesses, r.skipped, r.evaluated_only
        )
    checks = {c.check_id: c for c in _small_max_classification(reports)}
    max1, max2 = checks["small-max-1-classification"], checks["small-max-2-classification"]
    assert max2.status == PASS and max2.details == {"expected": ["C2xC2xC2"], "computed": ["C2xC2xC2"]}
    assert max1.status == PASS and "C3" not in max1.details["expected"] + max1.details["computed"]


def test_check_odd_order_sandwich():
    assert check_odd_order_sandwich(parse_group("C5")).status == PASS
    assert check_odd_order_sandwich(parse_group("C9")).status == PASS
    assert check_odd_order_sandwich(parse_group("C3xC3")).status == PASS
    assert check_odd_order_sandwich(parse_group("C8")).status == NOT_APPLICABLE
    report = check_odd_order_sandwich(parse_group("C5"))
    assert report.details["lower"] == [3] and report.details["upper"] == [1, 3]


def test_check_parity():
    assert check_parity(parse_group("C8")).status == PASS
    assert check_parity(parse_group("C7")).status == PASS
    assert check_parity(parse_group("C6")).status == PASS
    assert check_parity(parse_group("C3xC6")).status == PASS  # order 18, complete above the sweep cap
    assert check_parity(parse_group("C21")).status == NOT_APPLICABLE  # D(C21) over the atom length cap
    assert check_parity(parse_group("C4")).status == NOT_APPLICABLE
    assert check_parity(parse_group("C10")).status == PASS


def test_check_elementary_p():
    assert check_elementary_p_gcd(parse_group("C3xC3")).status == PASS
    assert check_elementary_p_gcd(parse_group("C5")).status == PASS
    assert check_elementary_p_gcd(parse_group("C9")).status == NOT_APPLICABLE
    assert check_elementary_p_gcd(parse_group("C2xC2")).status == NOT_APPLICABLE


def test_parity_via_even_order_construction_c3xc6():
    # order 18 is over the sweep cap, but the order-6 element contributes the
    # even distance m - 1 = 2 through the subset {3e2, e2}
    g = parse_group("C3xC6")
    assert min_delta(g, [g.element(0, 3), g.element(0, 1)]) == 2


def test_char_invariants_and_compare():
    c9 = char_invariants(parse_group("C9"))
    c33 = char_invariants(parse_group("C3xC3"))
    cmp_reports = char_compare(c9, c33)
    assert "exponent-via-max-delta-star" in cmp_reports.distinguished_by
    assert "monoid-davenport-via-rho2" in cmp_reports.distinguished_by
    assert c9.to_json_dict() == {
        "group": "C9", "order": 9, "exponent": 9, "davenport_group": 9, "davenport_monoid": 9,
        "delta_star": [1, 7], "max_delta_star": 7, "has_even_delta": False, "complete": True,
    }
    assert c33.to_json_dict() == {
        "group": "C3xC3", "order": 9, "exponent": 3, "davenport_group": 5, "davenport_monoid": 5,
        "delta_star": [1], "max_delta_star": 1, "has_even_delta": False, "complete": True,
    }
    assert cmp_reports.to_json_dict() == {
        "first": "C9",
        "second": "C3xC3",
        "distinguished_by": ["exponent-via-max-delta-star", "monoid-davenport-via-rho2"],
        "indistinguishable": False,
        "note": "full distance sets are only comparable above half their maximum; "
        "values below that threshold are informational",
    }

    c5 = char_invariants(parse_group("C5"))
    c7 = char_invariants(parse_group("C7"))
    assert "exponent-via-max-delta-star" in char_compare(c5, c7).distinguished_by

    c3 = char_invariants(parse_group("C3"))
    c22 = char_invariants(parse_group("C2xC2"))
    verdict = char_compare(c3, c22)
    assert verdict.indistinguishable

    c8 = char_invariants(parse_group("C8"))
    assert "delta-star-parity" in char_compare(c8, c7).distinguished_by
    # even order: the two Davenport constants differ, so the dict tells them apart
    assert c8.to_json_dict() == {
        "group": "C8", "order": 8, "exponent": 8, "davenport_group": 8, "davenport_monoid": 5,
        "delta_star": [1, 2, 3], "max_delta_star": 3, "has_even_delta": True, "complete": True,
    }


def test_suite_sweeps_each_group_once(monkeypatch):
    # the elementary-p check reads the sweep of C_p that the suite already
    # holds, and a sweep of C_p that it does not hold stays out of the report
    swept = Counter()

    def counted(group, **kwargs):
        swept[str(group)] += 1
        return delta_star(group, **kwargs)

    monkeypatch.setattr(suite, "delta_star", counted)
    result = run_suite("all-small")
    assert swept == Counter({str(g): 1 for g in small_groups(10)})
    assert sorted(result.reports) == sorted(str(g) for g in small_groups(10))
    swept.clear()
    result = run_suite("C3xC3")
    assert swept == Counter({"C3xC3": 1, "C3": 1}) and list(result.reports) == ["C3xC3"]
    assert {c.check_id: c.status for c in result.checks}["elementary-p-gcd"] == PASS
