"""The verify suite's checks against the paths they replaced."""

from pmzs.delta_star import DeltaStarReport, delta_star
from pmzs.limits import DEFAULT_LIMITS
from pmzs.relations import Factorizer
from pmzs.suite import FAIL, PASS, _atom_square_lengths, _small_max_classification, _square_length_instances, small_groups


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
