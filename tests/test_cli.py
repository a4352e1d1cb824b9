"""CLI surface: commands, formats, exit codes, env overrides, determinism."""

import json
import os
import random
import time

import pytest

import pmzs.cli
from pmzs import DEFAULT_LIMITS, Group, ResourceLimitError, min_delta
from pmzs.cli import EXIT_DOMAIN, EXIT_OK, EXIT_RESOURCE, EXIT_VERIFY, _json_text, _limits_from, _parse_args, main
from helpers import argparse_parse_args, run_cli_limited, run_fresh


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_command(capsys):
    code, out, _ = run_cli(capsys, "group", "C5")
    assert code == EXIT_OK
    assert "exponent   5" in out and "D          5" in out


def test_group_command_json(capsys):
    code, out, _ = run_cli(capsys, "group", "C2xC2xC2", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["davenport"] == 4 and data["m_ranks"] == {"2": 3}


def test_group_usage_error(capsys):
    code, _, err = run_cli(capsys, "group", "C0")
    assert code == EXIT_DOMAIN
    assert "error" in err


def test_atoms_command(capsys):
    code, out, _ = run_cli(capsys, "atoms", "C8", "[(1),(3)]")
    assert code == EXIT_OK
    assert "4 atoms" in out


def test_min_delta_command(capsys):
    code, out, _ = run_cli(capsys, "min-delta", "C8", "[(1),(3)]")
    assert code == EXIT_OK
    assert "min delta = 2" in out
    code, out, _ = run_cli(capsys, "min-delta", "C2", "all")
    assert code == EXIT_OK
    assert "empty distance set" in out


def test_lengths_command(capsys):
    code, out, _ = run_cli(capsys, "lengths", "C5", "[(1)^10]", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["lengths"] == [2, 5] and data["delta"] == [3]


def test_rho_command(capsys):
    code, out, _ = run_cli(capsys, "rho", "C5", "-k", "2")
    assert code == EXIT_OK
    assert "rho_2 = 5" in out


def test_rho_resource_exit(capsys):
    code, _, err = run_cli(capsys, "rho", "C5", "-k", "7")
    assert code == EXIT_RESOURCE
    assert "resource" in err


def test_delta_star_command_formats(capsys):
    code, out, _ = run_cli(capsys, "delta-star", "C7")
    assert code == EXIT_OK and "delta*(C7) = {1, 5}" in out
    code, out, _ = run_cli(capsys, "delta-star", "C7", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "subset,min_delta"
    assert len(lines) == 4
    code, out, _ = run_cli(capsys, "delta-star", "C7", "--format", "json")
    data = json.loads(out)
    assert data["delta_star"] == [1, 5] and data["complete"] is True


C2XC4_TABLE = (
    'delta*(C2xC4) = {1, 2}   max = 2\n'
    '  [(0,1)]   min delta = None\n'
    '  [(0,2)]   min delta = None\n'
    '  [(1,0)]   min delta = None\n'
    '  [(0,1), (0,2)]   min delta = 1\n'
    '  [(0,1), (1,0)]   min delta = None\n'
    '  [(0,1), (1,1)]   min delta = None\n'
    '  [(0,2), (1,0)]   min delta = None\n'
    '  [(1,0), (1,2)]   min delta = None\n'
    '  [(0,1), (0,2), (1,0)]   min delta = 1\n'
    '  [(0,1), (0,2), (1,1)]   min delta = 1\n'
    '  [(0,1), (1,0), (1,1)]   min delta = 1\n'
    '  [(0,1), (1,0), (1,2)]   min delta = 2\n'
    '  [(0,2), (1,0), (1,2)]   min delta = 1\n'
    '  [(0,1), (0,2), (1,0), (1,1)]   min delta = 1\n'
    '  [(0,1), (0,2), (1,0), (1,2)]   min delta = 1\n'
    '  [(0,1), (1,0), (1,1), (1,2)]   min delta = 1\n'
    '  [(0,1), (0,2), (1,0), (1,1), (1,2)]   min delta = 1\n'
)
C2XC4_CSV = (
    'subset,min_delta\r\n'
    '"[(0,1)]",\r\n'
    '"[(0,2)]",\r\n'
    '"[(1,0)]",\r\n'
    '"[(0,1), (0,2)]",1\r\n'
    '"[(0,1), (1,0)]",\r\n'
    '"[(0,1), (1,1)]",\r\n'
    '"[(0,2), (1,0)]",\r\n'
    '"[(1,0), (1,2)]",\r\n'
    '"[(0,1), (0,2), (1,0)]",1\r\n'
    '"[(0,1), (0,2), (1,1)]",1\r\n'
    '"[(0,1), (1,0), (1,1)]",1\r\n'
    '"[(0,1), (1,0), (1,2)]",2\r\n'
    '"[(0,2), (1,0), (1,2)]",1\r\n'
    '"[(0,1), (0,2), (1,0), (1,1)]",1\r\n'
    '"[(0,1), (0,2), (1,0), (1,2)]",1\r\n'
    '"[(0,1), (1,0), (1,1), (1,2)]",1\r\n'
    '"[(0,1), (0,2), (1,0), (1,1), (1,2)]",1\r\n'
)
C2XC4_JSON = (
    '{"complete":true,"delta_star":[1,2],"group":"C2xC4","max":2,"skipped":[],"table":['
    '{"min_delta":null,"subset":[[0,1]]},'
    '{"min_delta":null,"subset":[[0,2]]},'
    '{"min_delta":null,"subset":[[1,0]]},'
    '{"min_delta":1,"subset":[[0,1],[0,2]]},'
    '{"min_delta":null,"subset":[[0,1],[1,0]]},'
    '{"min_delta":null,"subset":[[0,1],[1,1]]},'
    '{"min_delta":null,"subset":[[0,2],[1,0]]},'
    '{"min_delta":null,"subset":[[1,0],[1,2]]},'
    '{"min_delta":1,"subset":[[0,1],[0,2],[1,0]]},'
    '{"min_delta":1,"subset":[[0,1],[0,2],[1,1]]},'
    '{"min_delta":1,"subset":[[0,1],[1,0],[1,1]]},'
    '{"min_delta":2,"subset":[[0,1],[1,0],[1,2]]},'
    '{"min_delta":1,"subset":[[0,2],[1,0],[1,2]]},'
    '{"min_delta":1,"subset":[[0,1],[0,2],[1,0],[1,1]]},'
    '{"min_delta":1,"subset":[[0,1],[0,2],[1,0],[1,2]]},'
    '{"min_delta":1,"subset":[[0,1],[1,0],[1,1],[1,2]]},'
    '{"min_delta":1,"subset":[[0,1],[0,2],[1,0],[1,1],[1,2]]}],'
    '"witnesses":{"1":[[0,1],[0,2]],"2":[[0,1],[1,0],[1,2]]}}'
)


def test_delta_star_prints_only_the_chosen_format(capsys):
    # each format's output equals the bytes it had when every format's lines
    # and rows were built on every call
    for fmt, expected in (("table", C2XC4_TABLE), ("csv", C2XC4_CSV)):
        code, out, _ = run_cli(capsys, "delta-star", "C2xC4", "--format", fmt)
        assert code == EXIT_OK and out == expected
    code, out, _ = run_cli(capsys, "delta-star", "C2xC4", "--format", "json")
    assert code == EXIT_OK and out == json.dumps(json.loads(C2XC4_JSON), sort_keys=True, indent=2) + "\n"


def test_delta_star_above_cap_reports_evaluated_rows(capsys):
    code, out, _ = run_cli(capsys, "delta-star", "C12", "--format", "json")
    data = json.loads(out)
    assert code == EXIT_OK and data["complete"] is True
    assert data["delta_star"] == [1, 2, 3, 4, 5] and data["table_scope"] == "evaluated"
    code, _, err = run_cli(capsys, "delta-star", "C12", "--no-prune")
    assert code == EXIT_RESOURCE and "unpruned sweep" in err


@pytest.mark.parametrize("group", ["C2xC2xC2xC2xC2", "C1000000000000"])
def test_delta_star_refuses_automorphism_search_at_once(capsys, group):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "delta-star", group)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_RESOURCE and out == "" and "automorphism search" in err


def test_min_delta_refuses_a_long_atom_bound_at_once(capsys, monkeypatch):
    # the span of the ground set is typed from its relation lattice, so
    # refusing C3000 builds no table with |G|^2 entries
    monkeypatch.setattr(Group, "_add_table", lambda self: pytest.fail(f"built the addition table of {self}"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "min-delta", "C3000", "[(1)]")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_RESOURCE and out == "" and "exceeds the cap" in err
    g = Group((17,))  # a fresh instance, so its tables are the ones this call builds
    min_delta(g, [g.element(2), g.element(5), g.element(7)])
    assert "_shift_steps" in vars(g)


def test_refusal_builds_shift_steps_only_for_its_generator():
    # each element's steps hold two |G|-bit masks, so building them for every
    # element would take |G|^2 / 4 bytes before the refusal; the span is typed
    # from the relation lattice of its generator's coordinates, so the
    # refusal builds no shift step and no element object at all
    from pmzs.atoms import _span_davenport

    _span_davenport.cache_clear()  # C3000 refused above: a memo hit would build nothing
    g = Group((3000,))
    with pytest.raises(ResourceLimitError, match="exceeds the cap"):
        min_delta(g, [g.element(1)])
    assert not vars(g).get("_shift_steps") and not vars(g).get("_elements")
    assert set(vars(g)["_neg"]) == {1}  # the fold read the negative of its one element


@pytest.mark.parametrize("argv, message", [
    (("min-delta", "C1000000000", "[(1)]"), "atom length bound 1000000000 exceeds the cap 20 for C1000000000"),
    (("min-delta", "C2xC500000000", "[(1,1)]"), "atom length bound 500000000 exceeds the cap 20 for C2xC500000000"),
    (("atoms", "C1000000000", "[(1)]"), "atom length bound 1000000000 exceeds the cap 20 for C1000000000"),
    (("lengths", "C1000000000", "[(1)^1000000000]"), "atom length bound 1000000000 exceeds the cap 20"),
    (("rho", "C1000000000"), "atom enumeration capped at 8 support elements, got 500000000"),
    (("atoms", "C1000000000", "all"), "atom enumeration capped at 8 support elements, got 500000000"),
    # one support element with D(<S>) = 2 passes every cap, but the walk
    # would build 30 pairs of 2^30-bit rotation masks
    (("atoms", "x".join(["C2"] * 30), "[(" + ",".join(["1"] * 30) + ")]"),
     "zero-sum walk capped at 67108864 bytes of rotation masks; 30 steps over C2xC2"),
    # G minus 0 passes the support and D caps; its walk's masks are refused
    # before it is listed
    (("atoms", "x".join(["C2"] * 25), "all", "--max-support", "100000000", "--max-atom-len", "100"),
     "zero-sum walk capped at 67108864 bytes of rotation masks; 25 steps over C2xC2"),
    (("davenport", "x".join(["C2"] * 25), "all", "--max-support", "100000000", "--max-atom-len", "100"),
     "zero-sum walk capped at 67108864 bytes of rotation masks; 25 steps over C2xC2"),
    (("atoms", "C20000000", "all", "--max-support", "100000000", "--max-atom-len", "100000000"),
     "zero-sum walk capped at 67108864 bytes of rotation masks; 19999999 steps over C20000000"),
    # D(C4) = 4 caps a query at length 32, read off the multiplicities before
    # any signed sum is taken; 2^63 is past what len() can return
    (("lengths", "C4", "[(1)^4611686018427387904]"),
     "factorization query capped at length 32, got 4611686018427387904"),
    (("lengths", "C4", "[(1)^9223372036854775808]"),
     "factorization query capped at length 32, got 9223372036854775808"),
    # listing every orbit of C64 would mark its 2^32 folded subsets in a
    # 4 GiB bytearray; the bound on the folded universe refuses first
    (("delta-star", "C64", "--max-order", "64"),
     "orbit listing capped at 26 folded elements; C64 folds onto 32"),
])
def test_refusals_over_huge_groups_build_nothing_of_size_g(argv, message):
    # each cap needs only the fold size, D(<S>) or the walk's steps, so a
    # child whose address space is capped at 256 MB refuses at once, where
    # listing G, its folded subsets or any table of |G| entries would end
    # in a MemoryError traceback
    code, err, seconds = run_cli_limited(*argv, memory_mb=256)
    assert code == EXIT_RESOURCE and message in err and "Traceback" not in err, err
    assert seconds < 1.0


def test_walk_over_a_huge_group_builds_only_its_own_masks():
    # the walk over {10^7} builds one pair of 2 * 10^7-bit masks and no
    # table of |G| entries
    code, err, _ = run_cli_limited("atoms", "C20000000", "[(10000000)]", memory_mb=256)
    assert code == EXIT_OK and err == "", err


def test_walk_builds_a_coordinate_of_large_blocks_in_near_linear_time():
    # the block starts of the second coordinate of C2^25 lie 2^24 bits
    # apart; the pattern is built by doubling shifts, where a long division
    # of the 2^25-bit mask ran for minutes
    argv = ("atoms", "x".join(["C2"] * 25), "[(" + ",".join(["0", "1"] + ["0"] * 23) + ")]")
    code, err, seconds = run_cli_limited(*argv, memory_mb=256)
    assert code == EXIT_OK and err == "", err
    assert seconds < 2.0


@pytest.mark.parametrize("power, code, err", [
    (40, EXIT_OK, ""),
    (41, EXIT_RESOURCE, "resource limit: factorization query capped at length 40, got 41\n"),
])
def test_factorization_query_is_capped_at_eight_times_the_bound(capsys, power, code, err):
    # D(C5) = 5, so a query is capped at length 40; (1)^41 is a signed zero
    # sum (23 terms +1 and 18 terms -1 sum to 5), so only the cap refuses it
    got = run_cli(capsys, "lengths", "C5", f"[(1)^{power}]")
    assert got[0] == code and got[2] == err
    assert code != EXIT_OK or "lengths        {8, 11, 14, 17, 20}\ndelta          {3}\n" in got[1]


@pytest.mark.parametrize("order, code, message", [
    ("99999999999999999999999", EXIT_OK, ""),  # 3^2 * R23, a prime past trial division
    ("1000036000099", EXIT_OK, ""),  # 1000003 * 1000033, split by Pollard-Brent
    ("999999999999999999999999999989", EXIT_RESOURCE, "is too large to prove prime"),
])
def test_group_of_a_huge_order_answers_or_refuses_at_once(order, code, message):
    # trial division stops at 10^6; a larger cofactor is a prime only when
    # Miller-Rabin proves it, is split by Pollard-Brent when Miller-Rabin
    # shows it composite, and is refused past the Miller-Rabin limit
    got, err, seconds = run_cli_limited("group", f"C{order}", memory_mb=256)
    assert got == code and message in err and "Traceback" not in err, err
    assert seconds < 1.0


def test_g_minus_0_is_listed_only_when_a_command_reads_it(capsys):
    # rho reads no subset at k = 1 or past its cap, so G minus 0 is neither
    # listed nor refused there; a small G minus 0 is listed as before
    assert run_cli_limited("rho", "C1000000000", "-k", "1")[:2] == (EXIT_OK, "")
    code, err, _ = run_cli_limited("rho", "C1000000000", "-k", "4")
    assert code == EXIT_RESOURCE and "rho_k capped at k <= 3, got 4" in err and "Traceback" not in err
    assert run_cli(capsys, "rho", "C13", "-k", "1")[:2] == (EXIT_OK, "rho_1 = 1\n")
    code, out, _ = run_cli(capsys, "min-delta", "C5", "all", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["subset"] == [[1], [2], [3], [4]]


def test_davenport_command(capsys):
    code, out, _ = run_cli(capsys, "davenport", "C2xC6")
    assert code == EXIT_OK and "D(C2xC6) = 7" in out
    code, out, _ = run_cli(capsys, "davenport", "C8", "all")
    assert code == EXIT_OK and "D(monoid) = 5" in out


def test_verify_single_group(capsys):
    code, out, _ = run_cli(capsys, "verify", "C5")
    assert code == EXIT_OK
    assert "0 failed" in out
    code, out, _ = run_cli(capsys, "verify", "C5", "--format", "csv")
    assert code == EXIT_OK
    assert out.startswith("check,group,status\r\ndelta-star-floor,C5,pass\r\n") and out.endswith(",pass\r\n")


def test_verify_c2_all_not_applicable_or_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "C2", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["passed"] is True
    floor = [c for c in data["checks"] if c["check"] == "delta-star-floor"][0]
    assert floor["status"] == "pass" and floor["details"]["computed"] == []
    for check_id in ("odd-order-sandwich", "parity-even-element", "elementary-p-gcd"):
        assert [c for c in data["checks"] if c["check"] == check_id][0]["status"] == "not-applicable"


def test_verify_failure_exit_code(capsys):
    # all-small contains the known C6 counterexample, so the suite exits 3
    code, out, _ = run_cli(capsys, "verify", "all-small", "--format", "json")
    assert code == EXIT_VERIFY
    data = json.loads(out)
    assert data["passed"] is False
    failing = [c for c in data["checks"] if c["status"] == "fail"]
    assert [c["check"] for c in failing] == ["small-max-2-classification"]
    assert "C6" in failing[0]["details"]["computed"]


def run_verify(capsys, *argv):
    """Exit code, JSON report and stderr of ``verify``, with every check by (check, group)."""
    code, out, err = run_cli(capsys, "verify", *argv, "--format", "json")
    data = json.loads(out)
    return code, data, {(c["check"], c["group"]): c for c in data["checks"]}, err


def test_verify_reports_a_value_over_a_cap_as_not_applicable(capsys):
    # the sweep of C3xC6 is complete, but D(B(G)) runs over 9 folded elements
    code, data, checks, err = run_verify(capsys, "C3xC6")
    assert code == EXIT_OK and err == "" and data["sweeps"]["C3xC6"]["complete"]
    assert checks["delta-star-ceiling", "C3xC6"]["status"] == "not-applicable"
    assert checks["delta-star-ceiling", "C3xC6"]["details"] == {
        "reason": "atom enumeration capped at 8 support elements, got 9"}


@pytest.mark.parametrize("target", ["C21", "C23"])
def test_verify_reads_no_partial_sweep(capsys, target):
    code, data, checks, err = run_verify(capsys, target)
    assert code == EXIT_OK and err == "" and not data["sweeps"][target]["complete"]
    for check_id in ("delta-star-floor", "element-order-distances", "delta-star-ceiling"):
        assert checks[check_id, target]["status"] == "not-applicable"
        assert checks[check_id, target]["details"] == {"reason": "sweep incomplete"}
    assert data["counts"]["fail"] == 0


def test_verify_reports_a_refused_sweep_as_not_applicable(capsys):
    target = "C2xC2xC2xC2xC2"
    code, data, checks, err = run_verify(capsys, target)
    assert code == EXIT_OK and err == "" and data["sweeps"] == {}
    refusal = "automorphism search over C2xC2xC2xC2xC2 tries 33554432 image tuples"
    for check_id in ("delta-star-floor", "delta-star-ceiling", "element-order-distances", "parity-even-element"):
        assert checks[check_id, target]["status"] == "not-applicable"
        assert checks[check_id, target]["details"]["reason"].startswith(refusal)
    # not applicable to the group's type, as with a complete sweep
    assert checks["odd-order-sandwich", target]["details"] == {}


@pytest.mark.parametrize("target", ["C1000000000", "C2xC500000"])
def test_verify_lists_no_element_of_a_refused_group(capsys, monkeypatch, target):
    # G minus 0 and D(B(G)) read the sweep first, so a group whose sweep is
    # refused is reported without building the addition table, which walks
    # every element, and without filling a per-index memo
    monkeypatch.setattr(Group, "_add_table", lambda self: pytest.fail(f"walked the elements of {self}"))
    group = pmzs.cli.parse_group(target)
    memos = ("_elements", "_neg", "_shift_steps")
    filled = [len(vars(group).get(memo, ())) for memo in memos]
    start = time.perf_counter()
    code, data, checks, err = run_verify(capsys, target)
    assert time.perf_counter() - start < 1.0
    assert [len(vars(group).get(memo, ())) for memo in memos] == filled
    assert code == EXIT_OK and err == "" and data["sweeps"] == {}
    assert data["counts"] == {"pass": 0, "fail": 0, "not_applicable": len(checks)}
    for check in checks.values():
        assert check["details"] == {} or check["details"]["reason"].startswith(f"automorphism search over {target}")
    reads_sweep = {check_id for check_id, _ in checks if checks[check_id, target]["details"]}
    expected = {"delta-star-floor", "delta-star-ceiling", "element-order-distances", "parity-even-element"}
    assert reads_sweep == expected | ({"monoid-davenport-even-cyclic"} if target == "C1000000000" else set())


def test_verify_reports_a_capped_rho_as_not_applicable(capsys):
    code, capped, checks, err = run_verify(capsys, "C5", "--rho-cap", "1")
    assert code == EXIT_OK and err == ""
    assert checks["rho2-davenport", "C5"]["status"] == "not-applicable"
    assert checks["rho2-davenport", "C5"]["details"] == {"reason": "rho_k capped at k <= 1, got 2"}
    _, default, default_checks, _ = run_verify(capsys, "C5")
    assert default_checks.pop(("rho2-davenport", "C5"))["status"] == "pass"
    checks.pop(("rho2-davenport", "C5"))
    assert checks == default_checks and capped["sweeps"] == default["sweeps"]


def test_verify_all_small_under_a_small_cap_ends_with_a_report(capsys):
    code, data, checks, err = run_verify(capsys, "all-small", "--max-support", "2")
    assert code in (EXIT_OK, EXIT_VERIFY) and err == ""
    assert data["counts"]["not_applicable"] > 0
    assert checks["golden-min-delta", "C2^4 coset"]["details"] == {
        "reason": "atom enumeration capped at 2 support elements, got 8"}


def test_verify_unparsable_target(capsys):
    code, _, err = run_cli(capsys, "verify", "Q5")
    assert code == EXIT_DOMAIN


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("PMZS_FORMAT", "json")
    code, out, _ = run_cli(capsys, "group", "C5")
    assert code == EXIT_OK
    assert json.loads(out)["group"] == "C5"


def test_cache_dir_flag(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    code, cold, _ = run_cli(capsys, "delta-star", "C8", "--cache-dir", str(cache_dir), "--format", "json")
    assert code == EXIT_OK
    assert list(cache_dir.glob("atoms-*.json"))
    code, warm, _ = run_cli(capsys, "delta-star", "C8", "--cache-dir", str(cache_dir), "--format", "json")
    assert cold == warm
    code, plain, _ = run_cli(capsys, "delta-star", "C8", "--format", "json")
    assert plain == cold


def test_verify_sweeps_the_cyclic_factor_as_it_sweeps_the_group(capsys, tmp_path):
    # the elementary-p check sweeps C3 outside the reported sweeps, with the
    # run's cache, row map and pruning, so its atoms land in the cache too
    cache_dir = tmp_path / "cache"
    code, cached, _ = run_cli(capsys, "verify", "C3xC3", "--cache-dir", str(cache_dir))
    assert code == EXIT_OK
    groups = {json.loads(path.read_text())["group"] for path in cache_dir.glob("atoms-*.json")}
    assert groups == {"C3", "C3xC3"}
    for flags in ((), ("--jobs", "2"), ("--no-prune",)):
        assert run_cli(capsys, "verify", "C3xC3", *flags) == (EXIT_OK, cached, ""), flags


def test_cache_entry_written_when_atoms_are_memoized(capsys, tmp_path):
    from pmzs.atoms import _folded_atom_vectors

    argv = ("min-delta", "C8", "[(1),(3)]")
    code, plain, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    hits = _folded_atom_vectors.cache_info().hits
    cache_dir = tmp_path / "cache"
    code, cached, _ = run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
    assert code == EXIT_OK and cached == plain
    assert _folded_atom_vectors.cache_info().hits > hits
    assert len(list(cache_dir.glob("atoms-*.json"))) == 1


def test_sets_with_one_fold_share_one_cache_entry(capsys, tmp_path):
    # {1, 5} and {1, 3} both fold onto {1, 3} in C8 (5 = -3), which keys the entry
    cache_dir = tmp_path / "cache"
    for subset in ("[(1),(5)]", "[(1),(3)]"):
        code, out, _ = run_cli(capsys, "min-delta", "C8", subset, "--cache-dir", str(cache_dir))
        assert code == EXIT_OK and out == "min delta = 2\n"
    assert [p.name for p in cache_dir.iterdir()] == ["atoms-1ce6185478f1c9ce.json"]


def test_cache_entry_bytes_do_not_depend_on_which_subset_missed_first(capsys, tmp_path):
    # {0, 1, 3} and {1, 3} share the entry of {1, 3}; it is written with
    # includes_zero false whichever of them misses first
    def entries(cache_dir, *subsets):
        for subset in subsets:
            code, _, _ = run_cli(capsys, "min-delta", "C8", subset, "--cache-dir", str(cache_dir))
            assert code == EXIT_OK
        return {p.name: p.read_bytes() for p in cache_dir.iterdir()}

    after_zero = entries(tmp_path / "after-zero", "[(0),(1),(3)]", "[(1),(3)]")
    assert after_zero == entries(tmp_path / "alone", "[(1),(3)]")
    assert b'"includes_zero": false' in after_zero["atoms-1ce6185478f1c9ce.json"]


@pytest.mark.parametrize("group, subset, includes_zero", [("C8", "[(1)]", False), ("C6", "[(0),(1)]", True)])
def test_atoms_json_document_is_pinned(capsys, group, subset, includes_zero):
    # the key, the enumeration and its profile; no bound on atom lengths
    code, out, _ = run_cli(capsys, "atoms", group, subset, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {
        "version": 2, "group": group, "ground_set": [[1]], "atoms": [[2]], "includes_zero": includes_zero,
        "count": 1, "max_length": 2, "gcd_lengths_minus_2": 0,
    }


def test_support_cap_counts_the_folded_set(capsys):
    # C10 minus 0 has 9 elements, over the cap of 8, but folds onto 5
    code, out, _ = run_cli(capsys, "min-delta", "C10", "all")
    assert code == EXIT_OK and out == "min delta = 1\n"


def test_truncated_cache_entry_is_a_miss(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    argv = ("min-delta", "C8", "[(1),(3)]", "--cache-dir", str(cache_dir))
    code, cold, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    (entry,) = cache_dir.glob("atoms-*.json")
    valid = entry.read_text()
    entry.write_text(valid[:40])
    code, again, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and again == cold
    assert entry.read_text() == valid
    assert [p.name for p in cache_dir.iterdir()] == [entry.name]


def test_tampered_cache_entry_is_a_miss(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    argv = ("min-delta", "C8", "[(1),(3)]", "--cache-dir", str(cache_dir))
    code, cold, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and "min delta = 2" in cold
    (entry,) = cache_dir.glob("atoms-*.json")
    valid = entry.read_text()
    data = json.loads(valid)
    data["atoms"][-1] = [1, 1]  # e + 3e: no signed zero sum in C8
    entry.write_text(json.dumps(data, sort_keys=True))
    code, again, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and again == cold
    assert entry.read_text() == valid


def test_cache_entry_missing_an_atom_is_a_miss(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    argv = ("min-delta", "C5", "[(1)]", "--cache-dir", str(cache_dir))
    code, cold, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and "min delta = 3" in cold
    (entry,) = cache_dir.glob("atoms-*.json")
    valid = entry.read_text()
    data = json.loads(valid)
    data["atoms"].remove([5])  # e^5, an atom since ord(e) = 5 is odd
    entry.write_text(json.dumps(data, sort_keys=True))
    code, again, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and again == cold
    assert entry.read_text() == valid


def test_cache_dir_naming_a_file_is_an_error(capsys, tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    code, out, err = run_cli(capsys, "min-delta", "C5", "[(1)]", "--cache-dir", str(not_a_dir))
    assert code == EXIT_DOMAIN and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_jobs_below_one_rejected(capsys, monkeypatch):
    for jobs in ("0", "-3"):
        code, out, _ = run_cli(capsys, "delta-star", "C5", "--jobs", jobs)
        assert code == EXIT_DOMAIN and out == ""
    monkeypatch.setenv("PMZS_JOBS", "0")
    code, out, _ = run_cli(capsys, "delta-star", "C5")
    assert code == EXIT_DOMAIN and out == ""


def test_jobs_are_capped_at_the_cpu_count(capsys, monkeypatch):
    # the stand-in executor records its size and maps in this process, so a
    # huge --jobs starts no process
    import concurrent.futures

    made = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    code, serial, _ = run_cli(capsys, "delta-star", "C5", "--jobs", "1", "--format", "json")
    assert code == EXIT_OK and made == []
    code, pooled, _ = run_cli(capsys, "delta-star", "C5", "--jobs", "100000", "--format", "json")
    assert code == EXIT_OK and pooled == serial and made == [2]
    monkeypatch.setattr("os.cpu_count", lambda: None)
    code, pooled, _ = run_cli(capsys, "delta-star", "C5", "--jobs", "3", "--format", "json")
    assert code == EXIT_OK and pooled == serial and made == [2, 1]


def test_verify_out_artifact(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "C3", "--out", str(out_path))
    assert code == EXIT_OK
    data = json.loads(out_path.read_text())
    assert data["target"] == "C3" and data["passed"] is True
    code, out, _ = run_cli(capsys, "verify", "C3", "--out", str(out_path), "--format", "json")
    assert code == EXIT_OK and out_path.read_text() + "\n" == out


def indented_dumps(value):
    return json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("argv", [
    ("group", "C2xC6"),
    ("atoms", "C8", "[(1),(3)]"),
    ("atoms", "C2xC2", "all"),
    ("min-delta", "C8", "[(1),(3)]"),
    ("min-delta", "C2", "all"),
    ("lengths", "C5", "[(1)^10]"),
    ("rho", "C6", "all", "-k", "2"),
    ("delta-star", "C3xC3"),
    ("delta-star", "C12"),
    ("davenport", "C2xC4"),
    ("davenport", "C6", "[(1),(2)]"),
    ("verify", "C3xC3"),
])
def test_json_text_is_json_dumps_on_every_command(capsys, monkeypatch, argv):
    payloads = []
    monkeypatch.setattr(pmzs.cli, "_json_text", lambda payload: payloads.append(payload) or _json_text(payload))
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == EXIT_OK and len(payloads) == 1
    assert out == _json_text(payloads[0]) + "\n" == indented_dumps(payloads[0]) + "\n"


def test_json_text_is_json_dumps_on_the_verify_out_file(capsys, monkeypatch, tmp_path):
    payloads = []
    monkeypatch.setattr(pmzs.cli, "_json_text", lambda payload: payloads.append(payload) or _json_text(payload))
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "all-small", "--out", str(out_path))
    assert code == EXIT_VERIFY and len(payloads) == 1 and out
    assert out_path.read_text() == indented_dumps(payloads[0])


# characters json escapes in every way it can: quotes, backslashes, control
# characters with and without a short escape, non-ASCII in and past the BMP,
# and a lone surrogate
_JSON_CHARACTERS = 'ab z09"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2603\U0001f600\ud800'


def random_text(rng):
    return "".join(rng.choice(_JSON_CHARACTERS) for _ in range(rng.randrange(6)))


def random_json_value(rng, depth=0):
    """A str, int, bool or None, or below depth 4 also a list, tuple or dict
    with str keys, each of them possibly empty."""
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice([0, 1, -1, 2, -7, 10**30, -(10**40), 2**63, rng.randrange(-1000, 1000)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice([[], (), {}])
    if kind in (5, 6):
        items = [random_json_value(rng, depth + 1) for _ in range(rng.randrange(5))]
        return items if kind == 5 else tuple(items)
    return {random_text(rng): random_json_value(rng, depth + 1) for _ in range(rng.randrange(6))}


def test_json_text_is_json_dumps_on_random_payloads():
    rng = random.Random(2029)
    for _ in range(2000):
        payload = {"value": random_json_value(rng), "n": rng.choice([1, True, 0, False])}
        assert _json_text(payload) == indented_dumps(payload), payload
    # an int subclass is written by int's repr, as json writes it
    answer = type("Answer", (int,), {"__repr__": lambda self: "Answer"})(42)
    assert _json_text({"x": [answer]}) == indented_dumps({"x": [answer]})


@pytest.mark.parametrize("payload", [{"x": 1.5}, {"x": [1, {2}]}, {"x": {1: "a"}}, {1: 2}])
def test_json_text_refuses_what_reports_never_hold(payload):
    with pytest.raises(TypeError):
        _json_text(payload)


def test_verify_out_in_missing_directory_is_an_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify", "C5", "--out", str(tmp_path / "missing" / "x.json"))
    assert code == EXIT_DOMAIN and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_out_is_checked_before_the_suite_runs(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("pmzs.cli.run_suite", lambda *args, **kwargs: calls.append(args))
    code, out, err = run_cli(capsys, "verify", "all-small", "--out", str(tmp_path / "missing" / "x.json"))
    assert code == EXIT_DOMAIN and out == "" and err.startswith("error:")
    assert calls == []


def test_missing_subcommand(capsys):
    assert main([]) == EXIT_DOMAIN


def test_no_prune_flag_same_output(capsys):
    code, pruned, _ = run_cli(capsys, "delta-star", "C3xC3", "--format", "json")
    code2, unpruned, _ = run_cli(capsys, "delta-star", "C3xC3", "--no-prune", "--format", "json")
    assert code == code2 == EXIT_OK
    assert pruned == unpruned


def test_usage_error_names_the_argument(capsys):
    code, out, err = run_cli(capsys, "delta-star", "C5", "--jobs", "x")
    assert code == EXIT_DOMAIN and out == ""
    assert err.startswith("usage: pmzs delta-star")
    assert "pmzs delta-star: error: argument --jobs" in err


@pytest.mark.parametrize("name, value", [
    ("MAX_ATOM_LEN", "abc"),
    ("MAX_ORDER", "abc"),
    ("NO_PRUNE", "yes"),
    ("RHO_CAP", "1.5"),
    ("MAX_SUPPORT", ""),
    ("JOBS", "x"),
    ("FORMAT", "xml"),
    *[(name, value) for name in ("MAX_ATOM_LEN", "MAX_ORDER", "RHO_CAP", "MAX_SUPPORT") for value in ("0", "-1")],
])
def test_bad_env_values_are_usage_errors(capsys, monkeypatch, name, value):
    monkeypatch.setenv(f"PMZS_{name}", value)
    code, out, err = run_cli(capsys, "group", "C4")
    assert code == EXIT_DOMAIN and out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--max-atom-len", "--max-order", "--rho-cap", "--max-support"])
@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", [["group", "C4"], ["atoms", "C4", "all"]], ids=lambda argv: argv[0])
def test_cap_flags_below_one_are_usage_errors(capsys, command, flag, value):
    code, out, err = run_cli(capsys, *command, flag, value)
    assert code == EXIT_DOMAIN and out == ""
    assert f"error: argument {flag}: expected a positive integer, got '{value}'" in err


def _argv_grid():
    """(env, argv) pairs that the parser must read as argparse read them."""
    # first the argv of the test that compared argparse's one-command parser with its full one, so their ids stay
    yield from [
        ({}, ["--help"]),
        ({}, []),
        ({}, ["nonsense", "C4"]),
        ({}, ["delta-star", "--help"]),
        ({}, ["group", "C4", "extra"]),
        ({}, ["delta-star", "C5", "--jobs", "x"]),
        ({"PMZS_FORMAT": "xml"}, ["group", "C4"]),
        ({"PMZS_NO_PRUNE": "x"}, ["group", "C4"]),
    ]
    # each command with too few, exactly enough and too many positionals
    positionals = {
        "group": (1, ["C4"]), "atoms": (2, ["C4", "all"]), "min-delta": (2, ["C4", "[(1)]"]),
        "lengths": (2, ["C4", "[(1)^2]"]), "rho": (1, ["C4", "[(1)]"]), "delta-star": (1, ["C5"]),
        "davenport": (1, ["C4", "all"]), "verify": (1, ["C4"]),
    }
    for command, (required, words) in positionals.items():
        for argv in (words[:required - 1], words[:required], words, words + ["extra"]):
            yield {}, [command, *argv]
    # each common flag with a valid value, 0, x, a missing value and the --flag=value form,
    # after and before the positional
    for flag, valid in [("--format", "json"), ("--cache-dir", "d"), ("--jobs", "2"), ("--max-atom-len", "5"),
                        ("--max-order", "5"), ("--rho-cap", "2"), ("--max-support", "4"), ("--no-prune", None)]:
        for words in ([flag] if valid is None else [flag, valid]), [flag, "0"], [flag, "x"], [flag], [f"{flag}={valid or 1}"]:
            yield {}, ["delta-star", "C5", *words]
            yield {}, ["delta-star", *words, "C5"]
    for words in (["-k3"], ["-k", "3"], ["-k", "x"], ["-k"], ["-k", "-1"], ["-k=4"]):
        yield {}, ["rho", "C4", *words]
    # flags before, between and after the positionals
    for command, (_, words) in positionals.items():
        for at in range(len(words) + 1):
            yield {}, [command, *words[:at], "--jobs", "2", *words[at:]]
        yield {}, [command, *words[:1], "--out", "f"]
    yield {}, ["rho", "-k", "3", "C4", "[(1)]"]
    yield {}, ["rho", "C4", "-k", "3", "[(1)]"]  # the first run of words fills both positionals
    yield {}, ["davenport", "C4", "--no-prune", "all"]
    # unknown commands and flags, help, '--' and flags before the command
    for argv in (["Group", "C4"], ["group", "C4", "--bogus"], ["group", "--bogus=1", "C4"], ["group", "C4", "-z"],
                 ["-h"], ["--help=x"], ["rho", "C4", "-h"], ["group", "-hx"], ["group", "C4", "--no-prune", "-h"],
                 ["group", "--", "C4"], ["group", "C4", "--"], ["--", "group", "C4"], ["--"], ["rho", "C4", "--jobs", "1", "--"],
                 ["rho", "--", "C4", "[(1)]"], ["group", "C4", "--jobs", "--"], ["--jobs", "2", "group", "C4"],
                 ["--bogus", "group", "C4"], ["delta-star", "C5", "--jobs", "-3"], ["group", "-x y"]):
        yield {}, argv
    # the environment: PMZS_JOBS is checked only where --jobs is absent, PMZS_FORMAT and PMZS_NO_PRUNE always
    yield {"PMZS_JOBS": "x"}, ["group", "C4"]
    yield {"PMZS_JOBS": "x"}, ["group", "C4", "--jobs", "2"]
    yield {"PMZS_JOBS": "x"}, ["delta-star", "--help"]
    yield {"PMZS_FORMAT": "xml"}, ["group", "C4", "--format", "json"]
    yield {"PMZS_FORMAT": "xml"}, ["--help"]
    yield {"PMZS_NO_PRUNE": "yes"}, ["group", "C4"]
    yield {"PMZS_NO_PRUNE": "yes", "PMZS_FORMAT": "xml"}, ["group", "C4"]
    yield {"PMZS_FORMAT": "json", "PMZS_NO_PRUNE": "1", "PMZS_MAX_ORDER": "12", "PMZS_CACHE_DIR": "d"}, ["delta-star", "C5"]


def _outcome(capsys, parse, argv):
    try:
        values, code = vars(parse(list(argv))), None
    except SystemExit as exc:
        values, code = None, exc.code
    out, err = capsys.readouterr()
    return code, values, out, err


def _usage_words(text):
    """'usage: pmzs' and the command, where the first line names one."""
    words = text.splitlines()[0].split()
    return words[:3] if len(words) > 2 and words[2] in pmzs.cli._ARGUMENTS else words[:2]


def _clear_pmzs_env(monkeypatch):
    for name in os.environ:
        if name.startswith("PMZS_"):
            monkeypatch.delenv(name)


@pytest.mark.parametrize("env, argv", list(_argv_grid()))
def test_parse_args_reads_argv_as_argparse_did(capsys, monkeypatch, env, argv):
    _clear_pmzs_env(monkeypatch)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, values, out, err = _outcome(capsys, argparse_parse_args, argv)
    got_code, got_values, got_out, got_err = _outcome(capsys, _parse_args, argv)
    if code is None:
        assert (got_code, got_values, got_out, got_err) == (None, values, "", "")
    elif code == EXIT_OK:  # help
        assert got_code == EXIT_OK and got_err == "" and _usage_words(got_out) == _usage_words(out)
    else:
        assert got_code == EXIT_DOMAIN and got_out == ""
        assert _usage_words(got_err) == _usage_words(err)
        assert got_err.splitlines()[-1] == err.splitlines()[-1]


def test_environment_values_are_checked_where_argparse_checked_them(capsys, monkeypatch):
    _clear_pmzs_env(monkeypatch)
    monkeypatch.setenv("PMZS_JOBS", "x")
    assert run_cli(capsys, "group", "C4", "--jobs", "2")[0] == EXIT_OK
    code, out, err = run_cli(capsys, "group", "C4")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.splitlines()[-1] == "pmzs group: error: argument --jobs: expected a positive integer, got 'x'"
    monkeypatch.setenv("PMZS_FORMAT", "xml")
    code, out, err = run_cli(capsys, "group", "C4", "--format", "json")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.splitlines()[-1] == "pmzs: error: PMZS_FORMAT: expected one of table, json, csv, got 'xml'"


def test_abbreviated_long_flag_is_a_usage_error(capsys):
    # argparse read --max-sup as --max-support; a flag now matches only by its full name
    assert argparse_parse_args(["delta-star", "C5", "--max-sup", "3"]).max_support == 3
    capsys.readouterr()
    code, out, err = run_cli(capsys, "delta-star", "C5", "--max-sup", "3")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.startswith("usage: pmzs")
    assert err.splitlines()[-1] == "pmzs: error: unrecognized arguments: --max-sup 3"


# Runs pmzs.cli.main(argv) and reports its exit code, stdout and stderr.
RUN_CAPTURED = """
import contextlib, io, json, sys
import pmzs.cli

out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = pmzs.cli.main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


@pytest.mark.parametrize("argv, code, out", [
    (("min-delta", "C1500", "[(1)]"), EXIT_OK, "min delta = empty distance set\n"),
    (("min-delta", "C1501", "[(1)]"), EXIT_OK, "min delta = 1499\n"),
    (("rho", "C1501", "[(1)]", "-k", "3"), EXIT_OK, "rho_3 = 1502\n"),
    # (1)^2 taken 1200 times, since 2400 - 1501 is odd
    (("lengths", "C1501", "[(1)^2400]"), EXIT_OK,
     "element        [(1)^2400]\nfactorizations 1\nlengths        {1200}\ndelta          {}\n"),
], ids=["min-delta C1500", "min-delta C1501", "rho C1501", "lengths C1501"])
def test_searches_deeper_than_the_recursion_limit_end_without_a_traceback(argv, code, out):
    got_code, got_out, err = json.loads(run_fresh(RUN_CAPTURED, *argv, "--max-atom-len", "2000"))
    assert (got_code, got_out) == (code, out), err
    assert "Traceback" not in err
    assert err == "" if code == EXIT_OK else err.startswith("resource limit: ")


@pytest.mark.parametrize("argv", [
    ["group", "C4"], ["atoms", "C4", "all"], ["min-delta", "C4", "all"], ["lengths", "C4", "[(1)^2]"],
    ["rho", "C4"], ["delta-star", "C4"], ["davenport", "C4"], ["verify", "C4"],
], ids=lambda argv: argv[0])
def test_cli_defaults_are_the_library_defaults(monkeypatch, argv):
    _clear_pmzs_env(monkeypatch)
    assert _limits_from(_parse_args(argv)) == DEFAULT_LIMITS
