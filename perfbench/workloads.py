"""The benchmark's workloads and the correctness gate of each operation.

Every cap is pinned in argv so that a later change to a default cannot change
what a workload computes.  The references under ``reference/`` are the
outputs of the first measured version; the checks compare against them and
against laws that hold independently of the code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference"

CAPS = ("--jobs", "1", "--max-order", "16", "--max-support", "8", "--max-atom-len", "20", "--rho-cap", "3")

EXIT_OK = 0
EXIT_VERIFY = 3


@dataclass(frozen=True)
class Op:
    """One ``pmzs.cli.main`` invocation, its expected exit code and output check."""

    name: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[bytes], list[str]]


@dataclass(frozen=True)
class Workload:
    """Operations run in a seed-shuffled order per pass; BENCHMARK.json and
    README.md say why each workload is there."""

    name: str
    ops: tuple[Op, ...]
    cached: bool = False  # set-up fills an atom cache that the timed ops read


def _reference(name: str) -> bytes:
    return (REFERENCE / name).read_bytes()


def check_verify(stdout: bytes) -> list[str]:
    """Byte-identical report, whose only failure is the known C6 counterexample."""
    problems = []
    if stdout != _reference("verify-all-small.json"):
        problems.append("verify report differs from reference/verify-all-small.json")
    try:
        report = json.loads(stdout)
        failing = [c["check"] for c in report["checks"] if c["status"] == "fail"]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"verify report is not a readable suite report: {exc!r}"]
    if failing != ["small-max-2-classification"]:
        problems.append(f"failing checks are {failing}, expected only small-max-2-classification")
    return problems


def _rows(entries) -> dict:
    return {tuple(map(tuple, e["subset"])): e.get("min_delta") for e in entries}


def sweep_check(reference: str, law: Callable[[dict], list[str]] | None = None) -> Callable[[bytes], list[str]]:
    """Compare a delta-star report with a reference on its values, not its bytes.

    The table, skipped subsets, the set and its maximum and the completeness
    flag must match; a witness may be any table row carrying its value.
    """

    def check(stdout: bytes) -> list[str]:
        ref = json.loads(_reference(reference))
        try:
            got = json.loads(stdout)
            problems = [
                f"{key}: {got[key]!r} != reference {ref[key]!r}"
                for key in ("group", "delta_star", "max", "complete")
                if got[key] != ref[key]
            ]
            table = _rows(got["table"])
            if table != _rows(ref["table"]):
                problems.append("table rows differ from the reference")
            if set(_rows(got["skipped"])) != set(_rows(ref["skipped"])):
                problems.append("skipped subsets differ from the reference")
            if sorted(map(int, got["witnesses"])) != got["delta_star"]:
                problems.append("witnesses do not cover exactly the values of delta_star")
            for value, subset in got["witnesses"].items():
                if table.get(tuple(map(tuple, subset))) != int(value):
                    problems.append(f"witness {subset} for {value} is not a table row with that value")
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return [f"{reference}: unreadable delta-star report: {exc!r}"]
        if law is not None:
            problems += law(got)
        return [f"{reference}: {p}" for p in problems]

    return check


def odd_cyclic_law(n: int) -> Callable[[dict], list[str]]:
    """C_n, n and n - 2 odd primes: delta* = {1, n - 2}.

    The odd-order sandwich D1 <= delta* <= D2, with D1 = {n - 2} and D2 the
    divisors of n - 2, leaves only 1 open; and 1 occurs, since over {e, 2e}
    the square of the atom e^2 (2e) also factors as e^2 e^2 (2e)^2.
    """

    def law(report: dict) -> list[str]:
        expected = [1, n - 2]
        if report["delta_star"] != expected or report["max"] != n - 2:
            return [f"odd-order law: delta* = {report['delta_star']}, expected {expected}"]
        return []

    return law


def even_cyclic_law(n: int) -> Callable[[dict], list[str]]:
    """C_n, n = 2m even: D(monoid over G minus 0) = m + 1, and no distance of
    a monoid exceeds its Davenport constant minus 2, so max delta* <= m - 1."""

    def law(report: dict) -> list[str]:
        bound = n // 2 - 1
        if report["max"] is None or report["max"] > bound:
            return [f"even-cyclic law: max delta* = {report['max']} exceeds D(monoid) - 2 = {bound}"]
        return []

    return law


def _op(command: str, group: str, exit_code: int, check) -> Op:
    return Op(f"{command} {group}", (command, group, "--format", "json") + CAPS, exit_code, check)


VERIFY = _op("verify", "all-small", EXIT_VERIFY, check_verify)
C12 = _op("delta-star", "C12", EXIT_OK, sweep_check("delta-star-C12.json", even_cyclic_law(12)))
C13 = _op("delta-star", "C13", EXIT_OK, sweep_check("delta-star-C13.json", odd_cyclic_law(13)))
C4XC4 = _op("delta-star", "C4xC4", EXIT_OK, sweep_check("delta-star-C4xC4.json"))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-small", (VERIFY,)),
        Workload("sweep-rank2", (C4XC4,)),
        Workload("sweep-warm-cache", (C12, C13), cached=True),
    )
}
