"""pmzs benchmark: closed-loop CLI workloads, end-to-end metrics, traced per-layer run.

Run from the root of a pmzs checkout:

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 30 --trace 0

Every operation is one ``pmzs.cli.main(argv)`` call in a fresh interpreter,
one at a time, as a CLI user pays for it.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import WORKLOADS, Op, Workload

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
CALIBRATE = HERE / "calibrate.py"
# seconds of calibrate.py at the reference speed that the time metrics are scaled to
CALIBRATION_REF_S = 0.5
# calibration loops run between operations take this share of the time the operations take
CALIBRATION_SHARE = 0.25
BENCHMARK = HERE.parent / "BENCHMARK.json"
STARTUP_PROBES = 9
COLD_PASSES = 3
# per-op lines of a traced run, for checking where one operation's time goes
OP_SHARES = ("cli.main.s", "atoms.enumerate_atoms.s", "atoms.signed_shift.s", "delta_star.subset_orbits.s",
             "groups.fold_negatives.s", "relations.factorizer.s", "relations.suffix_factorizations.s")
BUDGET_S = 160.0  # a run must end within 180 s; stop starting work after this
# read by the warm pass of sweep-warm-cache; the traced cold pass gives the rest
WARM_READ = ("atoms.cache.load.calls", "atoms.cache.load.s", "atoms.cache.hit_ratio")


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class OpResult:
    op: Op
    stdout: bytes
    problems: list[str]
    call_s: float | None = None
    maxrss_kb: int | None = None
    trace: dict | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, result: OpResult) -> OpResult:
        self.attempted += 1
        if result.problems:
            self.failed += 1
            self.problems += [f"{result.op.name}: {p}" for p in result.problems]
        return result


class Runner:
    """Spawns operations one at a time and checks each one's output."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.serial = 0
        env = {k: v for k, v in os.environ.items() if not k.startswith("PMZS_")}
        env["PYTHONPATH"] = str(root / "src")
        self.env = env

    def spawn(self, argv: tuple[str, ...], traced: bool) -> tuple[subprocess.CompletedProcess | None, dict | None, float]:
        """Run child.py to completion; returns the process (None on timeout), its record and the spawn time."""
        self.serial += 1
        record_path = self.work / f"record-{self.serial}.json"
        start = _clock()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(record_path), "1" if traced else "0", *argv],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                timeout=max(1.0, self.deadline - start),
            )
        except subprocess.TimeoutExpired:
            return None, None, start
        record = None
        if record_path.exists():
            record = json.loads(record_path.read_text())
            record_path.unlink()
        return proc, record, start

    def probe(self) -> float:
        """Seconds from spawning an interpreter until pmzs is imported."""
        proc, record, start = self.spawn((), False)
        if proc is None or proc.returncode != 0 or record is None:
            detail = "" if proc is None else proc.stderr.decode(errors="replace").strip()
            raise SystemExit(f"interpreter start-up probe failed: {detail}")
        return record["ready"] - start

    def calibrate(self) -> float:
        """Seconds of calibrate.py's loop in a fresh interpreter."""
        try:
            proc = subprocess.run([sys.executable, str(CALIBRATE)], cwd=self.root, capture_output=True,
                                  timeout=max(1.0, self.deadline - _clock()))
        except subprocess.TimeoutExpired:
            raise SystemExit("calibration loop timed out")
        if proc.returncode != 0:
            raise SystemExit(f"calibration loop failed: {proc.stderr.decode(errors='replace').strip()}")
        return float(proc.stdout)

    def run(self, op: Op, cache_dir: Path | None = None, traced: bool = False) -> OpResult:
        argv = op.argv + (("--cache-dir", str(cache_dir)) if cache_dir is not None else ())
        proc, record, _ = self.spawn(argv, traced)
        if proc is None:
            return OpResult(op, b"", ["timed out"])
        problems = []
        if proc.returncode != 0 or record is None:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            problems.append(f"process exited {proc.returncode} without a record {tail}")
            return OpResult(op, proc.stdout, problems)
        if b"Traceback" in proc.stderr:
            problems.append("traceback on stderr")
        if record["code"] != op.exit_code:
            problems.append(f"exit code {record['code']}, expected {op.exit_code}")
        problems += op.check(proc.stdout)
        return OpResult(
            op, proc.stdout, problems,
            call_s=record["done"] - record["ready"],
            maxrss_kb=record["maxrss_kb"],
            trace=record.get("trace"),
        )


def _pass(
    runner: Runner,
    tally: Tally,
    ops: list[Op],
    cache_dir: Path | None = None,
    traced: bool = False,
    same_as: tuple[dict[str, OpResult], str] | None = None,
) -> dict[str, OpResult]:
    """Run each op once; with ``same_as`` (earlier results, what differs) an
    op whose stdout differs from its earlier result fails too."""
    results = {}
    for op in ops:
        result = runner.run(op, cache_dir, traced)
        if same_as is not None and result.stdout != same_as[0][op.name].stdout:
            result.problems.append(same_as[1])
        results[op.name] = tally.add(result)
    return results


def _wall(results: dict[str, list[float]]) -> float:
    """Time of one pass: the sum over operations of each one's mean call time.

    The mean, not the median: the machine's speed drifts over seconds, and the
    mean averages every second of the timed phase into the result.
    """
    return sum(statistics.fmean(times) for times in results.values())


def timed_run(runner: Runner, workload: Workload, rng: random.Random, seconds: float, tally: Tally) -> dict:
    """Untraced run: set up several times, then whole passes for ``seconds``.

    A pass starts only if, at the mean pass time so far, at least half of it
    falls within ``seconds``, so a run measures ``seconds`` on average; the
    first pass always runs.  A set-up is interpreter start-up (median of
    STARTUP_PROBES) plus, on sweep-warm-cache, a cold pass into a fresh cache
    (median of COLD_PASSES).

    Both times are scaled to the reference speed: multiplied by
    CALIBRATION_REF_S over the mean time of the calibration loops, which run
    first and then after each piece of work, CALIBRATION_SHARE of its time.
    """
    calibrations = []
    owed = 0.0

    def calibrate(since: float) -> None:
        nonlocal owed
        owed += CALIBRATION_SHARE * (_clock() - since)
        while owed > 0 or not calibrations:
            start = _clock()
            calibrations.append(runner.calibrate())
            owed -= _clock() - start

    calibrate(_clock())
    colds = []
    cold = None
    for k in range(COLD_PASSES if workload.cached else 0):
        start = _clock()
        cache_dir = runner.work / f"cache-{k}"
        results = _pass(runner, tally, rng.sample(workload.ops, len(workload.ops)), cache_dir)
        colds.append(_clock() - start)
        cold = cold or (results, cache_dir)
        calibrate(start)
    start = _clock()
    startup = statistics.median(runner.probe() for _ in range(STARTUP_PROBES))
    calibrate(start)
    times: dict[str, list[float]] = {op.name: [] for op in workload.ops}
    rss = []
    passes = 0
    begin = _clock()

    def another() -> bool:
        elapsed = _clock() - begin
        return elapsed + elapsed / passes / 2 <= seconds and _clock() + elapsed / passes < runner.deadline

    while passes == 0 or another():
        passes += 1
        start = _clock()
        ops = rng.sample(workload.ops, len(workload.ops))
        if cold:
            results = _pass(runner, tally, ops, cold[1], same_as=(cold[0], "warm stdout differs from cold stdout"))
        else:
            results = _pass(runner, tally, ops)
        for name, result in results.items():
            if result.call_s is not None:
                times[name].append(result.call_s)
                rss.append(result.maxrss_kb)
        if not all(times.values()):
            break
        calibrate(start)
    for name, samples in times.items():
        print(f"# {name}: call seconds " + " ".join(f"{t:.4f}" for t in samples))
    print("# calibration seconds " + " ".join(f"{t:.4f}" for t in calibrations))
    wall = _wall(times) if all(times.values()) else 0.0
    setup = (statistics.median(colds) if colds else 0.0) + startup
    scale = CALIBRATION_REF_S / statistics.fmean(calibrations)
    return {
        "wall_s": wall * scale,
        "setup_s": setup * scale,
        "peak_rss_mb": max(rss, default=0) / 1024,
        "passes": passes,
        "unscaled wall_s": wall,
        "unscaled setup_s": setup,
    }


def traced_run(runner: Runner, workload: Workload, rng: random.Random, tally: Tally) -> dict:
    """An untraced and a traced pass, whose stdout must agree; on
    sweep-warm-cache each is the warm pass after its own cold pass.  The
    per-layer metrics cover every traced operation, cold pass included,
    except the WARM_READ ones, which cover the traced warm pass alone."""
    ops = rng.sample(workload.ops, len(workload.ops))
    differs = "traced stdout differs from untraced stdout"
    dumps = []
    per_op = []  # (label, traced results) for the per-operation lines
    cache_bytes = 0
    traced_dir = None
    if workload.cached:
        untraced_dir, traced_dir = runner.work / "cache-untraced", runner.work / "cache-traced"
        cold = _pass(runner, tally, ops, untraced_dir)
        untraced = _pass(runner, tally, ops, untraced_dir, same_as=(cold, "warm stdout differs from cold stdout"))
        traced_cold = _pass(runner, tally, ops, traced_dir, True, same_as=(cold, differs))
        dumps += [r.trace for r in traced_cold.values() if r.trace]
        per_op.append(("cold ", traced_cold))
        cache_bytes = sum(p.stat().st_size for p in traced_dir.iterdir())
    else:
        untraced = _pass(runner, tally, ops)
    traced = _pass(runner, tally, ops, traced_dir, True, same_as=(untraced, differs))
    warm_dumps = [r.trace for r in traced.values() if r.trace]
    dumps += warm_dumps
    per_op.append(("warm " if workload.cached else "", traced))
    for label, results in per_op:
        for name, result in results.items():
            if result.trace:
                shares = tracer.summarize([result.trace])
                print(f"# op {label}{name}: " + ", ".join(f"{key} {shares[key]:.3f} s" for key in OP_SHARES))
    metrics = tracer.summarize(dumps)
    if workload.cached:
        warm = tracer.summarize(warm_dumps)
        metrics.update((key, warm[key]) for key in WARM_READ)
    metrics["atoms.cache.bytes"] = cache_bytes
    walls = [sum(r.call_s or 0.0 for r in results.values()) for results in (untraced, traced)]
    metrics["trace.overhead_s"] = walls[1] - walls[0]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="sets only the order of operations")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pmzs" / "cli.py").is_file():
        print(f"error: {root} is not the root of a pmzs checkout (no src/pmzs/cli.py)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    tally = Tally()
    started = _clock()
    # inside the checkout: the benchmark reads and writes nothing outside it
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=root))
    try:
        runner = Runner(root, work, started + BUDGET_S)
        if args.trace:
            values = traced_run(runner, workload, rng, tally)
        else:
            values = timed_run(runner, workload, rng, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    listed = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"BENCHMARK.json lists metrics this harness does not produce: {missing}")

    for problem in tally.problems:
        print(f"FAILED {problem}")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"# workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{tally.attempted} operations, error_rate {error_rate:.4f}, "
          f"{_clock() - started:.1f} s, python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    for name in units:
        print(f"#   {name:42s} {values[name]:>14.6f} {units[name]}")
    if not args.trace:
        print(f"#   passes {values['passes']}, unscaled wall_s {values['unscaled wall_s']:.6f} s, "
              f"unscaled setup_s {values['unscaled setup_s']:.6f} s")
    result = {
        "correct": not tally.problems and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
