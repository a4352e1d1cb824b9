"""Record a benchmark baseline: repeated untraced runs plus one traced run per workload.

Run from the root of a pmzs checkout:

    python3 perfbench/record.py --label seed
    python3 perfbench/record.py --label seed-repeat --first-seed 11

Runs every workload of BENCHMARK.json with RUNS consecutive seeds and writes
perfbench/results/<label>.json with, per workload, every end-to-end value and
its median and quartiles, and the per-layer values of the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """The result line of one run, and its per-operation lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [line for line in lines if line.startswith("# op ")]


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {
        "label": args.label,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            runs.append(_run(workload, seed, bench["run_seconds"], 0)[0])
            print(workload, seed, {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}, flush=True)
        traced, per_op = _run(workload, args.first_seed, bench["run_seconds"], 1)
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m["name"]: _summary([r["metrics"][m["name"]]["value"] for r in runs]) for m in bench["end_to_end"]
            },
            "per_layer": {name: v["value"] for name, v in traced["metrics"].items()},
            "per_op": per_op,
        }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.label}.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
