"""What a CLI process loads: the modules of ``import pmzs.cli``, and no new
module during a command, each checked in a fresh interpreter."""

import json

import pytest

from helpers import run_fresh

# Runs pmzs.cli.main(argv) and reports its exit code, its stdout and the
# modules it imported that start-up had not.
RUN_MAIN = """
import contextlib, io, json, sys
import pmzs.cli

before = set(sys.modules)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = pmzs.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "out": out.getvalue(), "new": sorted(set(sys.modules) - before)}))
"""


def run_main(*argv: str) -> dict:
    return json.loads(run_fresh(RUN_MAIN, *argv))


def test_import_loads_no_pool_and_no_openssl():
    snippet = """
import sys
import pmzs.cli

print(" ".join(m for m in ("hashlib", "_hashlib", "concurrent.futures", "multiprocessing") if m in sys.modules))
"""
    assert run_fresh(snippet).split() == []


# The modules that ``import pmzs.cli`` adds to a fresh interpreter, apart from
# pmzs's own: the report formats, gc for gc.freeze(), and __future__ for the
# annotations.
STARTUP_MODULES = {
    "csv", "_csv", "json", "json.decoder", "json.encoder", "json.scanner", "_json",
    "gc", "__future__",
}


def test_import_loads_only_the_listed_modules():
    snippet = """
import sys
before = set(sys.modules)
import pmzs.cli

print(" ".join(set(sys.modules) - before))
"""
    added = set(run_fresh(snippet).split())
    own = {m for m in added if m == "pmzs" or m.startswith("pmzs.")}
    assert added - own == STARTUP_MODULES


# help and usage errors, with their exit codes, so that no parser of the
# standard library comes back for them
HELP_AND_ERRORS = {("--help",): 0, ("delta-star", "--help"): 0, ("delta-star", "C5", "--jobs", "x"): 1, (): 1}


@pytest.mark.parametrize("argv", [
    ("delta-star", "C4xC4", "--format", "json"),
    ("verify", "C5"),
    ("group", "C4", "--jobs", "2"),  # a command that runs no sweep opens no pool
    *HELP_AND_ERRORS,
])
def test_command_imports_no_new_module(argv):
    result = run_main(*argv)
    code = HELP_AND_ERRORS.get(argv, 0)
    assert result["code"] == code and bool(result["out"]) == (code == 0)
    assert result["new"] == []


def test_cache_runs_import_no_new_module(tmp_path):
    argv = ("delta-star", "C12", "--cache-dir", str(tmp_path / "cache"))
    cold = run_main(*argv)
    assert list((tmp_path / "cache").glob("atoms-*.json"))
    warm = run_main(*argv)
    assert cold["code"] == warm["code"] == 0 and cold["out"] == warm["out"]
    assert cold["new"] == [] and warm["new"] == []


# Runs pmzs.cli.main(argv) and reports its exit code, its stdout and how many
# process pools it constructed.
COUNT_POOLS = """
import concurrent.futures, contextlib, io, json, sys
import pmzs.cli

made = []

class CountingExecutor(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        made.append(1)
        super().__init__(*args, **kwargs)

concurrent.futures.ProcessPoolExecutor = CountingExecutor
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = pmzs.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "out": out.getvalue(), "pools": len(made)}))
"""


def test_verify_opens_one_pool_per_run():
    argv = ("verify", "all-small", "--format", "json", "--jobs")
    serial = json.loads(run_fresh(COUNT_POOLS, *argv, "1"))
    pooled = json.loads(run_fresh(COUNT_POOLS, *argv, "2"))
    assert serial["pools"] == 0 and pooled["pools"] == 1
    assert serial["code"] == pooled["code"] == 3 and serial["out"] == pooled["out"]


def test_jobs_above_one_loads_the_pool_and_prints_the_same_bytes():
    serial = run_main("delta-star", "C2xC4", "--jobs", "1")
    pooled = run_main("delta-star", "C2xC4", "--jobs", "2")
    assert "concurrent.futures.process" not in serial["new"]
    assert "concurrent.futures.process" in pooled["new"]
    assert serial["code"] == pooled["code"] == 0 and serial["out"] == pooled["out"]
