"""The benchmark's four operations give the answers its checks accept, the
names its tracer wraps exist, and a traced run spans every layer.

``perfbench/workloads.py`` pins each operation's argv, which ends in its
``CAPS``, its exit code and a check against ``perfbench/reference/``.  The
benchmark's modules are loaded by path and only read, so these tests run the
operations exactly as the benchmark does, through ``pmzs.cli.main`` in this
process, and a renamed method fails here rather than in a traced run.
"""

import importlib
import importlib.util
import json
import subprocess
import sys

import pytest

from pmzs import enumerate_atoms, make_group
from pmzs.cli import main
from pmzs.relations import Factorizer
from helpers import REPO, _child_env


def _load(name):
    path = REPO / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")
TRACER = _load("tracer")
OPS = (WORKLOADS.VERIFY, WORKLOADS.C4XC4, WORKLOADS.C12, WORKLOADS.C13)


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_benchmark_operation_passes_its_check(capsys, op):
    code = main(list(op.argv))
    out = capsys.readouterr().out
    assert code == op.exit_code, op.name
    assert op.check(out.encode()) == [], op.name
    # the CLI writes its JSON itself; the text is what json.dumps writes
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n", op.name


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_benchmark_operation_prints_the_same_at_two_jobs(capsys, op):
    argv = list(op.argv)
    at = argv.index("--jobs")
    assert argv[at + 1] == "1", op.name
    serial = main(argv), capsys.readouterr().out
    argv[at + 1] = "2"
    pooled = main(argv), capsys.readouterr().out
    assert pooled == serial, op.name


def test_tracer_methods_exist():
    for layer, cls_name, methods in TRACER.METHODS:
        cls = getattr(importlib.import_module(f"pmzs.{layer}"), cls_name)
        for method in methods:
            assert method in vars(cls), f"{layer}.{cls_name}.{method}"
    # the tracer times each Factorizer's factorization search through this attribute
    group = make_group([5])
    assert callable(Factorizer(enumerate_atoms(group, [group.element(1)]))._suffixes)


def test_traced_child_spans_the_layers(tmp_path):
    # a fresh interpreter started as the benchmark starts one, so the tracer
    # meets the layer modules as they are laid out, not as a test imported them
    record_path = tmp_path / "record.json"
    done = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "child.py"), str(record_path), "1", "verify", "C5", "--format", "json"],
        cwd=REPO, env=_child_env(None), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(record_path.read_text())
    assert record["code"] == 0
    names = {span[0] for span in record["trace"]["spans"]}
    assert {"cli.main", "suite.run_suite", "delta_star.delta_star", "groups.automorphisms"} <= names, sorted(names)
    # the sweep's orbits call the search once, and Aut(C5) has 4 elements
    assert record["trace"]["counters"]["groups.automorphisms.count"] == 4
