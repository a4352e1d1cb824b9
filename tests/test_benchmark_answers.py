"""The benchmark's four operations give the answers its checks accept.

``perfbench/workloads.py`` pins each operation's argv, which ends in its
``CAPS``, its exit code and a check against ``perfbench/reference/``.  The
module is loaded by path and only read, so these tests run the operations
exactly as the benchmark does, through ``pmzs.cli.main`` in this process.
"""

import importlib.util
import sys

import pytest

from pmzs.cli import main
from helpers import REPO


def _workloads():
    path = REPO / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
OPS = (WORKLOADS.VERIFY, WORKLOADS.C4XC4, WORKLOADS.C12, WORKLOADS.C13)


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_benchmark_operation_passes_its_check(capsys, op):
    code = main(list(op.argv))
    out = capsys.readouterr().out
    assert code == op.exit_code, op.name
    assert op.check(out.encode()) == [], op.name


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_benchmark_operation_prints_the_same_at_two_jobs(capsys, op):
    argv = list(op.argv)
    at = argv.index("--jobs")
    assert argv[at + 1] == "1", op.name
    serial = main(argv), capsys.readouterr().out
    argv[at + 1] = "2"
    pooled = main(argv), capsys.readouterr().out
    assert pooled == serial, op.name
