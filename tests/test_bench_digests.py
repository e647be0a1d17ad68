"""Every operation of the benchmark's three workloads prints exactly the
stdout recorded in bench/digests.json.

Each operation runs in a fresh interpreter, as the benchmark runs it.  The
benchmark refuses a changed digest as ``outputs_incorrect``; this test
catches the change in the tier-1 suite first.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _ops():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return [op for ops in module.workloads().values() for op in ops]


@pytest.mark.parametrize("op", _ops(), ids=lambda op: op.label)
def test_op_stdout_matches_recorded_digest(op):
    digests = json.loads((BENCH / "digests.json").read_text())
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, *op.argv(BENCH)], capture_output=True, env=env, cwd=ROOT)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == digests[op.label]
