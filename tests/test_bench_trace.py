"""Every small benchmark operation gives the same stdout under the
benchmark's span tracer as without it, so a traced function that is
renamed, or whose result no longer has the shape the tracer reads, fails
here rather than in a benchmark run."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _small_ops():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    # small=True maps several ops to the same s = 1 call; run each once
    return list(dict.fromkeys(op for ops in module.workloads(small=True).values() for op in ops))


@pytest.mark.parametrize("op", _small_ops(), ids=lambda op: op.label)
def test_traced_op_matches_plain(op, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    argv = op.argv(BENCH)
    plain, traced = (
        subprocess.run([sys.executable, *prefix, *argv], capture_output=True, env=env, cwd=ROOT)
        for prefix in ((), (str(BENCH / "tracer.py"), str(tmp_path / "spans.json")))
    )
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.returncode == 0, traced.stderr.decode()
    assert traced.stdout == plain.stdout
