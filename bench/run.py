"""Benchmark of the `skab` CLI and library.

Runs one workload of real operations, one fresh interpreter per
operation, serially from this process, and prints its metrics by name
with units.  The last line of stdout is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 bench/run.py --workload generic-s3 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Children are spawned, timed and measured by ``launcher.py``, with
``SKAB_THREADS`` unset (one enumeration thread) and one child at a time.

``--trace 0`` (end to end): ``setup_s`` is the median of timed spawns of
``import skabelund``, a few up front and one after each operation.  The
operations run in turn, each at least once, while the next one is
expected to end within ``--seconds``.
``wall_s`` sums, over the operations, the median spawn-to-exit time of
each; ``peak_rss_mb`` is the largest, over the operations, of the median
child peak RSS.

The CPU speed of a shared host swings by a quarter within seconds and
drifts over minutes, on the benchmark's own core, so both times are taken
relative to the machine's speed at that moment: a reference spawn of
``python -c "import numpy"``, which runs no code of the program, is timed
between any two timed spawns, and each spawn's time is divided by the
mean of the references right before and after it and multiplied by
``REF_S``.  The times are thus seconds on a machine where the reference
takes ``REF_S``; the raw medians are printed beside them.

``--trace 1`` (per layer): alternates an untraced pass and a pass run
under ``tracer.py``, reports the per-layer metrics of the traced passes
(medians) and the tracing overhead, traced minus untraced ``wall_s``, and
writes every span to ``.bench_out/spans-<workload>-seed<seed>.json``.

Every operation is checked: exit code, sha256 of stdout against
``digests.json`` (recorded with ``--record``), and the invariants in
``workloads.py``.  A failed check counts in ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

SETUP_SPAWNS = 5  # before the operations; one more follows each
# The reference spawn and its time on the machine described in README.md.
REF_ARGV = ["-c", "import numpy"]
REF_S = 0.15
OP_TIMEOUT_S = 60

# Per-layer metrics: (name, unit).  The name is <layer>.<quantity>, where
# the layer is a traced function (see tracer.py) and the quantity is a key
# of tracer.summarize; a layer that a workload never calls reads 0.
PER_LAYER = [
    ("curve.quartic_apery_stats.busy_s", "s"),
    ("curve.quartic_apery_stats.indices", "count"),
    ("curve.rational_apery_stats.busy_s", "s"),
    ("curve.quartic_apery.self_s", "s"),
    ("curve.phi.calls", "count"),
    ("curve.phi.busy_s", "s"),
    ("semigroup.profile_from_generators.busy_s", "s"),
    ("semigroup.profile_from_generators.residues", "count"),
    ("semigroup.minimal_generators.busy_s", "s"),
    ("semigroup.minimal_generators.window", "count"),
    ("semigroup.verify_cofinite_complement.busy_s", "s"),
    ("semigroup.gaps_of.busy_s", "s"),
    ("semigroup.gaps_of.gaps", "count"),
    ("families.enumerate_values.busy_s", "s"),
    ("families.enumerate_values.gaps", "count"),
    ("families.enumerate_values.rss_mb", "MB"),
    ("families.generic_semigroup.self_s", "s"),
    ("families.generic_semigroup.rss_mb", "MB"),
    ("families.enumerate_all.busy_s", "s"),
    ("families.enumerate_all.records", "count"),
    ("families.enumerate_all.rss_mb", "MB"),
    ("families.gap_witness.calls", "count"),
    ("families.gap_witness.busy_s", "s"),
    ("families.gap_witness.failed", "count"),
    ("cli.render.busy_s", "s"),
    ("cli.render.bytes", "B"),
    ("cli.cmd_table1.self_s", "s"),
    ("cli.cmd_semigroup.self_s", "s"),
    ("cli.cmd_verify.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def child_env() -> dict[str, str]:
    """The environment of every child: the checkout's sources, the
    default of one enumeration thread, single-threaded BLAS."""
    env = {k: v for k, v in os.environ.items() if k != "SKAB_THREADS"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


@dataclass
class Spawn:
    wall_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


class Launcher:
    """Client of launcher.py, which spawns and times every child."""

    def __init__(self) -> None:
        self._files = (OUT / f"op-{os.getpid()}.out", OUT / f"op-{os.getpid()}.err")
        self._proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      env=child_env(), cwd=ROOT, text=True)

    def spawn(self, argv: list[str]) -> Spawn:
        """Run ``python argv`` to completion."""
        out, err = self._files
        request = {"argv": [sys.executable, *argv], "stdout": str(out), "stderr": str(err),
                   "timeout": OP_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited early")
        reply = json.loads(line)
        result = Spawn(reply["wall_s"], reply["maxrss_kb"] / 1024, reply["code"],
                       out.read_bytes(), err.read_bytes())
        out.unlink()
        err.unlink()
        return result

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=OP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class Runner:
    """Runs and checks operations; counts attempts and failures.

    Every output's sha256 is compared with the recording; the invariants
    of workloads.py are checked on the first output of each operation
    (later outputs with the same digest are byte-identical to it)."""

    launcher: Launcher
    rng: random.Random
    digests: dict[str, str] | None  # None: compare against no recording
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    _checked: set[str] = field(default_factory=set)

    def run(self, op: workloads.Op, spans_path: Path | None = None) -> tuple[Spawn, dict | None]:
        argv = op.argv(BENCH)
        if spans_path is not None:
            argv = [str(BENCH / "tracer.py"), str(spans_path), *argv]
        result = self.launcher.spawn(argv)
        trace = None
        problems = []
        if result.code != 0:
            tail = result.stderr.decode(errors="replace").strip().splitlines()[-1:]
            problems.append(f"{op.label}: exit code {result.code} {tail}")
        else:
            if self.digests is not None:
                digest = hashlib.sha256(result.stdout).hexdigest()
                if digest != self.digests.get(op.label):
                    problems.append(f"{op.label}: stdout sha256 {digest[:12]} differs from the recording")
            if op.label not in self._checked or self.digests is None:
                self._checked.add(op.label)
                problems += workloads.check_output(op, result.stdout, self.rng)
            if spans_path is not None:
                trace = json.loads(spans_path.read_text())
        if spans_path is not None:
            spans_path.unlink(missing_ok=True)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        return result, trace


SETUP_ARGV = ["-c", "import skabelund"]


def checked_spawn(launcher: Launcher, argv: list[str]) -> Spawn:
    s = launcher.spawn(argv)
    if s.code != 0:
        raise RuntimeError(f"{argv} failed: {s.stderr.decode(errors='replace')}")
    return s


class Clock:
    """Puts a reference spawn, ``import numpy``, between any two timed
    spawns, and makes each timed spawn relative to the mean of the
    references right before and right after it."""

    def __init__(self, launcher: Launcher) -> None:
        self.launcher = launcher
        self._before = self._reference()

    def _reference(self) -> float:
        return checked_spawn(self.launcher, REF_ARGV).wall_s

    def relative(self, wall_s: float) -> float:
        """Call right after the spawn that took ``wall_s``."""
        after = self._reference()
        rel = wall_s / ((self._before + after) / 2) * REF_S
        self._before = after
        return rel


def setup_probe(clock: Clock) -> tuple[float, float]:
    """Spawn-to-exit time of ``import skabelund`` in a fresh interpreter:
    (relative, raw)."""
    wall = checked_spawn(clock.launcher, SETUP_ARGV).wall_s
    return clock.relative(wall), wall


# A sample of one operation run: (relative wall time, raw wall time, RSS).
Sample = tuple[float, float, float]


def timed_run(runner: Runner, clock: Clock, op: workloads.Op,
              spans_path: Path | None = None) -> tuple[Sample, dict | None]:
    result, trace = runner.run(op, spans_path)
    return (clock.relative(result.wall_s), result.wall_s, result.rss_mb), trace


def summed_medians(samples: list[list[Sample]], raw: bool = False) -> float:
    """Sum over operations of each operation's median wall time."""
    return sum(statistics.median(s[1 if raw else 0] for s in runs) for runs in samples)


def op_lines(ops: list[workloads.Op], samples: list[list[Sample]]) -> list[str]:
    return [f"  {len(runs):3d} x {statistics.median(s[0] for s in runs):8.3f} s "
            f"(raw {statistics.median(s[1] for s in runs):7.3f} s) "
            f"{statistics.median(s[2] for s in runs):7.1f} MB  {op.label}"
            for op, runs in zip(ops, samples)]


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its operations
    (RSS: the largest)."""
    totals: dict[str, dict[str, float]] = {}
    for trace in traces:
        for layer, row in tracer.summarize(trace).items():
            acc = totals.setdefault(layer, {})
            for key, value in row.items():
                acc[key] = max(acc.get(key, 0), value) if key == "rss_mb" else acc.get(key, 0) + value
    out = {}
    for name, _unit in PER_LAYER:
        layer, quantity = name.rsplit(".", 1)
        if layer != "trace":
            out[name] = totals.get(layer, {}).get(quantity, 0)
    return out


def end_to_end(runner: Runner, ops: list[workloads.Op], seconds: float):
    """Cycle through the operations, at least once each, while the next
    one is expected to end within ``seconds``.  A set-up probe follows each
    operation, so that ``setup_s`` samples the same conditions."""
    clock = Clock(runner.launcher)
    setup = [setup_probe(clock) for _ in range(SETUP_SPAWNS)]
    samples: list[list[Sample]] = [[] for _ in ops]
    start = time.perf_counter()
    for i in itertools.count():
        k = i % len(ops)
        if i >= len(ops) and time.perf_counter() - start + samples[k][0][1] > seconds:
            break
        samples[k].append(timed_run(runner, clock, ops[k])[0])
        setup.append(setup_probe(clock))
    metrics = {"setup_s": statistics.median(s for s, _ in setup),
               "wall_s": summed_medians(samples),
               "peak_rss_mb": max(statistics.median(s[2] for s in runs) for runs in samples)}
    lines = op_lines(ops, samples)
    lines.append(f"  raw medians: wall {summed_medians(samples, raw=True):.3f} s, "
                 f"setup {statistics.median(w for _, w in setup):.4f} s")
    return metrics, lines


def per_layer(runner: Runner, ops: list[workloads.Op], seconds: float, dump: Path):
    """Alternate an untraced and a traced pass while another pair fits in
    ``seconds``; per-layer metrics are medians over the traced passes.
    Every span is kept and written to ``dump`` at the end."""
    plain: list[list[Sample]] = [[] for _ in ops]
    traced: list[list[Sample]] = [[] for _ in ops]
    layers: list[dict[str, float]] = []
    kept: list[dict] = []
    spans_path = OUT / f"spans-{os.getpid()}.json"
    clock = Clock(runner.launcher)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for k, op in enumerate(ops):
            plain[k].append(timed_run(runner, clock, op)[0])
        traces = []
        for k, op in enumerate(ops):
            sample, trace = timed_run(runner, clock, op, spans_path)
            traced[k].append(sample)
            traces.append(trace)
            kept.append({"op": op.label, "pass": len(traced[k]), "trace": trace})
        if None not in traces:
            layers.append(layer_metrics(traces))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    metrics = {name: statistics.median(d[name] for d in layers) if layers else 0
               for name, _ in PER_LAYER if not name.startswith("trace.")}
    metrics["trace.wall_s"] = summed_medians(traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - summed_medians(plain)
    dump.write_text(json.dumps(kept))
    return metrics, op_lines(ops, traced)


def measure(name: str, seconds: float, seed: int, traced: bool, digests):
    """Run one workload; returns the runner, the metrics and per-operation
    summary lines."""
    rng = random.Random(seed)
    ops = list(workloads.workloads()[name])
    rng.shuffle(ops)
    with Launcher() as launcher:
        runner = Runner(launcher, rng, digests)
        launcher.spawn(SETUP_ARGV)  # fills the bytecode cache
        if traced:
            dump = OUT / f"spans-{name}-seed{seed}.json"
            return (runner, *per_layer(runner, ops, seconds, dump))
        return (runner, *end_to_end(runner, ops, seconds))


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def report(name: str, runner: Runner, metrics: dict, lines: list[str], traced: bool) -> dict:
    units = dict(PER_LAYER) if traced else E2E_UNITS
    print(f"workload {name}: {runner.attempted} operation runs; runs x median wall, RSS"
          f"{' (traced)' if traced else ''}:")
    print("\n".join(lines))
    for key, value in metrics.items():
        print(f"  {key:<46} {value:>14.6g} {units[key]}")
    rate = runner.failed / runner.attempted
    print(f"  {'error_rate':<46} {rate:>14.6g} ratio ({runner.failed}/{runner.attempted} failed)")
    for problem in runner.problems[:20]:
        print(f"  FAILED {problem}")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def record_digests() -> int:
    """Write the sha256 of every operation's stdout to digests.json, after
    checking the invariants of each."""
    recorded = {}
    with Launcher() as launcher:
        runner = Runner(launcher, random.Random(0), None)
        for ops in workloads.workloads().values():
            for op in ops:
                result, _ = runner.run(op)
                recorded[op.label] = hashlib.sha256(result.stdout).hexdigest()
    if runner.failed:
        print("\n".join(runner.problems), file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} digests in {DIGESTS}")
    return 0


def main(argv: list[str] | None = None) -> int:
    names = list(workloads.workloads())
    parser = argparse.ArgumentParser(description="Benchmark of the skab CLI and library.")
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record the stdout digests of every operation and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skabelund" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'skabelund'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.record:
        return record_digests()
    digests = json.loads(DIGESTS.read_text())

    selected = names if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in selected:
        runner, measured, lines = measure(name, args.seconds, args.seed, bool(args.trace), digests)
        named = report(name, runner, measured, lines, bool(args.trace))
        prefix = f"{name}." if len(selected) > 1 else ""
        metrics.update({prefix + k: v for k, v in named.items()})
        attempted += runner.attempted
        failed += runner.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
