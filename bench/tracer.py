"""Span tracer for one `skab` operation, installed from outside the package.

Run as a child process in place of ``python -m skabelund`` (or a library
script)::

    python bench/tracer.py SPANS.json -m skabelund table1 --max-s 1
    python bench/tracer.py SPANS.json bench/engine_op.py --s 1

It imports :mod:`skabelund`, rebinds the traced functions in every module
namespace that holds them (``families.verify_cofinite_complement`` is the
same object as ``semigroup.verify_cofinite_complement``), runs the target
with the original ``sys.argv`` shape, restores the originals, and writes
the spans it kept in memory to ``SPANS.json``.  The payload on stdout is
untouched.

Coarse layer calls become spans ``[name, start, end, parent, items_s,
rss_kb, quantities]``.  Per-item calls (``phi`` once per Apery index,
``gap_witness`` once per gap) are too many for spans: they keep only a
call count, a total time and a failure count, and their time is credited
to the enclosing span so that its self time excludes them.

The aggregation helpers (:func:`self_times`, :func:`summarize`) run in the
benchmark process and import nothing from the package.
"""

from __future__ import annotations

import importlib
import json
import resource
import runpy
import sys
import time

# Layer boundaries wrapped as spans.  Hot helpers (``contains``, ``phi1``,
# ``phi2``, ``quartic_multiplicity``, ``pole_order_table``,
# ``witness_valuation``, ``witness_pole_cost``) stay unwrapped: their time
# belongs to the caller's self time.
SPANNED = (
    "curve.rational_apery", "curve.quartic_apery",
    "curve.rational_apery_stats", "curve.quartic_apery_stats", "curve.phi_values",
    "semigroup.profile_from_generators", "semigroup.gaps_of",
    "semigroup.verify_cofinite_complement", "semigroup.minimal_generators",
    "families.enumerate_values", "families.enumerate_all", "families.generic_semigroup",
    "cli.cmd_params", "cli.cmd_semigroup", "cli.cmd_table1", "cli.cmd_verify", "cli.render",
)
PER_ITEM = ("curve.phi", "families.gap_witness")


# Work-size counts read off the arguments or the result of a span.
QUANTITIES = {
    "curve.quartic_apery_stats": lambda a, r: {"indices": a[0].q ** 2 - a[0].q + 1},
    "semigroup.profile_from_generators": lambda a, r: {"residues": a[0].gens[0]},
    "semigroup.minimal_generators":
        lambda a, r: {"window": max(a[0].conductor + 2 * a[0].multiplicity, 2)},
    "semigroup.gaps_of": lambda a, r: {"gaps": len(r.gaps)},
    "families.enumerate_values": lambda a, r: {"gaps": len(r[0].gaps)},
    "families.enumerate_all": lambda a, r: {"records": len(r[1])},
    # JSON and text renders are ASCII, so characters are bytes.
    "cli.render": lambda a, r: {"bytes": len(r)},
}


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list = []
        self.items: dict[str, list] = {}  # name -> [calls, busy_s, failed]
        self._stack: list[int] = []
        self._item_acc: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def span_wrapper(self, name: str, fn):
        spans, stack, item_acc = self.spans, self._stack, self._item_acc
        measure = QUANTITIES.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            item_acc.append(0.0)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                items_s = item_acc.pop()
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                qty = measure(args, result) if (measure and result is not None) else {}
                spans[idx] = [name, start, end, parent, items_s, rss_kb, qty]

        return wrapper

    def item_wrapper(self, name: str, fn):
        stat = self.items.setdefault(name, [0, 0.0, 0])
        item_acc = self._item_acc
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                dt = clock() - start
                stat[0] += 1
                stat[1] += dt
                if item_acc:
                    item_acc[-1] += dt

        return wrapper

    def install(self, package) -> None:
        """Rebind every traced function wherever the package binds it."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                                for m in ("curve", "semigroup", "families", "cli")]
        for kind, names in ((self.span_wrapper, SPANNED), (self.item_wrapper, PER_ITEM)):
            for full in names:
                mod_name, fn_name = full.split(".")
                original = getattr(getattr(package, mod_name), fn_name)
                wrapped = kind(full, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapped)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "items": self.items}


# ---------------------------------------------------------------------------
# Aggregation, run by the benchmark over the spans of one operation.

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list) -> list[float]:
    """Per span: duration minus the part its child spans cover, minus the
    per-item time credited to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, items_s, *_rest) in enumerate(spans):
        out.append(end - start - _covered(children.get(i, []), start, end) - items_s)
    return out


def summarize(trace: dict) -> dict[str, dict[str, float]]:
    """Per layer name: busy_s (outermost calls only), self_s, calls, the
    peak RSS in MB the process had reached when the layer returned, and the
    summed work-size quantities.  Per-item layers give calls, busy_s, failed."""
    spans = trace["spans"]
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _items, rss_kb, qty) in enumerate(spans):
        row = out.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "rss_mb": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        row["rss_mb"] = max(row["rss_mb"], rss_kb / 1024)
        outermost = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outermost = False
                break
            p = spans[p][3]
        if outermost:
            row["busy_s"] += end - start
        for key, value in qty.items():
            row[key] = row.get(key, 0) + value
    for name, (calls, busy_s, failed) in trace["items"].items():
        out[name] = {"calls": calls, "busy_s": busy_s, "failed": failed}
    return out


def main(argv: list[str]) -> int:
    spans_path, target = argv[0], argv[1:]
    import skabelund

    recorder = Recorder()
    recorder.install(skabelund)
    code = 0
    try:
        if target[0] == "-m":
            sys.argv = [target[1]] + target[2:]
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(target)
            runpy.run_path(target[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        recorder.restore()
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
