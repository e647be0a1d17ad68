"""Workloads of the `skab` benchmark and the checks on their outputs.

A workload is a fixed list of operations.  Each operation runs in a fresh
interpreter: either the CLI (``python -m skabelund ARGS``) or the library
script ``engine_op.py``.  The benchmark seed only shuffles the order and
picks the witness spot-check sample; operations never see it.

Why these three (see also BENCHMARK.json):

* ``generic-s3`` is the value path at s = 3: family enumeration into the
  bitset, Apery extraction with sampled closure, the FFT minimal-generator
  sumset, and a 12.5 MB JSON render.  The Dijkstra engine, the closed forms
  and the witnesses are never called.
* ``certify`` is the record path: ``verify --s 1..3`` (engine, closed forms,
  scalar ``phi``, full bitset closure at s <= 2, witnesses at s <= 2) and a
  nested-JSON witness dump at s = 2.
* ``special-large-s`` is the closed-form path at s = 4..6 (chunked stats,
  ``phi`` per Apery index, special gap dumps) plus the engine at s = 4.
  ``families`` is never called.

The s = 3 ``gaps --witnesses --format json`` dump is left out: it raises
MemoryError under a 6 GB address-space limit and would put a shared
machine at risk until it streams its output.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One operation: CLI arguments, or arguments of ``engine_op.py``."""

    args: tuple[str, ...]
    library: bool = False

    @property
    def label(self) -> str:
        return ("engine_op " if self.library else "skab ") + " ".join(self.args)

    def argv(self, bench_dir) -> list[str]:
        if self.library:
            return [str(bench_dir / "engine_op.py"), *self.args]
        return ["-m", "skabelund", *self.args]


def _cli(*args) -> Op:
    return Op(tuple(str(a) for a in args))


def _semigroup(s: int, point: str, emit: str, *extra: str) -> Op:
    return _cli("semigroup", "--s", s, "--point", point, "--emit", emit, *extra)


def workloads(small: bool = False) -> dict[str, list[Op]]:
    """The operation lists; ``small`` shrinks every size to s = 1."""

    def s(n: int) -> int:
        return 1 if small else n

    return {
        "generic-s3": [
            _cli("table1", "--max-s", s(3), "--format", "json"),
            _semigroup(s(3), "generic", "stats"),
            _semigroup(s(3), "generic", "generators"),
            _semigroup(s(3), "generic", "gaps", "--format", "json"),
        ],
        "certify": [
            _cli("verify", "--s", f"1..{s(3)}", "--format", "json"),
            _semigroup(s(2), "generic", "gaps", "--witnesses", "--format", "json"),
        ],
        "special-large-s": [
            _semigroup(s(6), "quartic", "stats"),
            _semigroup(s(5), "quartic", "stats"),
            _semigroup(s(6), "rational", "stats"),
            _semigroup(s(4), "quartic", "apery", "--format", "json"),
            _semigroup(s(3), "quartic", "gaps", "--format", "json"),
            Op(("--s", str(s(4))), library=True),
        ],
    }


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.

WITNESS_SAMPLE = 300


def _curve(s: int) -> dict[str, int]:
    q0 = 2**s
    q = 2 * q0 * q0
    return {"q0": q0, "q": q, "genus": q * (q - 1) ** 2 // 2,
            "rational_m": q * q - 2 * q0 * q + q, "quartic_m": q * q - q + 1}


def _arg(args: tuple[str, ...], flag: str) -> str | None:
    return args[args.index(flag) + 1] if flag in args else None


def _increasing(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def _key_values(text: str) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    return {k.strip(): v for k, v in pairs}


def _frobenius(c: dict[str, int], point: str) -> int:
    # Special points are symmetric (largest gap 2g - 1); the generic
    # families top out at q^3 - 2q^2 + 1 = 2g - (q - 1).
    return 2 * c["genus"] - (c["q"] - 1 if point == "generic" else 1)


def _witness_cost(c: dict[str, int], w: dict) -> tuple[int, int]:
    """(valuation at the point, pole order at infinity) of a witness
    monomial, from the building-block table of the curve."""
    q0, q = c["q0"], c["q"]
    big = q * q + 1
    val = w["a1"] + w["a2"] * q0 + w["a3"] * 2 * q0 + w["a4"] * q + w["f"] * q * q
    pole = (w["a1"] * (q * q - 2 * q0 * q + q) + w["a2"] * (q * q - q0 * q + q0)
            + w["a3"] * (q * q - q + 2 * q0) + (w["a4"] + w["f"]) * big)
    val += w["c"] * (q0 * q + q0) + w["d"] * (2 * q0 * q + 2 * q0 + 1)
    pole += (w["c"] * q0 + w["d"] * 2 * q0) * big
    for n, exp in enumerate(w["b"], start=1):
        val += exp * (n + 1) * q0 * q
        pole += exp * ((n + 1) * q0 - n) * big
    for n, exp in enumerate(w["e"]):
        val += exp * ((2 * n + 1) * q0 * q + n + 1)
        pole += exp * ((2 * n + 1) * q0 - n) * big
    return val, pole


def _check_table1(op: Op, text: str, rng) -> list[str]:
    problems = []
    rows = json.loads(text)["rows"]
    if [r["s"] for r in rows] != list(range(1, int(_arg(op.args, "--max-s")) + 1)):
        problems.append("table1: wrong rows")
    for r in rows:
        g = _curve(r["s"])["genus"]
        if not r["F"] == r["g"] == g == sum(r[f"F{i}"] for i in range(1, 7)):
            problems.append(f"table1: row s={r['s']} does not add up to the genus {g}")
        if r["s"] <= 2 and r.get("reference_match") is not True:
            problems.append(f"table1: row s={r['s']} reference_match is not true")
    return problems


def _check_verify(op: Op, text: str, rng) -> list[str]:
    payload = json.loads(text)
    failed = [c["name"] for c in payload["checks"] if not c["passed"] and not c["informational"]]
    if payload["all_passed"] is not True or failed:
        return [f"verify: all_passed={payload['all_passed']}, failed {failed[:5]}"]
    return []


def _check_semigroup(op: Op, text: str, rng) -> list[str]:
    s = int(_arg(op.args, "--s"))
    point, emit = _arg(op.args, "--point"), _arg(op.args, "--emit")
    c = _curve(s)
    g = c["genus"]
    if _arg(op.args, "--format") == "json":
        payload = json.loads(text)
    else:
        payload = _key_values(text)
        payload = {k: (int(v) if v.lstrip("-").isdigit() else v) for k, v in payload.items()}
    problems = []
    if (payload["s"], payload["q"], payload["genus"]) != (s, c["q"], g):
        problems.append(f"header {payload['s']}, {payload['q']}, {payload['genus']}")
    expected_m = c.get(f"{point}_m")

    if emit == "stats":
        stats = payload["stats"] if "stats" in payload else payload
        if stats["genus"] != g:
            problems.append(f"stats genus {stats['genus']} != q(q-1)^2/2 = {g}")
        if stats["frobenius"] != _frobenius(c, point) or stats["conductor"] != stats["frobenius"] + 1:
            problems.append(f"stats frobenius {stats['frobenius']}, conductor {stats['conductor']}")
        if str(stats["symmetric"]) != str(point != "generic"):
            problems.append(f"stats symmetric {stats['symmetric']}")
        if expected_m is not None and stats["multiplicity"] != expected_m:
            problems.append(f"stats multiplicity {stats['multiplicity']} != {expected_m}")
    elif emit == "generators":
        gens = [int(v) for v in str(payload["generators"]).split()]
        if not gens or not _increasing(gens) or gens[0] < 2 or math.gcd(*gens) != 1:
            problems.append("generators are not increasing with gcd 1")
    elif emit == "apery":
        apery = payload["apery"]
        m = len(apery)
        if m != expected_m or sorted(v % m for v in apery) != list(range(m)):
            problems.append("apery set does not hit each residue once")
        elif sum(v // m for v in apery) != g or max(apery) - m + 1 != 2 * g:
            problems.append("apery set genus or conductor wrong")
    elif emit == "gaps":
        items = payload["gaps"]
        values = [it["value"] for it in items] if "--witnesses" in op.args else items
        if len(values) != g or not _increasing(values) or values[0] != 1:
            problems.append(f"{len(values)} gaps, expected {g} increasing from 1")
        elif values[-1] != _frobenius(c, point):
            problems.append(f"largest gap {values[-1]} != {_frobenius(c, point)}")
        if "--witnesses" in op.args:
            for i in rng.sample(range(len(items)), min(WITNESS_SAMPLE, len(items))):
                it = items[i]
                val, pole = _witness_cost(c, it["witness"])
                if val != it["value"] - 1 or pole > 2 * g - 2 or it["family"] not in (
                        "F1", "F2", "F3", "F4", "F5", "F6"):
                    problems.append(f"witness of gap {it['value']}: valuation {val}, pole {pole}")
                    break
    return [f"semigroup {point} {emit}: {p}" for p in problems]


def _check_engine(op: Op, text: str, rng) -> list[str]:
    c = _curve(int(_arg(op.args, "--s")))
    lines = text.splitlines()
    problems = []
    if [ln.split()[0] for ln in lines] != ["rational", "quartic"]:
        return [f"engine_op: unexpected output {lines[:2]}"]
    for line in lines:
        point = line.split()[0]
        kv = dict(item.split("=") for item in line.split()[1:])
        if (int(kv["genus"]), int(kv["conductor"]), int(kv["multiplicity"])) != (
                c["genus"], 2 * c["genus"], c[f"{point}_m"]):
            problems.append(f"engine_op {point}: {line}")
        if kv["closed_form_agrees"] != "True":
            problems.append(f"engine_op {point}: engine and closed form disagree")
    return problems


def check_output(op: Op, stdout: bytes, rng: random.Random) -> list[str]:
    """Invariants of one operation's stdout; an exception counts as a problem."""
    checker = _check_engine if op.library else {
        "table1": _check_table1, "verify": _check_verify, "semigroup": _check_semigroup,
    }[op.args[0]]
    try:
        return checker(op, stdout.decode("ascii"), rng)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{op.label}: unreadable output ({exc.__class__.__name__}: {exc})"]
