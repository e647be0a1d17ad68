"""Command-line front end: parameter reports, semigroup dumps, the
reference count table, and the cross-verification suite.

Output formats: human-aligned text (default), deterministic JSON
(``--format json``), and CSV for tabular payloads (``--format csv``).
Exit codes: 0 success, 1 verification failure, 2 usage error (also an
unwritable ``--out`` path), 3 internal arithmetic error or exhausted memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator

import numpy as np

from . import curve, families, semigroup
from .errors import (
    SkabelundError,
    TableMismatch,
    UnsupportedCombination,
    UnsupportedS,
)

# Reference per-family gap counts (columns F1..F6, F, g) for the two sizes
# small enough to tabulate by hand.
TABLE1 = {
    1: (146, 31, 8, 0, 9, 2, 196, 196),
    2: (12584, 2393, 192, 96, 87, 24, 15376, 15376),
}

_POINTS = ("rational", "quartic", "generic")
_EMITS = ("generators", "apery", "gaps", "stats")
_BLOCK = 65536  # series items rendered per join

# Largest s per (emit, point class); payloads above these are either too
# large to serialise or too slow to build on purpose.
_CAPS = {
    "generators": {"rational": 6, "quartic": 6, "generic": 3},
    "apery": {"rational": 4, "quartic": 4, "generic": 3},
    "gaps": {"rational": 3, "quartic": 3, "generic": 3},
    "stats": {"rational": 6, "quartic": 6, "generic": 3},
}


def _special_profile(p, point: str) -> semigroup.SemigroupProfile:
    gens = curve.rational_generators(p) if point == "rational" else curve.quartic_generators(p)
    return semigroup.profile_from_generators(gens)


def _stats_payload(stats: semigroup.SemigroupStats) -> dict:
    return {
        "multiplicity": stats.multiplicity,
        "genus": stats.genus,
        "conductor": stats.conductor,
        "frobenius": stats.frobenius,
        "symmetric": stats.symmetric,
    }


def cmd_params(s: int) -> tuple[dict, int]:
    p = curve.make_params(s)
    return {"s": p.s, "q0": p.q0, "q": p.q, "genus": p.genus}, 0


def cmd_semigroup(s: int, point: str, emit: str, witnesses: bool = False) -> tuple[dict, int]:
    p = curve.make_params(s)
    if s > _CAPS[emit][point]:
        raise UnsupportedCombination(
            f"--emit {emit} for {point} points is supported up to s = {_CAPS[emit][point]}"
        )
    if witnesses and not (point == "generic" and emit == "gaps"):
        raise UnsupportedCombination("--witnesses applies only to generic gaps")

    payload: dict = {"s": p.s, "q0": p.q0, "q": p.q, "genus": p.genus,
                     "point": point, "emit": emit}

    if point == "generic":
        if emit == "gaps":
            if witnesses:
                families.gap_mask(p)  # RuntimeError or DuplicateGap on a bad family value
                table = families.witness_table(p)
                table.require_valid()
                payload["gaps"] = table  # rendered record by record, see _witness_blocks
            else:
                gaps, _ = families.gap_mask(p)
                payload["gaps"] = gaps.nonzero()[0].tolist()
        else:
            generic = families.generic_semigroup(p)
            if emit == "stats":
                stats = semigroup.SemigroupStats.from_profile(generic.profile)
                payload["stats"] = _stats_payload(stats)
            elif emit == "apery":
                payload["apery"] = sorted(generic.profile.apery)
            else:
                payload["generators"] = list(generic.generators)
        return payload, 0

    if emit == "generators":
        gens = curve.rational_generators(p) if point == "rational" else curve.quartic_generators(p)
        payload["generators"] = list(gens.gens)
    elif emit == "apery":
        apery = curve.rational_apery(p) if point == "rational" else curve.quartic_apery(p)
        payload["apery"] = sorted(apery)
    elif emit == "gaps":
        payload["gaps"] = list(semigroup.gaps_of(_special_profile(p, point)).gaps)
    else:
        stats_of = curve.rational_apery_stats if point == "rational" else curve.quartic_apery_stats
        payload["stats"] = _stats_payload(stats_of(p))
    return payload, 0


def cmd_table1(max_s: int) -> tuple[dict, int]:
    if not 1 <= max_s <= 3:
        raise UnsupportedCombination("table rows are available for s in 1..3")
    rows = []
    mismatches = []
    for s in range(1, max_s + 1):
        p = curve.make_params(s)
        _, counts = families.gap_mask(p)
        row = [counts[fid] for fid in families.FamilyId]
        row += [sum(row), p.genus]
        entry = {"s": s, "F1": row[0], "F2": row[1], "F3": row[2], "F4": row[3],
                 "F5": row[4], "F6": row[5], "F": row[6], "g": row[7]}
        if s in TABLE1:
            expected = TABLE1[s]
            entry["reference_match"] = tuple(row) == expected
            if not entry["reference_match"]:
                mismatches.append((s, tuple(row), expected))
        rows.append(entry)
    payload = {"rows": rows}
    if mismatches:
        s, got, want = mismatches[0]
        exc = TableMismatch(f"row s={s}: computed {got}, reference {want}")
        exc.report = payload  # type: ignore[attr-defined]
        raise exc
    return payload, 0


def _check(name: str, s: int, passed: bool, observed, expected, informational=False) -> dict:
    return {"name": name, "s": s, "passed": bool(passed), "observed": observed,
            "expected": expected, "informational": informational}


def cmd_verify(s_lo: int, s_hi: int) -> tuple[dict, int]:
    if not 1 <= s_lo <= s_hi <= 3:
        raise UnsupportedCombination("verify supports s ranges within 1..3")
    checks: list[dict] = []
    for s in range(s_lo, s_hi + 1):
        p = curve.make_params(s)

        rational = _special_profile(p, "rational")
        quartic = _special_profile(p, "quartic")
        checks.append(_check("rational_genus", s, rational.genus == p.genus,
                             rational.genus, p.genus))
        checks.append(_check("quartic_genus", s, quartic.genus == p.genus,
                             quartic.genus, p.genus))
        checks.append(_check("rational_symmetric", s, rational.conductor == 2 * p.genus,
                             rational.conductor, 2 * p.genus))
        checks.append(_check("quartic_symmetric", s, quartic.conductor == 2 * p.genus,
                             quartic.conductor, 2 * p.genus))
        checks.append(_check("rational_apery_agreement", s,
                             curve.rational_apery(p) == frozenset(rational.apery),
                             "closed-form set", "shortest-path set"))
        checks.append(_check("quartic_apery_agreement", s,
                             curve.quartic_apery(p) == frozenset(quartic.apery),
                             "closed-form set", "shortest-path set"))

        offs = curve.phi_values(p, np.arange(curve.quartic_multiplicity(p)))
        head = offs[: (p.q - 1) ** 2 + 1]
        anti_ok = bool((head + head[::-1] == p.q - 1).all())
        checks.append(_check("phi_antisymmetry", s, anti_ok, "all indices", "q - 1"))
        phi_sum = int(offs.sum())
        checks.append(_check("phi_sum_genus", s, phi_sum == p.genus, phi_sum, p.genus))

        generic = families.generic_semigroup(p)
        total = sum(generic.counts.values())
        checks.append(_check("family_disjointness", s, generic.profile.genus == total,
                             generic.profile.genus, total))
        checks.append(_check("family_totality", s, total == p.genus, total, p.genus))
        for fid in families.FamilyId:
            closed = families.family_count_closed_form(p, fid)
            checks.append(_check(f"closed_form_{fid.name}", s, generic.counts[fid] == closed,
                                 generic.counts[fid], closed, informational=s <= 2))

        # Closure is exact at every s; s = 3 keeps its old label, pinned by bench/digests.json.
        closure = "generic_closure_sampled" if s == 3 else "generic_closure_full"
        checks.append(_check(closure, s, True, "closed", "closed"))
        checks.append(_check("generic_genus", s, generic.profile.genus == p.genus,
                             generic.profile.genus, p.genus))

        if s <= 2:
            bad = int((~families.witness_table(p).valid).sum())
            checks.append(_check("witnesses", s, bad == 0, f"{bad} invalid", "0 invalid"))

    hard_failures = [c for c in checks if not c["passed"] and not c["informational"]]
    payload = {"s_range": f"{s_lo}..{s_hi}", "checks": checks,
               "all_passed": not hard_failures}
    return payload, 1 if hard_failures else 0


# ---------------------------------------------------------------------------
# Rendering.

def render(kind: str, payload: dict, fmt: str) -> str:
    if fmt == "csv":
        return _render_csv(kind, payload)
    if fmt != "json":
        return _render_text(kind, payload)
    key, series = list(payload.items())[-1]
    if isinstance(series, families.WitnessTable):
        blocks = _witness_blocks(series, "json")
    elif isinstance(series, list) and series and type(series[0]) is int:
        blocks = (",\n    ".join(map(str, series[i:i + _BLOCK])) for i in range(0, len(series), _BLOCK))
    else:
        return json.dumps(payload, indent=2) + "\n"
    # The bytes of json.dumps(payload, indent=2), without one string per item
    # alive at once (90 MB for the s = 3 gaps): the series joins in blocks.
    head = json.dumps({**payload, key: []}, indent=2)[:-4]  # drops the series' "[]\n}"
    return "".join((head, "[\n    ", ",\n    ".join(blocks), "\n  ]\n}\n"))


def _witness_blocks(table: families.WitnessTable, fmt: str) -> Iterator[str]:
    """The records of a witness table in blocks of _BLOCK, each record one
    %-template over its columns: the bytes json.dumps(indent=2) gives the
    old record dicts inside the payload (``fmt`` "json"), or the text line."""
    nb, ne = 2 * table.p.q0 - 2, table.p.q0 - 1
    if fmt == "json":
        d = "%d"
        record = {"value": d, "family": "F%d",
                  "params": dict.fromkeys(("a1", "a2", "a3", "a4", "f", "n", "c", "d", "sigma", "nu"), d),
                  "witness": {"a1": d, "a2": d, "a3": d, "a4": d, "f": d,
                              "b": [d] * nb, "c": d, "d": d, "e": [d] * ne}}
        template = json.dumps(record, indent=2).replace('"%d"', d).replace("\n", "\n    ")
        rows, sep = slice(None), ",\n    "
    else:
        b, e = ", ".join(["%d"] * nb), ", ".join(["%d"] * ne)
        template = f"gap %d family=F%d witness a=(%d,%d,%d,%d) b=[{b}] c=%d d=%d e=[{e}] f=%d"
        # WitnessTable rows: value, family, seed a1..a4 (12..15), b, c, d, e (17..), f (16)
        rows, sep = [0, 1, 12, 13, 14, 15, *range(17, 19 + nb + ne), 16], "\n"
    for i in range(0, table.columns.shape[1], _BLOCK):
        block = table.columns[rows, i:i + _BLOCK].T.tolist()
        yield sep.join([template % tuple(r) for r in block])


def _render_csv(kind: str, payload: dict) -> str:
    lines = []
    if kind == "table1":
        lines.append("s,F1,F2,F3,F4,F5,F6,F,g")
        for row in payload["rows"]:
            lines.append(",".join(str(row[k]) for k in ("s", "F1", "F2", "F3", "F4", "F5", "F6", "F", "g")))
    elif kind == "params":
        lines.append("s,q0,q,genus")
        lines.append(",".join(str(payload[k]) for k in ("s", "q0", "q", "genus")))
    elif kind == "verify":
        lines.append("name,s,passed,observed,expected,informational")
        for c in payload["checks"]:
            lines.append(f"{c['name']},{c['s']},{c['passed']},{c['observed']},"
                         f"{c['expected']},{c['informational']}")
    elif "stats" in payload:
        stats = payload["stats"]
        lines.append("multiplicity,genus,conductor,frobenius,symmetric")
        lines.append(",".join(str(stats[k]) for k in
                              ("multiplicity", "genus", "conductor", "frobenius", "symmetric")))
    else:
        series = payload.get("generators") or payload.get("apery") or payload.get("gaps") or []
        if isinstance(series, families.WitnessTable):
            raise UnsupportedCombination("--witnesses payloads have no CSV form")
        lines.append("value")
        lines.extend(str(v) for v in series)
    return "\n".join(lines) + "\n"


def _render_text(kind: str, payload: dict) -> str:
    lines = []
    if kind == "params":
        for k in ("s", "q0", "q", "genus"):
            lines.append(f"{k:>5} = {payload[k]}")
    elif kind == "table1":
        header = ("s", "F1", "F2", "F3", "F4", "F5", "F6", "F", "g")
        widths = [max(len(h), 8) for h in header]
        lines.append("".join(h.rjust(w) for h, w in zip(header, widths)))
        for row in payload["rows"]:
            lines.append("".join(str(row[h]).rjust(w) for h, w in zip(header, widths)))
    elif kind == "verify":
        for c in payload["checks"]:
            status = "PASS" if c["passed"] else "FAIL"
            if c["informational"]:
                status = "info" if c["passed"] else "INFO-FAIL"
            lines.append(f"[{status}] s={c['s']} {c['name']}: "
                         f"observed={c['observed']} expected={c['expected']}")
        lines.append(f"all_passed = {payload['all_passed']}")
    else:
        for k in ("s", "q0", "q", "genus", "point", "emit"):
            lines.append(f"{k} = {payload[k]}")
        if "stats" in payload:
            for k, v in payload["stats"].items():
                lines.append(f"{k} = {v}")
        elif "generators" in payload:
            lines.append("generators = " + " ".join(map(str, payload["generators"])))
        else:
            series = payload.get("apery") if "apery" in payload else payload.get("gaps")
            key = "apery" if "apery" in payload else "gaps"
            if isinstance(series, families.WitnessTable):
                lines.extend(_witness_blocks(series, "text"))
            else:
                lines.append(f"{key} ({len(series)} values):")
                lines.extend(str(v) for v in series)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Argument handling.

def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) == 1 and parts[0].isdigit():
        return int(parts[0]), int(parts[0])
    if len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
        return int(parts[0]), int(parts[1])
    raise argparse.ArgumentTypeError(f"expected N or N..M, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text",
                        help="output format (default: text)")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")

    parser = argparse.ArgumentParser(
        prog="skab",
        description="Weierstrass semigroups at the three point classes of the "
                    "Skabelund curve over F_{q^4}, q = 2*q0^2, q0 = 2^s.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", parents=[common],
                              help="echo curve parameters for an exponent s")
    p_params.add_argument("--s", type=int, required=True)

    p_semi = sub.add_parser("semigroup", parents=[common],
                            help="dump generators, Apery set, gaps or stats "
                                 "for one point class")
    p_semi.add_argument("--s", type=int, required=True)
    p_semi.add_argument("--point", choices=_POINTS, required=True)
    p_semi.add_argument("--emit", choices=_EMITS, required=True)
    p_semi.add_argument("--witnesses", action="store_true",
                        help="attach family data and witness exponents to "
                             "generic gaps")

    p_table = sub.add_parser("table1", parents=[common],
                             help="reproduce the per-family gap counts and "
                                  "compare against the reference rows")
    p_table.add_argument("--max-s", type=int, default=2)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the full cross-verification suite")
    p_verify.add_argument("--s", type=_parse_range, default=(1, 2), metavar="N..M")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "params":
            kind, (payload, code) = "params", cmd_params(args.s)
        elif args.command == "semigroup":
            kind, (payload, code) = "semigroup", cmd_semigroup(
                args.s, args.point, args.emit, args.witnesses)
        elif args.command == "table1":
            kind, (payload, code) = "table1", cmd_table1(args.max_s)
        else:
            kind, (payload, code) = "verify", cmd_verify(*args.s)
        return _emit(render(kind, payload, args.format), args.out) or code
    except TableMismatch as exc:
        report = getattr(exc, "report", None)
        failed = report is not None and _emit(render("table1", report, args.format), args.out)
        print(f"error: {exc}", file=sys.stderr)
        return failed or 1
    except (UnsupportedS, UnsupportedCombination, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SkabelundError, MemoryError) as exc:
        print(f"internal error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3


def _emit(text: str, out_path: str | None) -> int:
    """Write the report; 0, or the usage-error code 2 when PATH cannot be written."""
    if out_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
