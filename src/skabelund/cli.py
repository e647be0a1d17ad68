"""Command-line front end: parameter reports, semigroup dumps, the
reference count table, and the cross-verification suite.

Output formats: human-aligned text (default), deterministic JSON
(``--format json``), and CSV for tabular payloads (``--format csv``).
Exit codes: 0 success, 1 verification failure, 2 usage error (also an
unwritable ``--out`` path), 3 internal error or exhausted memory.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from types import GeneratorType
from typing import BinaryIO, Iterator

from . import curve, semigroup
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
_BLOCK = 16384  # series items rendered per piece
_POWERS = tuple(10**w for w in range(1, 19))  # the least values of 2..19 digits
_TABLE1_COLUMNS = ("s", "F1", "F2", "F3", "F4", "F5", "F6", "F", "g")
_NO_WITNESS_CSV = "--witnesses payloads have no CSV form"

# Largest s per (emit, point class); payloads above these are either too
# large to serialise or too slow to build on purpose.
_CAPS = {
    "generators": {"rational": 6, "quartic": 6, "generic": 4},
    "apery": {"rational": 4, "quartic": 4, "generic": 4},
    "gaps": {"rational": 3, "quartic": 3, "generic": 3},
    "stats": {"rational": 6, "quartic": 6, "generic": 4},
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
        from . import families
    if point == "generic" and emit != "gaps":
        generic = families.generic_semigroup(p)
        profile, gens = generic.profile, generic.generators
        stats = semigroup.SemigroupStats.from_profile(profile)
    elif point == "generic":  # RuntimeError on a bad row end or genus, DuplicateGap or NotClosed
        profile, _ = families.kunz_counts(p)
    elif emit in ("apery", "gaps"):
        profile = curve.special_profile(p, point)
    elif emit == "generators":
        gens = (curve.rational_generators if point == "rational" else curve.quartic_generators)(p).gens
    else:
        stats = (curve.rational_apery_stats if point == "rational" else curve.quartic_apery_stats)(p)

    if witnesses:  # NoWitness for the least failing gap, before any byte is written
        bad, least = families.witness_faults(p)
        if bad:
            raise families._no_witness(p, least)
        payload["gaps"] = families.witness_windows(p)  # rendered once, see _witness_blocks
    elif emit == "gaps":
        payload["gaps"] = profile  # streamed from its Kunz coordinates, see _pieces
    elif emit == "apery":
        payload["apery"] = apery = profile.apery_array()
        apery.sort()
    else:
        payload[emit] = list(gens) if emit == "generators" else stats._asdict()
    return payload, 0


def cmd_table1(max_s: int) -> tuple[dict, int]:
    from . import families

    if not 1 <= max_s <= 4:
        raise UnsupportedCombination("table rows are available for s in 1..4")
    rows = []
    for s in range(1, max_s + 1):
        p = curve.make_params(s)
        _, counts = families.kunz_counts(p)
        row = [counts[fid] for fid in families.FamilyId]
        row += [sum(row), p.genus]
        rows.append(dict(zip(_TABLE1_COLUMNS, (s, *row))))
        if s in TABLE1:
            rows[-1]["reference_match"] = tuple(row) == TABLE1[s]
    payload = {"rows": rows}
    for row in rows:
        if row.get("reference_match") is False:
            got = tuple(row[k] for k in _TABLE1_COLUMNS[1:])
            exc = TableMismatch(f"row s={row['s']}: computed {got}, reference {TABLE1[row['s']]}")
            exc.report = payload  # type: ignore[attr-defined]
            raise exc
    return payload, 0


def _check(name: str, s: int, passed: bool, observed, expected, informational=False) -> dict:
    return {"name": name, "s": s, "passed": bool(passed), "observed": observed,
            "expected": expected, "informational": informational}


def cmd_verify(s_lo: int, s_hi: int) -> tuple[dict, int]:
    from . import families

    if not 1 <= s_lo <= s_hi <= 3:
        raise UnsupportedCombination("verify supports s ranges within 1..3")
    checks: list[dict] = []
    for s in range(s_lo, s_hi + 1):
        p = curve.make_params(s)

        # each check of the two special classes, rational first
        special = {"rational": semigroup.profile_from_generators(curve.rational_generators(p)),
                   "quartic": semigroup.profile_from_generators(curve.quartic_generators(p))}
        checks += [_check(f"{point}_genus", s, prof.genus == p.genus, prof.genus, p.genus)
                   for point, prof in special.items()]
        checks += [_check(f"{point}_symmetric", s, prof.conductor == 2 * p.genus,
                          prof.conductor, 2 * p.genus) for point, prof in special.items()]
        closed = {point: curve.special_profile(p, point) for point in special}
        checks += [_check(f"{point}_apery_agreement", s, closed[point] == prof,
                          "closed-form set", "shortest-path set") for point, prof in special.items()]

        offs = closed["quartic"].k  # phi(i) for every index i < g0
        head = offs[: (p.q - 1) ** 2 + 1]
        anti_ok = bool((head + head[::-1] == p.q - 1).all())
        checks.append(_check("phi_antisymmetry", s, anti_ok, "all indices", "q - 1"))
        phi_sum = int(offs.sum())
        checks.append(_check("phi_sum_genus", s, phi_sum == p.genus, phi_sum, p.genus))

        # family_disjointness and generic_genus report what kunz_counts certified by raising
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
            bad = families.witness_faults(p)[0]
            checks.append(_check("witnesses", s, bad == 0, f"{bad} invalid", "0 invalid"))

    hard_failures = [c for c in checks if not c["passed"] and not c["informational"]]
    payload = {"s_range": f"{s_lo}..{s_hi}", "checks": checks,
               "all_passed": not hard_failures}
    return payload, 1 if hard_failures else 0


# ---------------------------------------------------------------------------
# Rendering.

def render(kind: str, payload: dict, fmt: str, out: BinaryIO) -> None:
    """Write the report's ASCII bytes to the binary stream ``out`` piece by
    piece, with no whole report built."""
    out.writelines(_pieces(kind, payload, fmt))


def _pieces(kind: str, payload: dict, fmt: str) -> Iterator[bytes]:
    """The report as consecutive byte strings.  A semigroup report's trailing
    series goes out in blocks of _BLOCK: generators or an Apery set (a list
    or an array, read as one int64 array) and gaps (streamed from their Kunz
    coordinates) through :func:`_decimal`, witness records (the windows of
    :func:`skabelund.families.witness_windows`) through :func:`_witness_blocks`."""
    if fmt == "json":
        import json  # loaded for JSON reports only

    key, series = list(payload.items())[-1]
    witnesses = isinstance(series, GeneratorType)
    if witnesses and fmt == "csv":
        raise UnsupportedCombination(_NO_WITNESS_CSV)
    count = 0
    if kind == "semigroup" and key in ("generators", "apery"):
        import numpy as np

        series = np.asarray(series, dtype=np.int64)
        count, arrays = len(series), (series[i:i + _BLOCK] for i in range(0, len(series), _BLOCK))
    elif isinstance(series, semigroup.SemigroupProfile):
        count, arrays = series.genus, series.blocks(_BLOCK)
    if not (witnesses or count):
        writer = {"csv": _render_csv, "text": _render_text}.get(fmt)
        yield (writer(kind, payload) if writer else json.dumps(payload, indent=2) + "\n").encode()
        return

    sep, tail = "\n", "\n"
    if fmt == "json":
        # The bytes of json.dumps(payload, indent=2): its head ends at the series' "[]\n}".
        head = json.dumps({**payload, key: []}, indent=2)[:-4] + "[\n    "
        sep, tail = ",\n    ", "\n  ]\n}\n"
    elif fmt == "csv":
        head = "value\n"
    else:
        head = _render_text(kind, {k: v for k, v in payload.items() if k != key})
        if key == "generators":
            head, sep = head + "generators = ", " "
        elif not witnesses:
            head += f"{key} ({count} values):\n"

    blocks = (_witness_blocks(series, payload["q0"], fmt, sep) if witnesses
              else (_decimal(block, sep) for block in arrays))
    yield head.encode()
    for i, block in enumerate(blocks):
        if i:
            yield sep.encode()
        yield block
    yield tail.encode()


def _decimal(v: np.ndarray, sep: str) -> bytes:
    """sep.join(map(str, v)), as ASCII bytes, for a nondecreasing,
    nonnegative int64 array.

    The values of w digits are one run, cut by searchsorted.  A value's
    ceil(w / 4) four-digit words come from the table of :func:`_words`, its
    lowest word first and one x // 10000 before each next; the last w bytes
    of its words and then sep fill its record in the block's one buffer.
    """
    import numpy as np

    if v.size and (v[0] < 0 or (v[1:] < v[:-1]).any()):
        raise ValueError("a series must be nondecreasing and nonnegative")
    table, tail = _words(), sep.encode("ascii")
    cuts = [0, *v.searchsorted(_POWERS).tolist(), v.size]
    runs = [(w, lo, hi) for w, (lo, hi) in enumerate(zip(cuts, cuts[1:]), start=1) if lo < hi]
    buf, at = np.empty(sum((hi - lo) * (w + len(tail)) for w, lo, hi in runs), dtype=np.uint8), 0
    for w, lo, hi in runs:
        k, x = (w + 3) // 4, v[lo:hi]
        words = np.empty((hi - lo, k), dtype=np.uint32)
        for col in range(k - 1, 0, -1):  # mode "clip": "raise" would buffer the strided out
            q = x // 10000
            np.take(table, x - 10000 * q, out=words[:, col], mode="clip")
            x = q
        np.take(table, x, out=words[:, 0], mode="clip")
        run = buf[at:at + (hi - lo) * (w + len(tail))].view([("d", f"V{w}"), ("s", f"V{len(tail)}")])
        run["d"] = words.view(np.uint8)[:, 4 * k - w:].view(f"V{w}")[:, 0]
        run["s"] = np.void(tail)
        at += run.nbytes
    return buf[:buf.size - len(tail)].tobytes()


@functools.cache
def _words() -> np.ndarray:
    """The 10**4 ASCII words "0000".."9999", one uint32 each: word i holds
    the four digits of i.  Built on the first series a process writes."""
    import numpy as np

    words = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for place in range(4):  # digit `place` of i varies along axis `place`
        words[..., place] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - place))
    words = words.view(np.uint32).reshape(-1)
    words.flags.writeable = False
    return words


def _witness_blocks(windows: Iterator[np.ndarray], q0: int, fmt: str, sep: str) -> Iterator[bytes]:
    """The records of each witness window in blocks of _BLOCK // 32
    (:func:`_records`): the bytes json.dumps(indent=2) gives the old record
    dicts inside the payload (``fmt`` "json"), or the text line."""
    from . import families

    nb, ne = 2 * q0 - 2, q0 - 1
    if fmt == "json":
        import json

        d = "%d"
        lists = {"b": [d] * nb, "e": [d] * ne}
        record = {"value": d, "family": "F%d",
                  "params": dict.fromkeys(families.FamilyParams._fields, d),
                  "witness": {name: lists.get(name, d) for name in families.WitnessVector._fields}}
        template = json.dumps(record, indent=2).replace('"%d"', d).replace("\n", "\n    ")
        rows = slice(None)
    else:
        b, e = ", ".join(["%d"] * nb), ", ".join(["%d"] * ne)
        template = f"gap %d family=F%d witness a=(%d,%d,%d,%d) b=[{b}] c=%d d=%d e=[{e}] f=%d"
        # window rows: value, family, seed a1..a4 (12..15), b, c, d, e (17..), f (16)
        rows = [0, 1, 12, 13, 14, 15, *range(17, 19 + nb + ne), 16]
    step = max(1, _BLOCK // 32)  # 512: the digit passes then stay in cache
    for window in windows:
        for i in range(0, window.shape[1], step):
            yield _records(window[rows, i:i + step], template.split("%d"), sep)
        del window  # before the next window is built


def _records(x: np.ndarray, literals: list[str], sep: str) -> bytes:
    """sep.join(template % tuple(r) for r in x.T), template = "%d".join(literals),
    as ASCII bytes, for a (k, n) nonnegative int64 array.  One uint8 row per
    record holds the literal bytes and each field's places, as many as its
    column's widest value; w passes of x // 10 write a w-digit field, last
    digit first, and the places above a value's own digits keep the pad byte
    0, dropped at the end."""
    import numpy as np

    if x.size and x.min() < 0:
        raise ValueError("record fields must be nonnegative")
    widths = np.searchsorted(_POWERS, x.max(axis=1, initial=0), side="right") + 1
    lits = [part.encode("ascii") for part in literals[:-1]] + [(literals[-1] + sep).encode("ascii")]
    row = b"".join(lit + bytes(w) for lit, w in zip(lits, widths.tolist())) + lits[-1]
    ends = np.cumsum([len(lit) for lit in lits[:-1]]) + np.cumsum(widths) - 1  # last digits
    order = np.argsort(-widths, kind="stable")  # the fields still to write are a prefix
    x, ends, widths = x[order], ends[order], widths[order]
    out = np.broadcast_to(np.frombuffer(row, dtype=np.uint8), (x.shape[1], len(row))).copy()
    for place in range(widths.max(initial=0)):
        x = x[:np.count_nonzero(widths > place)]
        q = x // 10
        digit = x - 10 * q + ord("0")
        if place:
            digit *= x > 0  # above the value's own digits: pad
        out[:, ends[:len(x)] - place] = digit.T
        x = q
    text = out.tobytes().replace(b"\0", b"")
    return text[:len(text) - len(sep)]


def _render_csv(kind: str, payload: dict) -> str:
    """One header line over the records' keys, then one line per record."""
    if kind == "table1":
        keys, records = _TABLE1_COLUMNS, payload["rows"]
    else:  # the verify checks, or the one stats or params record
        records = payload["checks"] if kind == "verify" else [payload.get("stats", payload)]
        keys = records[0].keys()
    lines = [",".join(keys)]
    lines.extend(",".join(str(record[k]) for k in keys) for record in records)
    return "\n".join(lines) + "\n"


def _render_text(kind: str, payload: dict) -> str:
    lines = []
    if kind == "params":
        lines.extend(f"{k:>5} = {v}" for k, v in payload.items())
    elif kind == "table1":
        lines.append("".join(h.rjust(8) for h in _TABLE1_COLUMNS))
        for row in payload["rows"]:
            lines.append("".join(str(row[h]).rjust(8) for h in _TABLE1_COLUMNS))
    elif kind == "verify":
        for c in payload["checks"]:
            status = "PASS" if c["passed"] else "FAIL"
            if c["informational"]:
                status = "info" if c["passed"] else "INFO-FAIL"
            lines.append(f"[{status}] s={c['s']} {c['name']}: "
                         f"observed={c['observed']} expected={c['expected']}")
        lines.append(f"all_passed = {payload['all_passed']}")
    else:
        # a semigroup report without its series; the stats dict is listed flat
        for k, v in payload.items():
            pairs = v.items() if isinstance(v, dict) else [(k, v)]
            lines.extend(f"{name} = {value}" for name, value in pairs)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Argument handling.

def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) <= 2 and all(part.isdigit() for part in parts):
        return int(parts[0]), int(parts[-1])
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
    # the program makes no BLAS call (its only matrix products are integer), so
    # OpenBLAS, read when numpy loads, gets one thread unless the caller chose
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        kind = args.command
        if kind == "params":
            payload, code = cmd_params(args.s)
        elif kind == "semigroup":
            if args.witnesses and args.format == "csv":  # before the witnesses are certified
                raise UnsupportedCombination(_NO_WITNESS_CSV)
            payload, code = cmd_semigroup(args.s, args.point, args.emit, args.witnesses)
        elif kind == "table1":
            payload, code = cmd_table1(args.max_s)
        else:
            payload, code = cmd_verify(*args.s)
        return _emit(kind, payload, args.format, args.out) or code
    except TableMismatch as exc:
        report = getattr(exc, "report", None)
        failed = report is not None and _emit("table1", report, args.format, args.out)
        print(f"error: {exc}", file=sys.stderr)
        return failed or 1
    except (UnsupportedS, UnsupportedCombination) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SkabelundError, RuntimeError, ValueError, MemoryError) as exc:
        print(f"internal error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3


def _emit(kind: str, payload: dict, fmt: str, out_path: str | None) -> int:
    """Write the report; 0, also when the reader closes stdout early
    (``| head``), or the usage-error code 2 when PATH cannot be written.
    A report that fails partway leaves no partial PATH behind."""
    if out_path is None:
        try:
            sys.stdout.flush()  # the text layer first, then the report's bytes below it
            render(kind, payload, fmt, out=sys.stdout.buffer)
            sys.stdout.buffer.flush()
        except BrokenPipeError:
            # as the signal module docs advise, so the flush at exit does not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    fh = None
    try:
        with open(out_path, "wb") as fh:
            render(kind, payload, fmt, out=fh)
    except BaseException as exc:
        # a regular file this run opened; never a device or a link such as /dev/stdout
        if fh is not None and os.path.isfile(out_path) and not os.path.islink(out_path):
            os.remove(out_path)
        if not isinstance(exc, OSError):
            raise
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
