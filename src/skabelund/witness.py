"""Gap witnesses at generic points: their certificate, and the records of
the ``--witnesses`` dump.

A gap of family tuple t is nu + offset, witnessed by x^a1 y^a2 z^a3 w^a4
pi^f times the block monomial that :func:`skabelund.families._family` lists
beside its offset, with the vanishing and pole orders of
:func:`skabelund.params.pole_order_table`.  :func:`witness_faults` checks
every witness with two tests per outer tuple of a family;
:func:`witness_windows` gives the records (every gap with its family,
parameters and witness) as int64 columns, one value window at a time, and
:func:`_witness_blocks` writes them as the dump's JSON or text bytes.

Only ``verify`` (at s <= 2), the ``--witnesses`` dump,
:func:`skabelund.families.gap_witness` and
:func:`skabelund.families.enumerate_all` load this module, so the generic
value path never compiles it.  It reads the family tables as attributes of
:mod:`skabelund.families` when it runs, so the certificate, the windows and
:func:`~skabelund.families.gap_witness` always read the same tables.
"""

from __future__ import annotations

from typing import Iterator

# families first: a run that loads this module first then compiles both
# before numpy loads, which keeps their compile memory out of its peak RSS
from . import families
from .errors import NoWitness
from .params import CurveParams, pole_order_table

import numpy as np


def _axes(p: CurveParams) -> np.ndarray:
    """Vanishing order (row 0) and pole order (row 1) of each building block,
    in seed order: x, y, z, w, pi, h_1.., f1, f2, g_0.."""
    t = pole_order_table(p)
    return np.array([t.x, t.y, t.z, t.w, t.pi, *t.h, t.f1, t.f2, *t.g], dtype=np.int64).T


def _is_witness(p: CurveParams, value: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Per column: valuation value - 1 and pole cost within 2g - 2."""
    valuation, pole = _axes(p) @ seed
    return (valuation == value - 1) & (pole <= p.two_g_minus_2)


def _no_witness(p: CurveParams, value: int) -> NoWitness:
    return NoWitness(f"no witness for value {value} within pole budget {p.two_g_minus_2}")


def witness_faults(p: CurveParams) -> tuple[int, int | None]:
    """The number of gaps whose witness fails and the least of them (None if
    none), from two tests per outer tuple of each family
    (:func:`skabelund.families._family`), exact for every gap.  A tuple's
    gaps are nu + offset, witnessed by x^a1 y^a2 z^a3 w^a4 pi^f times its
    block monomial: all have valuation value - 1 iff the monomial has
    offset - 1.  w and pi share one pole order, so its gaps fail from some
    a4 + f = T on: in F1 the u + 1 gaps with a4 + f = u, the least with
    a4 = T and f = 0; F2..F6 fix a4 + f, so the whole tuple fails, the least
    gap at its largest a4.
    """
    q0, q, axes = p.q0, p.q, _axes(p)
    if axes[0, :5].tolist() != [1, q0, 2 * q0, q, q * q] or axes[1, 3] != axes[1, 4]:
        raise RuntimeError("x, y, z, w, pi are not the building blocks that nu assumes")
    bad, least = 0, []
    for fid in families.FamilyId:
        t, sigma, a4cap, offset, mono = families._family(p, fid)
        zero = np.zeros_like(t["a3"])
        a1, a2, a3 = (t.get(k, zero) for k in ("a1", "a2", "a3"))
        budget, low = sigma - a1 - a2 - a3, offset + a1 + a2 * q0 + a3 * 2 * q0
        cost = np.zeros((2, len(zero)), dtype=np.int64)  # the monomial's valuation and pole
        for row, power in mono:
            cost += axes[:, 5 + row] * power
        valuation, pole = cost
        pole += axes[1, :3] @ np.stack((a1, a2, a3))  # at a4 = f = 0
        first = np.maximum((p.two_g_minus_2 - pole) // axes[1, 3] + 1, 0)  # T
        first[valuation != offset - 1] = 0
        fails = first <= budget
        if a4cap is None:
            count, at = ((budget + 1) * (budget + 2) - first * (first + 1)) // 2, low + first * q
        else:  # a4 = 0..n - 1, f = budget - a4: the least gap at a4 = n - 1
            n = np.minimum(a4cap, budget) + 1
            count, at = n, low + (n - 1) * q + (budget - n + 1) * q * q
        bad += int(count[fails].sum())
        least += at[fails].tolist()
    return bad, min(least, default=None)


_WINDOW = 4096  # gap values per window of witness_windows
_MOVING = [i for i, k in enumerate(families._RECORD) if k in ("value", "a4", "f", "sigma", "nu")]


def witness_windows(p: CurveParams) -> Iterator[np.ndarray]:
    """Every gap's record, one value window [v0, v0 + _WINDOW) at a time, as
    int64 columns in value order: ``families._RECORD`` (rows 2..11 the
    FamilyParams fields), then the witness's block exponents (b, c, d, e).

    Each progression row is read upward (from its far end if it runs down),
    so its indices j with value + j*step in a window are one range, from two
    floor divisions, and only the ``_MOVING`` rows of a record move along it.
    :func:`witness_faults` certifies every witness, so one that fails
    :func:`_is_witness` here is a fault of this expansion: RuntimeError.
    """
    parts = []
    for fid in families.FamilyId:
        r = families._family_rows(p, fid, params=True)
        moves = {"value": r.step, "a4": r.da4, "f": r.df, "sigma": r.da4 + r.df, "nu": r.step}
        delta = np.array([moves[families._RECORD[i]] for i in _MOVING])[:, None]
        if r.step < 0:
            r.start[_MOVING] += delta * (r.length - 1)
            delta = -delta
        parts.append(np.vstack((r.length, np.repeat(delta, len(r.length), axis=1), r.start)))
    table = np.concatenate(parts, axis=1)
    del parts
    length, delta, start = table[0], table[1:len(_MOVING) + 1], table[len(_MOVING) + 1:]
    value, step = start[0], delta[0]
    for v0 in range(0, 2 * p.genus, _WINDOW):
        lo = np.maximum(-((value - v0) // step), 0)
        n = np.maximum(np.minimum(-((value - v0 - _WINDOW) // step), length) - lo, 0)
        k, rows = np.repeat(lo, n) + families._steps(n), np.repeat(np.arange(len(n)), n)
        order = np.argsort(value[rows] + k * step[rows])
        k, rows = k[order], rows[order]
        window = start[:, rows]
        window[_MOVING] += delta[:, rows] * k
        ok = _is_witness(p, window[0], window[12:])
        if not ok.all():
            raise RuntimeError(f"a witness window misses the witness of {window[0, np.argmin(ok)]}")
        yield window
        del window  # before the next window is gathered


# ---------------------------------------------------------------------------
# The dump's bytes.

def _witness_blocks(windows: Iterator[np.ndarray], q0: int, fmt: str, sep: str,
                    size: int) -> Iterator[bytes]:
    """The records of each witness window in blocks of ``size``
    (:func:`_records`): the bytes json.dumps(indent=2) gives the old record
    dicts inside the payload (``fmt`` "json"), or the text line."""
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
    for window in windows:
        for i in range(0, window.shape[1], size):
            yield _records(window[rows, i:i + size], template.split("%d"), sep)
        del window  # before the next window is built


def _records(x: np.ndarray, literals: list[str], sep: str) -> bytes:
    """sep.join(template % tuple(r) for r in x.T), template = "%d".join(literals),
    as ASCII bytes, for a (k, n) nonnegative int64 array.  One uint8 row per
    record holds the literal bytes and each field's places, as many as its
    column's widest value; w passes of x // 10 write a w-digit field, last
    digit first, and the places above a value's own digits keep the pad byte
    0, dropped at the end."""
    if x.size and x.min() < 0:
        raise ValueError("record fields must be nonnegative")
    widths = np.array([len(str(v)) for v in x.max(axis=1, initial=0).tolist()], dtype=np.int64)
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
