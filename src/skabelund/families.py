"""The six gap families at generic points, and their gap witnesses.

At a point outside the F_{q^4}-rational locus, the gap set of the
Weierstrass semigroup is the disjoint union of six parameterised families
F1..F6.  Each family value is nu + (family offset), where

    sigma = a1 + a2 + a3 + a4 + f
    nu    = a1 + a2*q0 + a3*2*q0 + a4*q + f*q^2

and the exponents range over a family-specific constraint block.  Where a
family fixes sigma, the exponent f is treated as the dependent variable
and tuples that would force f < 0 are skipped.

Every gap value v admits a witness: an exponent vector for a monomial in
the building-block functions (see :func:`skabelund.curve.pole_order_table`)
whose vanishing order at the point is v - 1 and whose total pole order at
infinity stays within 2g - 2.  Witnesses certify the value is a gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Iterator

import numpy as np

from .curve import CurveParams, PoleOrderTable, pole_order_table
from .errors import (
    DuplicateGap,
    NonIntegerResult,
    NotClosed,
    NoWitness,
    Overflow,
    UnsupportedS,
)
from .semigroup import GapSet, SemigroupProfile, minimal_generators


class FamilyId(Enum):
    F1 = 1
    F2 = 2
    F3 = 3
    F4 = 4
    F5 = 5
    F6 = 6


@dataclass(frozen=True, slots=True)
class FamilyParams:
    """Exponent tuple producing one family value.

    ``n`` is the family index used by F2/F3/F4/F6, ``c``/``d`` are the two
    extra exponents of F5; unused components are zero.  ``sigma`` and
    ``nu`` are stored redundantly and must match their defining sums.
    """

    a1: int
    a2: int
    a3: int
    a4: int
    f: int
    n: int
    c: int
    d: int
    sigma: int
    nu: int

    def __post_init__(self) -> None:
        if min(self.a1, self.a2, self.a3, self.a4, self.f, self.n, self.c, self.d) < 0:
            raise ValueError("family parameters must be non-negative")
        if self.sigma != self.a1 + self.a2 + self.a3 + self.a4 + self.f:
            raise ValueError(f"stored sigma {self.sigma} disagrees with components")

    def nu_matches(self, p: CurveParams) -> bool:
        q0, q = p.q0, p.q
        return self.nu == self.a1 + self.a2 * q0 + self.a3 * 2 * q0 + self.a4 * q + self.f * q * q


@dataclass(frozen=True, slots=True)
class GapRecord:
    """One gap value together with the family and parameters producing it."""

    value: int
    family: FamilyId
    params: FamilyParams


def _params(p: CurveParams, a1: int, a2: int, a3: int, a4: int, f: int,
            n: int = 0, c: int = 0, d: int = 0) -> FamilyParams:
    q0, q = p.q0, p.q
    nu = a1 + a2 * q0 + a3 * 2 * q0 + a4 * q + f * q * q
    return FamilyParams(a1, a2, a3, a4, f, n, c, d, a1 + a2 + a3 + a4 + f, nu)


def family_value(p: CurveParams, fid: FamilyId, fp: FamilyParams) -> int:
    """Evaluate the displayed expression of a family at given parameters."""
    q0, q = p.q0, p.q
    nu = fp.nu
    n = fp.n
    if fid is FamilyId.F1:
        return nu + 1
    if fid is FamilyId.F2:
        return nu + (n + 1) * q0 * q + 1
    if fid is FamilyId.F3:
        return nu + (2 * n + 1) * q0 * q + n + 2
    if fid is FamilyId.F4:
        return nu + (2 * n + 2) * q0 * q + n + 3
    if fid is FamilyId.F5:
        return nu + fp.c * q0 * (q + 1) + fp.d * (2 * q * q0 + 2 * q0 + 1) + 1
    return nu + q0 + (2 * n + 2) * q0 * q + n + 2


# ---------------------------------------------------------------------------
# Enumeration.  Each family is a list of arithmetic progressions ("rows"):
# the outer indices (a1, a2, a3, n, c, d) are fixed along a row, and the
# innermost (a4, f) pair moves along a line.  F1 gets one row per
# (a1, a2, a3, a4), with f = 0, 1, ..., cap - s3 - a4; F2..F6 fix sigma and
# get one row per outer tuple, with a4 = 0, 1, ..., min(a4cap, sigma - s3)
# and f = sigma - s3 - a4.  Rows and the values along them come in the
# lexicographic order of the loop variables, so output is deterministic.

_COLUMNS = ("a1", "a2", "a3", "a4", "f", "n", "c", "d")


@dataclass(frozen=True)
class _Rows:
    """The progression rows of one family, as int64 columns.

    Row i holds ``length[i]`` values.  Its exponents start at
    ``start[:, i]`` (in ``_COLUMNS`` order) and move by (da4, df) in
    (a4, f) per step, so its value starts at ``value[i]`` and moves by
    ``step`` = da4*q + df*q^2.
    """

    start: np.ndarray
    length: np.ndarray
    value: np.ndarray
    da4: int
    df: int
    step: int


def _grid(keep, **axes: int) -> dict[str, np.ndarray]:
    """Index tuples over [0, n) per axis, in keyword (loop) order, kept
    where ``keep`` of the columns holds (all when ``keep`` is None)."""
    shape = tuple(axes.values())
    cols = dict(zip(axes, np.indices(shape, dtype=np.int64).reshape(len(shape), -1)))
    if keep is None:
        return cols
    mask = keep(cols)
    return {k: v[mask] for k, v in cols.items()}


def _family_rows(p: CurveParams, fid: FamilyId) -> _Rows:
    """The one description of each family: outer index ranges, sigma, the
    a4 cap and the value offset."""
    q0, q = p.q0, p.q
    qq = q * q
    if fid is FamilyId.F1:
        t = _grid(None, a1=q0, a2=2, a3=q0)
        sigma, a4cap, offset = q - 2, None, 1
    elif fid is FamilyId.F2:
        t = _grid(lambda t: t["n"] >= 1, n=2 * q0 - 1, a1=q0, a2=2, a3=q0)
        n = t["n"]
        sigma, a4cap, offset = q - q0 - 2 - n * q0 + n, q - q0 - 1 - n * q0, (n + 1) * q0 * q + 1
    elif fid is FamilyId.F3:
        t = _grid(lambda t: t["a1"] < q0 - 1 - t["n"], n=q0 - 1, a1=q0, a2=2, a3=q0)
        n = t["n"]
        sigma, a4cap, offset = q - q0 - 2 - 2 * n * q0 + n, q0 - 1, (2 * n + 1) * q0 * q + n + 2
    elif fid is FamilyId.F4:
        t = _grid(lambda t: t["a1"] < q0 - 2 - t["n"], n=q0 - 2, a1=q0, a2=2, a3=q0)
        n = t["n"]
        sigma, a4cap, offset = q - 2 * q0 - 2 - 2 * n * q0 + n, q0 - 1, (2 * n + 2) * q0 * q + n + 3
    elif fid is FamilyId.F5:
        t = _grid(lambda t: (t["d"] >= 1 - t["c"]) & (t["a2"] < 2 - t["c"]) & (t["a3"] < q0 - t["d"]),
                  c=2, d=q0, a2=2, a3=q0)
        c, d = t["c"], t["d"]
        sigma, a4cap = q - 2 - 2 * d * q0 - c * q0, q0 - 1
        offset = c * q0 * (q + 1) + d * (2 * q * q0 + 2 * q0 + 1) + 1
    else:
        t = _grid(lambda t: t["a3"] <= t["n"], n=q0 - 1, a3=q0)
        n = t["n"]
        sigma, a4cap, offset = q - 2 * q0 - 2 - 2 * n * q0 + n, q0 - 1, q0 + (2 * n + 2) * q0 * q + n + 2

    zero = np.zeros_like(t["a3"])
    a1, a2, a3 = (t.get(k, zero) for k in ("a1", "a2", "a3"))
    budget = sigma - a1 - a2 - a3
    if fid is FamilyId.F1:
        # rows a4 = 0..budget of each outer tuple, f = 0..budget - a4 along each
        reps = np.maximum(budget + 1, 0)
        outer = np.repeat(np.arange(len(reps)), reps)
        a4, f = _steps(reps), np.zeros(len(outer), dtype=np.int64)
        length = budget[outer] - a4 + 1
        da4, df = 0, 1
    else:
        length = np.minimum(a4cap, budget) + 1
        outer = np.flatnonzero(length > 0)
        a4, f, length = np.zeros(len(outer), dtype=np.int64), budget[outer], length[outer]
        da4, df = 1, -1
    cols = {**{k: v[outer] for k, v in t.items()}, "a4": a4, "f": f}
    start = np.stack([cols.get(k, np.zeros_like(a4)) for k in _COLUMNS])
    value = (offset + a1 + a2 * q0 + a3 * 2 * q0)[outer] + a4 * q + f * qq
    return _Rows(start, length, value, da4, df, da4 * q + df * qq)


def _steps(length: np.ndarray) -> np.ndarray:
    """0, 1, ..., length[i] - 1 for each i in turn, concatenated."""
    return np.arange(length.sum()) - np.repeat(np.cumsum(length) - length, length)


def _expand(rows: _Rows) -> tuple[np.ndarray, np.ndarray]:
    """Every value of every row, row after row, and the step index of each
    value along its row."""
    k = _steps(rows.length)
    values = np.repeat(rows.value, rows.length)
    values += k * rows.step
    return values, k


def _expand_exponents(rows: _Rows) -> tuple[np.ndarray, np.ndarray]:
    """Values as :func:`_expand`, with their exponent columns (``_COLUMNS``
    order, one column per value)."""
    values, k = _expand(rows)
    cols = np.repeat(rows.start, rows.length, axis=1)
    cols[3] += k * rows.da4
    cols[4] += k * rows.df
    return values, cols


def _records(p: CurveParams, fid: FamilyId, values: np.ndarray,
             cols: np.ndarray) -> Iterator[GapRecord]:
    q0, q = p.q0, p.q
    a1, a2, a3, a4, f = cols[:5]
    sigma = a1 + a2 + a3 + a4 + f
    nu = a1 + a2 * q0 + a3 * 2 * q0 + a4 * q + f * q * q
    for v, exps, sg, nv in zip(values.tolist(), cols.T.tolist(), sigma.tolist(), nu.tolist()):
        yield GapRecord(v, fid, FamilyParams(*exps, sg, nv))


def iter_family_records(p: CurveParams, fid: FamilyId) -> Iterator[GapRecord]:
    """Yield the records of one family in loop order."""
    yield from _records(p, fid, *_expand_exponents(_family_rows(p, fid)))


def enumerate_family(p: CurveParams, fid: FamilyId) -> list[GapRecord]:
    """All records of one family, sorted by value."""
    records = list(iter_family_records(p, fid))
    records.sort(key=lambda r: r.value)
    return records


def iter_family_values(p: CurveParams, fid: FamilyId) -> Iterator[int]:
    """Yield the values of one family in loop order, without records."""
    yield from _expand(_family_rows(p, fid))[0].tolist()


def _mark_gaps(chunks: list[np.ndarray], limit: int) -> np.ndarray:
    """Mark every value of ``chunks`` in a bool array over [0, limit).

    Raises RuntimeError on a value outside [1, limit), and DuplicateGap
    naming the first value, in chunk order, that is already marked.  The
    values are disjoint iff the marks number as many as the values, so
    the repeat is looked for only when the two counts differ.
    """
    marked = np.zeros(limit, dtype=bool)
    for values in chunks:
        outside = (values < 1) | (values >= limit)
        if outside.any():
            raise RuntimeError(f"gap value {values[outside][0]} outside [1, {limit})")
        marked[values] = True
    if np.count_nonzero(marked) != sum(len(values) for values in chunks):
        every = np.concatenate(chunks)
        repeat = np.ones(len(every), dtype=bool)
        repeat[np.unique(every, return_index=True)[1]] = False
        raise DuplicateGap(f"value {every[np.argmax(repeat)]} produced twice")
    return marked


def enumerate_values(p: CurveParams) -> tuple[GapSet, dict[FamilyId, int]]:
    """Mark all six families in one bitset without building records.

    Returns the combined gap set (bound 2g) and the per-family counts.
    Raises DuplicateGap on any collision, within or across families.
    """
    chunks = [_expand(_family_rows(p, fid))[0] for fid in FamilyId]
    counts = {fid: len(values) for fid, values in zip(FamilyId, chunks)}
    marked = _mark_gaps(chunks, 2 * p.genus)
    return GapSet(tuple(np.flatnonzero(marked).tolist()), 2 * p.genus), counts


def enumerate_all(p: CurveParams) -> tuple[GapSet, list[GapRecord]]:
    """Union of the six families with full records, sorted by value."""
    expanded = [_expand_exponents(_family_rows(p, fid)) for fid in FamilyId]
    _mark_gaps([values for values, _ in expanded], 2 * p.genus)
    records = [rec for fid, (values, cols) in zip(FamilyId, expanded)
               for rec in _records(p, fid, values, cols)]
    records.sort(key=lambda r: r.value)
    return GapSet(tuple(r.value for r in records), 2 * p.genus), records


def count_family(p: CurveParams, fid: FamilyId) -> int:
    """Family cardinality: the summed lengths of its rows.

    Counts without expanding the rows, so this stays fast even where full
    enumeration is impractical.
    """
    return int(_family_rows(p, fid).length.sum())


def family_count_closed_form(p: CurveParams, fid: FamilyId) -> int:
    """Closed-form family cardinality as a polynomial in q and q0.

    The fractional coefficients are handled in exact integer arithmetic:
    each numerator (scaled by 24) must divide out evenly, anything else
    signals a transcription error.  F5 is the sum of its c = 0 and c = 1
    sub-counts, checked separately.
    """
    q0, q = p.q0, p.q
    if fid is FamilyId.F5:
        return _div24(12 * q * q0 - 12 * q) + _div24(6 * q * q0 + 6 * q - 24)
    numerators = {
        FamilyId.F1: 12 * q**3 - 24 * q * q * q0 + 7 * q * q - 2 * q,
        FamilyId.F2: 24 * q * q * q0 - 43 * q * q + 24 * q * q0 + 2 * q + 24,
        FamilyId.F3: 6 * q * q - 12 * q * q0,
        FamilyId.F4: 6 * q * q - 36 * q * q0 + 24 * q,
        FamilyId.F6: 6 * q * q0 - 6 * q,
    }
    return _div24(numerators[fid])


def _div24(numerator: int) -> int:
    if numerator % 24:
        raise NonIntegerResult(f"24 does not divide {numerator}")
    return numerator // 24


def binom_sum_check(n: int) -> bool:
    """Exact check of sum_{s=0}^{n} C(s+4, 4) == C(n+5, 5)."""
    if n < 0:
        raise ValueError("n must be a natural number")
    if n > 10_000:
        raise Overflow("binomial sum check capped at n = 10^4")
    return sum(comb(sig + 4, 4) for sig in range(n + 1)) == comb(n + 5, 5)


def generic_semigroup(p: CurveParams) -> SemigroupProfile:
    """The semigroup at a generic point: complement of the six families.

    Builds the complement C over [0, 2g), extracts its Apery set, and
    certifies exactly that C is a semigroup.  C lies inside the set the
    Apery array describes, so the two are equal iff they have as many
    gaps; that set is closed iff the minimal-generator sweep ends on the
    same Apery array.  Either failure raises NotClosed.
    """
    if p.s > 3:
        raise UnsupportedS("generic-point enumeration is supported for s <= 3")
    gap_set, _ = enumerate_values(p)
    two_g = 2 * p.genus

    member = np.ones(two_g, dtype=bool)
    member[np.asarray(gap_set.gaps, dtype=np.int64)] = False
    m = int(np.argmax(member[1:])) + 1
    # Pad with ones to a multiple of m past 2g + m, so that every residue
    # has a member; the first member in each column is its Apery element.
    rows = -(-(two_g + m) // m)
    padded = np.ones(rows * m, dtype=bool)
    padded[:two_g] = member
    apery = padded.reshape(rows, m).argmax(axis=0) * m + np.arange(m)
    profile = SemigroupProfile.from_apery(apery.tolist())

    if profile.genus != p.genus:
        raise RuntimeError(
            f"complement profile has genus {profile.genus}, expected {p.genus}"
        )
    if len(gap_set.gaps) != profile.genus:
        raise NotClosed(f"complement has {len(gap_set.gaps)} gaps, its Apery set "
                        f"{profile.genus}: a gap lies above a member of its residue")
    minimal_generators(profile)
    return profile


# ---------------------------------------------------------------------------
# Witnesses.

@dataclass(frozen=True, slots=True)
class WitnessVector:
    """Exponents of a gap-witness monomial.

    ``b[n-1]`` is the exponent of h_n (n = 1..2q0-2) and ``e[n]`` the
    exponent of g_n (n = 0..q0-2); the scalar fields follow the building
    blocks x, y, z, w, f1, f2, pi in that order.
    """

    a1: int
    a2: int
    a3: int
    a4: int
    f: int
    b: tuple[int, ...]
    c: int
    d: int
    e: tuple[int, ...]


def _axis(table: PoleOrderTable, w: WitnessVector, which: int) -> int:
    total = 0
    for exp, entry in (
        (w.a1, table.x), (w.a2, table.y), (w.a3, table.z), (w.a4, table.w),
        (w.c, table.f1), (w.d, table.f2), (w.f, table.pi),
    ):
        total += exp * entry[which]
    total += sum(exp * entry[which] for exp, entry in zip(w.b, table.h))
    total += sum(exp * entry[which] for exp, entry in zip(w.e, table.g))
    return total


def witness_valuation(p: CurveParams, w: WitnessVector) -> int:
    """Vanishing order at the point of the witness monomial."""
    return _axis(pole_order_table(p), w, 0)


def witness_pole_cost(p: CurveParams, w: WitnessVector) -> int:
    """Pole order at infinity of the witness monomial (upper bound)."""
    return _axis(pole_order_table(p), w, 1)


def _family_seed(p: CurveParams, record: GapRecord) -> WitnessVector:
    """Read a witness straight off the family parameters.

    The F1/F2/F3/F5 offsets each match one building block (nothing, h_n,
    g_n, f1^c * f2^d).  The remaining two offsets are products: for F4,
    g_0 * g_n supplies (2n+2)q0q + n + 2, and for F6, f1 * g_n supplies
    (2n+2)q0q + q0 + n + 1.  In every case the pole weight comes to q - 2
    at most, so the pole bound holds automatically.
    """
    fp = record.params
    b = [0] * (2 * p.q0 - 2)
    e = [0] * (p.q0 - 1)
    c = d = 0
    if record.family is FamilyId.F2:
        b[fp.n - 1] = 1
    elif record.family is FamilyId.F3:
        e[fp.n] = 1
    elif record.family is FamilyId.F4:
        e[0] += 1
        e[fp.n] += 1
    elif record.family is FamilyId.F5:
        c, d = fp.c, fp.d
    elif record.family is FamilyId.F6:
        c = 1
        e[fp.n] += 1
    return WitnessVector(fp.a1, fp.a2, fp.a3, fp.a4, fp.f, tuple(b), c, d, tuple(e))


def gap_witness(p: CurveParams, record: GapRecord) -> WitnessVector:
    """The family seed of a record, checked to be a witness: valuation
    value - 1 and pole cost within 2g - 2.

    The seeds certify every gap at s = 1, 2 and 3.  A seed that fails
    raises NoWitness, which would contradict the gap property.
    """
    budget = p.two_g_minus_2
    seed = _family_seed(p, record)
    if witness_valuation(p, seed) != record.value - 1 or witness_pole_cost(p, seed) > budget:
        raise NoWitness(f"no witness for value {record.value} within pole budget {budget}")
    return seed
