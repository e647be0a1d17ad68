"""The six gap families at generic points, and their gap witnesses.

At a point outside the F_{q^4}-rational locus, the gap set of the
Weierstrass semigroup is the disjoint union of six parameterised families
F1..F6.  Each family value is nu + (family offset), where

    sigma = a1 + a2 + a3 + a4 + f
    nu    = a1 + a2*q0 + a3*2*q0 + a4*q + f*q^2

and the exponents range over a family-specific constraint block.  Where a
family fixes sigma, the exponent f is treated as the dependent variable
and tuples that would force f < 0 are skipped.

Each family is written once (:func:`_family`) and laid out as a table of
arithmetic progressions (:func:`_family_rows`) whose rows share one step,
q^2 for F1 and q - q^2 for F2..F6.  The
semigroup is the complement of the six families, and
:func:`kunz_counts` reads its Kunz coordinates off the rows alone: the
number k[r] of gaps in each residue r modulo the multiplicity m, which
puts the Apery element of r at r + m*k[r] (Kunz 1987; Rosales and
Garcia-Sanchez, "Numerical Semigroups", 2009).  It checks from the row
ends that the families are distinct, and from per-residue value sums
that each residue's gaps are exactly r, r + m, ..., r + (k[r] - 1)m,
with no array over [0, 2g).

Every gap value v admits a witness: an exponent vector for a monomial in
the building-block functions (see :func:`skabelund.params.pole_order_table`)
whose vanishing order at the point is v - 1 and whose total pole order at
infinity stays within 2g - 2.  Witnesses certify the value is a gap.  A
gap's witness is x^a1 y^a2 z^a3 w^a4 pi^f times the block monomial that
:func:`_family` lists beside its offset.  :func:`gap_witness` reads one
record's witness; the certificate of every witness and the record windows
are in :mod:`skabelund.witness`, which :func:`gap_witness` and
:func:`enumerate_all` load when they run, so the value path (counts,
profile, generators, gaps) never compiles it.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DuplicateGap, NonIntegerResult, NotClosed, UnsupportedS
from .params import CurveParams
from .semigroup import GapSet, SemigroupProfile, gaps_of, minimal_generators


class FamilyId(Enum):
    F1 = 1
    F2 = 2
    F3 = 3
    F4 = 4
    F5 = 5
    F6 = 6


_PARAMS = ("a1", "a2", "a3", "a4", "f", "n", "c", "d", "sigma", "nu")


class FamilyParams(NamedTuple("FamilyParams", [(name, int) for name in _PARAMS])):
    """Exponent tuple producing one family value.

    ``n`` is the family index used by F2/F3/F4/F6, ``c``/``d`` are the two
    extra exponents of F5; unused components are zero.  ``sigma`` and ``nu``
    are stored redundantly; construction checks ``sigma`` (``nu`` needs q0).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "FamilyParams":
        self = super().__new__(cls, *args, **kwargs)
        if min(self.a1, self.a2, self.a3, self.a4, self.f, self.n, self.c, self.d) < 0:
            raise ValueError("family parameters must be non-negative")
        if self.sigma != self.a1 + self.a2 + self.a3 + self.a4 + self.f:
            raise ValueError(f"stored sigma {self.sigma} disagrees with components")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too


class GapRecord(NamedTuple):
    """One gap value together with the family and parameters producing it."""

    value: int
    family: FamilyId
    params: FamilyParams


# ---------------------------------------------------------------------------
# Enumeration.  Each family is a list of arithmetic progressions ("rows"):
# the outer indices (a1, a2, a3, n, c, d) are fixed along a row, and the
# innermost (a4, f) pair moves along a line.  F1 gets one row per
# (a1, a2, a3, a4), with f = 0, 1, ..., cap - s3 - a4; F2..F6 fix sigma and
# get one row per outer tuple, with a4 = 0, 1, ..., min(a4cap, sigma - s3)
# and f = sigma - s3 - a4.  Rows and the values along them come in the
# lexicographic order of the loop variables, so output is deterministic.
# kunz_counts range-checks, separates and counts a row from its two ends and
# its length; only the witness windows and error messages expand it.

# a gap's record up to the witness's block exponents: value, family number,
# the FamilyParams fields, then the witness's a1..f (WitnessVector order)
_RECORD = ("value", "family", *_PARAMS, "a1", "a2", "a3", "a4", "f")


class _Rows(NamedTuple):
    """The progression rows of one family, as int64 columns.

    Row i holds ``length[i]`` values.  Its value starts at ``value[i]`` and
    moves by ``step`` = da4*q + df*q^2, as (a4, f) moves by (da4, df).  Its
    first record is ``start[:, i]`` (``_RECORD``, then the witness's block
    exponents; None unless asked for).
    """

    length: np.ndarray
    value: np.ndarray
    da4: int
    df: int
    step: int
    start: np.ndarray | None = None


def _grid(keep, **axes: int) -> dict[str, np.ndarray]:
    """Index tuples over [0, n) per axis, in keyword (loop) order, kept
    where ``keep`` of the columns holds (all when ``keep`` is None)."""
    shape = tuple(axes.values())
    cols = dict(zip(axes, np.indices(shape, dtype=np.int64).reshape(len(shape), -1)))
    if keep is None:
        return cols
    mask = keep(cols)
    return {k: v[mask] for k, v in cols.items()}


def _family(p: CurveParams, fid: FamilyId) -> tuple:
    """The one block of each family, as the paper displays it: the grid of
    outer index tuples, sigma (for F1 a cap on a1 + ... + f, with a4 cap
    None; for the others the fixed sum), the a4 cap, the value offset, and
    the block monomial of the witness, of valuation offset - 1, as (row,
    exponent) pairs of arrays over the grid (:func:`_monomial`)."""
    q0, q = p.q0, p.q
    h, f1, f2, g = -1, 2 * q0 - 2, 2 * q0 - 1, 2 * q0  # h_n in row h + n, g_n in row g + n
    if fid is FamilyId.F1:
        t = _grid(None, a1=q0, a2=2, a3=q0)
        sigma, a4cap, offset, mono = q - 2, None, 1, []
    elif fid is FamilyId.F2:
        t = _grid(lambda t: t["n"] >= 1, n=2 * q0 - 1, a1=q0, a2=2, a3=q0)
        n = t["n"]
        sigma, a4cap = q - q0 - 2 - n * q0 + n, q - q0 - 1 - n * q0
        offset, mono = (n + 1) * q0 * q + 1, [(h + n, 1)]
    elif fid is FamilyId.F3:
        t = _grid(lambda t: t["a1"] < q0 - 1 - t["n"], n=q0 - 1, a1=q0, a2=2, a3=q0)
        n = t["n"]
        sigma, a4cap = q - q0 - 2 - 2 * n * q0 + n, q0 - 1
        offset, mono = (2 * n + 1) * q0 * q + n + 2, [(g + n, 1)]
    elif fid is FamilyId.F4:
        t = _grid(lambda t: t["a1"] < q0 - 2 - t["n"], n=q0 - 2, a1=q0, a2=2, a3=q0)
        n = t["n"]
        sigma, a4cap = q - 2 * q0 - 2 - 2 * n * q0 + n, q0 - 1
        offset, mono = (2 * n + 2) * q0 * q + n + 3, [(g, 1), (g + n, 1)]
    elif fid is FamilyId.F5:
        t = _grid(lambda t: (t["d"] >= 1 - t["c"]) & (t["a2"] < 2 - t["c"]) & (t["a3"] < q0 - t["d"]),
                  c=2, d=q0, a2=2, a3=q0)
        c, d = t["c"], t["d"]
        sigma, a4cap = q - 2 - 2 * d * q0 - c * q0, q0 - 1
        offset, mono = c * q0 * (q + 1) + d * (2 * q * q0 + 2 * q0 + 1) + 1, [(f1, c), (f2, d)]
    else:
        t = _grid(lambda t: t["a3"] <= t["n"], n=q0 - 1, a3=q0)
        n = t["n"]
        sigma, a4cap = q - 2 * q0 - 2 - 2 * n * q0 + n, q0 - 1
        offset, mono = q0 + (2 * n + 2) * q0 * q + n + 2, [(f1, 1), (g + n, 1)]
    return t, sigma, a4cap, offset, [np.broadcast_arrays(r, e, t["a3"])[:2] for r, e in mono]


def _family_rows(p: CurveParams, fid: FamilyId, params: bool = False) -> _Rows:
    """A family (:func:`_family`) laid out as progression rows; the record
    columns of each row's first gap only for ``params``."""
    q0, q, qq = p.q0, p.q, p.q * p.q
    t, sigma, a4cap, offset, mono = _family(p, fid)
    zero = np.zeros_like(t["a3"])
    a1, a2, a3 = (t.get(k, zero) for k in ("a1", "a2", "a3"))
    budget = sigma - a1 - a2 - a3
    if a4cap is None:
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
    value = (offset + a1 + a2 * q0 + a3 * 2 * q0)[outer] + a4 * q + f * qq
    start = None
    if params:
        cols = {**{k: v[outer] for k, v in t.items()}, "a4": a4, "f": f, "value": value,
                "family": fid.value + 0 * f, "sigma": (a1 + a2 + a3)[outer] + a4 + f,
                "nu": value - (offset + zero)[outer]}
        start = np.vstack([np.stack([cols.get(k, 0 * f) for k in _RECORD]),
                           _monomial(p, mono, outer)])
    return _Rows(length, value, da4, df, da4 * q + df * qq, start)


def _monomial(p: CurveParams, mono: list, pick: np.ndarray) -> np.ndarray:
    """The exponents of the blocks h_1.., f1, f2, g_0.. (the 3q0 - 1 rows
    after x, y, z, w, pi in WitnessVector order) in a family's monomial at
    its grid tuples ``pick``, one column each."""
    out = np.zeros((3 * p.q0 - 1, len(pick)), dtype=np.int64)
    for row, power in mono:
        out[row[pick], np.arange(len(pick))] += power[pick]
    return out


def _steps(length: np.ndarray) -> np.ndarray:
    """0, 1, ..., length[i] - 1 for each i in turn, concatenated."""
    return np.arange(length.sum()) - np.repeat(np.cumsum(length) - length, length)


def _expand(rows: _Rows) -> np.ndarray:
    """Every value of every row, row after row."""
    return np.repeat(rows.value, rows.length) + _steps(rows.length) * rows.step


def _digit_sum(p: CurveParams, x: np.ndarray) -> np.ndarray:
    """a1 + a2 + a3 + a4 + f of x = a1 + q0*a2 + 2q0*a3 + q*a4 + q^2*f, with
    a1, a3 < q0, a2 < 2 and a4 < q."""
    q0, q = p.q0, p.q
    low = x % q
    return low % q0 + low // q0 % 2 + low // (2 * q0) + x // q % q + x // (q * q)


def _distinct(p: CurveParams, step: int, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether the ends of the rows lo..hi of one lattice show that they hold
    no value twice, and none of the other lattice's.

    F1 (step q^2) lies in {1 + x : ds(x) <= q - 2}, ds the digit sum, and
    F2..F6 (step q^2 - q) outside it.  Up an F1 row ds gains one per step,
    so its top end decides; up an F2..F6 row ds holds still, or gains q - 1
    where the a4 digit borrows, so its low end does.  Two rows share a
    value only if they lie in one class mod ``step`` and overlap.  Written
    class after class, as (x mod step)*w + x div step with w above every
    x div step, each row is an interval of one line on which no two classes
    meet, so the row ends are sorted per class by sorting that line.  The
    intervals are disjoint iff, with the low ends and the high ends each
    sorted on its own, every high end lies below the next low end.
    """
    f1 = step == p.q * p.q
    ends = hi if f1 else lo
    for i in range(0, len(ends), _CHUNK):  # no m-long digit-sum temporaries
        if ((_digit_sum(p, ends[i:i + _CHUNK] - 1) > p.q - 2) == f1).any():
            return False
    w = int(hi.max(initial=0)) // step + 1
    line = []
    for x in (lo, hi):
        y = x % step
        y *= w
        y += x // step
        y.sort()
        line.append(y)
    return not (line[1][:-1] >= line[0][1:]).any()


_CHUNK = 1 << 12  # rows per pass of _add_rows, and residues per pass of its read-out


def _add_rows(lo: np.ndarray, length: np.ndarray, step: int,
              k: np.ndarray, total: np.ndarray) -> None:
    """Add the rows lo, lo + step, ... (``length`` values each) to the
    per-residue counts ``k`` and value sums ``total`` modulo m = len(k).

    Up a row the residue moves by t = step mod m, around one of the
    d = gcd(t, m) cycles of Z/m under +t, each n = m/d long; residue r sits
    at place (r div d)*(t/d)^-1 mod n of cycle r mod d, and place j of
    cycle c holds residue c + d*(j*(t/d) mod n).  With the cycles laid out
    end to end, a row from place u is the run of places u, u + 1, ..., its
    value base + j*step at place j, and RuntimeError names a row that runs
    past the end of its cycle.  Difference arrays of the counts (int32) and
    the bases (int64), filled ``_CHUNK`` rows at a time and summed in place,
    give both sums per place; ``k`` and ``total`` gather them in residue
    order, ``_CHUNK`` residues at a time, adding count times j*step.  Every
    product with ``step`` is taken in int64: an int32 count times a Python
    int past 2^31 overflows.
    """
    m = len(k)
    t, d = step % m, math.gcd(step, m)
    n = m // d
    turn = pow(t // d, -1, n)
    count, value = np.zeros(m + 1, dtype=np.int32), np.zeros(m + 1, dtype=np.int64)
    for i in range(0, len(lo), _CHUNK):
        row, size = lo[i:i + _CHUNK], length[i:i + _CHUNK]
        r = row % m
        place = r // d * turn % n
        past = place + size > n
        if past.any():
            j = int(np.argmax(past))
            raise RuntimeError(f"the row of {size[j]} values from {row[j]} runs past the end "
                               f"of its residue cycle of {n}")
        at = r % d * n + place
        base = row - place * step
        np.add.at(count, at, np.int32(1))
        np.add.at(value, at, base)
        at += size
        np.subtract.at(count, at, np.int32(1))
        np.subtract.at(value, at, base)
    np.cumsum(count, dtype=np.int32, out=count)
    np.cumsum(value, out=value)
    count, value = count[:m].reshape(d, n), value[:m].reshape(d, n)
    place = np.arange(n) * turn % n  # in cycle c, of residue c + d*u for u = 0, 1, ...
    k, total, per = k.reshape(n, d), total.reshape(n, d), max(1, _CHUNK // d)
    for u in range(0, n, per):
        j = place[u:u + per]
        c = count[:, j].T
        k[u:u + per] += c
        total[u:u + per] += value[:, j].T + c * (j * step)[:, None]


def kunz_counts(p: CurveParams) -> tuple[SemigroupProfile, dict[FamilyId, int]]:
    """The profile (Kunz coordinates) of the complement of the six families,
    and each family's count, from the progression rows alone: k[r] family
    values are congruent to r modulo the generic multiplicity m = q^2 - 2q0.

    Each family's rows are cut down to their two ends as soon as they are
    built, so no row columns, and no copy of F1's ends (about m rows), stay
    alive beside the count.  From s = 4 on, the peak is in :func:`_add_rows`
    on F1, beside every lattice's ends, ``k`` and ``total``; :func:`_distinct`
    takes its digit sums ``_CHUNK`` ends at a time.

    Raises RuntimeError naming the first value outside [1, 2g) of the first
    family with a row end outside.  Where :func:`_distinct` cannot tell the
    rows apart, they are built again and expanded, and DuplicateGap names
    the first value, in enumeration order, produced twice.  Distinct values
    of residue r are r, r + m, ..., r + (k - 1)m iff they sum to
    k*r + m*k(k - 1)/2; NotClosed names the first residue whose sum
    (:func:`_add_rows`) is another.  RuntimeError follows unless sum(k) is
    the genus, and the profile raises NotClosed unless k[0] = 0 and every
    other k[r] >= 1.
    """
    limit, m = 2 * p.genus, p.q * p.q - 2 * p.q0
    counts, ends = {}, {}
    for fid in FamilyId:
        r = _family_rows(p, fid)
        counts[fid] = int(r.length.sum())
        last = r.value + (r.length - 1) * r.step
        lo, hi = (r.value, last) if r.step > 0 else (last, r.value)
        if (lo < 1).any() or (hi >= limit).any():
            values = _expand(r)
            outside = (values < 1) | (values >= limit)
            raise RuntimeError(f"gap value {values[outside][0]} outside [1, {limit})")
        ends.setdefault(abs(r.step), []).append((lo, hi))
    # F1, alone on its lattice, keeps its ends uncopied
    lattices = [(step, *(e[0] if len(e) == 1 else np.concatenate(e) for e in zip(*parts)))
                for step, parts in ends.items()]
    del ends
    if not all(_distinct(p, *lattice) for lattice in lattices):
        every = np.concatenate([_expand(_family_rows(p, fid)) for fid in FamilyId])
        repeat = np.ones(len(every), dtype=bool)
        repeat[np.unique(every, return_index=True)[1]] = False
        if repeat.any():
            raise DuplicateGap(f"value {every[np.argmax(repeat)]} produced twice")
    k, total = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
    for step, lo, hi in lattices:
        _add_rows(lo, (hi - lo) // step + 1, step, k, total)
    expected = k * np.arange(m) + m * (k * (k - 1) // 2)
    if (total != expected).any():
        r = int(np.argmax(total != expected))
        raise NotClosed(f"residue {r} holds {k[r]} gaps summing to {total[r]}, not "
                        f"{expected[r]}: a gap lies above a member of its residue")
    genus = int(k.sum())
    if genus != p.genus:
        raise RuntimeError(f"complement profile has genus {genus}, expected {p.genus}")
    return SemigroupProfile(k), counts


def enumerate_values(p: CurveParams) -> tuple[GapSet, dict[FamilyId, int]]:
    """The gap set (bound 2g) that :func:`kunz_counts` counts, and its counts."""
    profile, counts = kunz_counts(p)
    return GapSet(gaps_of(profile).gaps, 2 * p.genus), counts


def enumerate_all(p: CurveParams) -> tuple[GapSet, list[GapRecord]]:
    """Union of the six families with full records, sorted by value (read
    off :func:`skabelund.witness.witness_windows`)."""
    from . import witness

    kunz_counts(p)  # RuntimeError, DuplicateGap or NotClosed on bad family values
    fids = list(FamilyId)
    records = [GapRecord(v, fids[k - 1], FamilyParams(*fields))
               for cols in witness.witness_windows(p)
               for v, k, fields in zip(cols[0].tolist(), cols[1].tolist(), cols[2:12].T.tolist())]
    return GapSet(tuple(r.value for r in records), 2 * p.genus), records


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


class GenericSemigroup(NamedTuple):
    """The generic-point semigroup, its per-family gap counts and minimal generators."""

    profile: SemigroupProfile
    counts: dict[FamilyId, int]
    generators: tuple[int, ...]


def generic_semigroup(p: CurveParams) -> GenericSemigroup:
    """The semigroup at a generic point: complement C of the six families,
    whose Kunz coordinates k (:func:`kunz_counts`, of sum g) show that each
    residue's gaps are exactly those below D[r] = r + m*k[r].  C is closed
    under addition, with multiplicity m, iff each D[r], r > 0, lies above m
    (:class:`SemigroupProfile`) and its minimal generators reach every D[r]
    by a tight edge (:func:`minimal_generators`); NotClosed otherwise."""
    if p.s > 4:
        raise UnsupportedS("generic-point semigroups are supported for s <= 4")
    profile, counts = kunz_counts(p)
    return GenericSemigroup(profile, counts, minimal_generators(profile))


# ---------------------------------------------------------------------------
# Witnesses.

class WitnessVector(NamedTuple):
    """Exponents of a gap-witness monomial.

    Field by field: ``a1``, ``a2``, ``a3``, ``a4`` are the exponents of x,
    y, z, w; ``f`` of pi; ``b[n-1]`` of h_n (n = 1..2q0-2); ``c`` of f1;
    ``d`` of f2; ``e[n]`` of g_n (n = 0..q0-2).
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


def gap_witness(p: CurveParams, record: GapRecord) -> WitnessVector:
    """A record's witness, its a1..f times the block monomial of its family
    tuple (the grid entry that matches the record on every key), checked:
    valuation value - 1 and pole cost within 2g - 2
    (:func:`skabelund.witness.witness_faults` certifies every gap); one that
    fails, or no matching tuple, raises NoWitness.
    """
    from . import witness

    t, _, _, _, mono = _family(p, record.family)
    fp, hit = record.params, np.ones(len(t["a3"]), dtype=bool)
    for k, column in t.items():
        hit &= column == getattr(fp, k)
    at = np.flatnonzero(hit)[:1]
    if not at.size:
        raise witness._no_witness(p, record.value)
    seed = np.concatenate(([fp.a1, fp.a2, fp.a3, fp.a4, fp.f], _monomial(p, mono, at)[:, 0]))
    if not witness._is_witness(p, np.array([record.value]), seed[:, None])[0]:
        raise witness._no_witness(p, record.value)
    exps = seed.tolist()
    c = 2 * p.q0 + 3
    return WitnessVector(*exps[:5], tuple(exps[5:c]), exps[c], exps[c + 1], tuple(exps[c + 2:]))
