"""Parameters of the Skabelund curve and closed-form semigroup data.

The curve is the cyclic degree-(q - 2q0 + 1) cover of the Suzuki curve,
with q0 = 2^s and q = 2*q0^2.  Its points fall into three classes with
three distinct Weierstrass semigroups; this module provides the two
special classes in closed form:

* rational points (defined over F_q): five generators, and an Apery set
  given by a four-parameter box of generator combinations;
* quartic points (defined over F_{q^4} but not F_q): 3*q0 + 3 generators,
  and an Apery set {phi(i) * g0 + i} driven by the piecewise map phi.

Generic points are handled in :mod:`skabelund.families`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DuplicateResidue, OutOfDomain, SumMismatch, UnsupportedS
from .semigroup import GeneratorSet, SemigroupStats

S_MAX = 6  # keeps every derived quantity (~q^3) far inside 64 bits


@dataclass(frozen=True)
class CurveParams:
    """The parameter triple (s, q0, q) with derived genus."""

    s: int
    q0: int
    q: int
    genus: int
    two_g_minus_2: int


@dataclass(frozen=True)
class PoleOrderTable:
    """(vanishing order at the point, pole order at infinity) for each
    building-block function of the gap-witness monomials.

    ``h[n-1]`` holds the entry for h_n (n = 1..2q0-2) and ``g[n]`` the
    entry for g_n (n = 0..q0-2).  The f1/f2/h/g pole orders are the
    stated multiples of q^2 + 1; for f1, f2 and g these are upper bounds
    on the actual pole order, which is all the witness bound needs.
    """

    x: tuple[int, int]
    y: tuple[int, int]
    z: tuple[int, int]
    w: tuple[int, int]
    pi: tuple[int, int]
    h: tuple[tuple[int, int], ...]
    f1: tuple[int, int]
    f2: tuple[int, int]
    g: tuple[tuple[int, int], ...]


def make_params(s: int) -> CurveParams:
    """Build CurveParams for exponent s; genus is q*(q-1)^2/2."""
    if not isinstance(s, int) or not 1 <= s <= S_MAX:
        raise UnsupportedS(f"s must be an integer in 1..{S_MAX}, got {s!r}")
    q0 = 2**s
    q = 2 * q0 * q0
    genus = q * (q - 1) ** 2 // 2
    return CurveParams(s, q0, q, genus, 2 * genus - 2)


def rational_generators(p: CurveParams) -> GeneratorSet:
    """The five generators of the semigroup at a rational point."""
    q0, q = p.q0, p.q
    return GeneratorSet(
        (q * q - 2 * q0 * q + q, q * q - q0 * q + q0, q * q - q + 2 * q0, q * q, q * q + 1)
    )


def rational_apery(p: CurveParams) -> frozenset[int]:
    """Apery set at a rational point: all sums h*g1 + i*g2 + j*g3 + k*g4
    over the box 0<=h<=1, 0<=i<=q0-1, 0<=j<=q-2q0, 0<=k<=q0-1.

    The box has exactly g0 = multiplicity cells and the sums are pairwise
    distinct modulo g0; a collision would mean a transcription bug.
    """
    q0, q = p.q0, p.q
    g0, g1, g2, g3, g4 = rational_generators(p).gens
    vals = (np.array([0, g1], dtype=np.int64)[:, None, None, None]
            + np.arange(q0, dtype=np.int64)[:, None, None] * g2
            + np.arange(q - 2 * q0 + 1, dtype=np.int64)[:, None] * g3
            + np.arange(q0, dtype=np.int64) * g4).ravel()
    residues = vals % g0
    if np.bincount(residues, minlength=g0).max() > 1:
        # Name the first repeat in box order (h, i, j, k).
        first = np.zeros(vals.size, dtype=bool)
        first[np.unique(residues, return_index=True)[1]] = True
        at = int(np.argmin(first))
        raise DuplicateResidue(f"residue {residues[at]} hit twice at value {vals[at]}")
    return frozenset(vals.tolist())


def quartic_generators(p: CurveParams) -> GeneratorSet:
    """The 3*q0 + 3 generators of the semigroup at a quartic point.

    Collisions among the listed values, if any, are silently deduplicated;
    no minimality is claimed for this list.
    """
    q0, q = p.q0, p.q
    g0 = q * q - q + 1
    g4 = q * q + 1
    vals = {g0, q * q - 2 * q0 + 1, q * q - q0 + 1, q * q, g4}
    vals.update((i + 1) * q0 * g0 - i * g4 - 1 for i in range(2 * q0 - 1))
    vals.update((2 * j + 1) * q0 * g0 - j * g4 - q0 for j in range(q0 - 1))
    return GeneratorSet(tuple(sorted(vals)))


def quartic_multiplicity(p: CurveParams) -> int:
    """Smallest quartic-point generator, g0 = q^2 - q + 1."""
    return p.q * p.q - p.q + 1


def _decompose(p: CurveParams, i: int) -> tuple[int, int, int]:
    """Write i = l*q + k*q0 + j with 0<=j<q0, 0<=k<2q0, l>=0 (unique)."""
    q0 = p.q0
    return i % q0, (i // q0) % (2 * q0), i // p.q


def phi1(p: CurveParams, i: int) -> int:
    """Apery offset map on the lower index range 0 <= i <= q(q-2)/2."""
    q0, q = p.q0, p.q
    if not 0 <= i <= q * (q - 2) // 2:
        raise OutOfDomain(f"phi1 index {i} outside 0..{q * (q - 2) // 2}")
    j, k, l = _decompose(p, i)
    if j == 0 and k == 0:
        return l
    if j == 0:
        return l + 1 + max(q - q0 * (k + 2 * l + 2), 0)
    return l + 1 + max(q - q0 * ((k + 1) // 2 + j + l + 1), 0)


def phi2(p: CurveParams, i: int) -> int:
    """Apery offset map on the upper index range q(q-2)/2 < i < g0."""
    q0, q = p.q0, p.q
    g0 = quartic_multiplicity(p)
    if not q * (q - 2) // 2 + 1 <= i <= g0 - 1:
        raise OutOfDomain(f"phi2 index {i} outside {q * (q - 2) // 2 + 1}..{g0 - 1}")
    j, k, l = _decompose(p, g0 - 1 - i)
    if j == q0 - 1:
        return q - l - 1 - max(q - q0 * (k + 2 * l + 1), 0)
    return q - l - 1 - max(q - q0 * ((k + 1) // 2 + j + l + 1), 0)


def phi(p: CurveParams, i: int) -> int:
    """The total offset map on 0 <= i < g0, splitting at q(q-2)/2."""
    if not 0 <= i < quartic_multiplicity(p):
        raise OutOfDomain(f"phi index {i} outside 0..{quartic_multiplicity(p) - 1}")
    if i <= p.q * (p.q - 2) // 2:
        return phi1(p, i)
    return phi2(p, i)


def quartic_apery(p: CurveParams) -> frozenset[int]:
    """Apery set at a quartic point: {phi(i)*g0 + i | 0 <= i < g0}.

    The offsets phi(i) must add up to the genus; anything else signals a
    transcription bug.
    """
    g0 = quartic_multiplicity(p)
    idx = np.arange(g0, dtype=np.int64)
    offs = phi_values(p, idx)
    total = int(offs.sum())
    if total != p.genus:
        raise SumMismatch(f"sum of offsets is {total}, genus is {p.genus}")
    return frozenset((offs * g0 + idx).tolist())


@lru_cache(maxsize=None)
def pole_order_table(p: CurveParams) -> PoleOrderTable:
    """Valuation/pole data for the witness building blocks."""
    q0, q = p.q0, p.q
    big = q * q + 1
    return PoleOrderTable(
        x=(1, q * q - 2 * q0 * q + q),
        y=(q0, q * q - q0 * q + q0),
        z=(2 * q0, q * q - q + 2 * q0),
        w=(q, big),
        pi=(q * q, big),
        h=tuple(((n + 1) * q0 * q, ((n + 1) * q0 - n) * big) for n in range(1, 2 * q0 - 1)),
        f1=(q0 * q + q0, q0 * big),
        f2=(2 * q0 * q + 2 * q0 + 1, 2 * q0 * big),
        g=tuple(((2 * n + 1) * q0 * q + n + 1, ((2 * n + 1) * q0 - n) * big) for n in range(q0 - 1)),
    )


# ---------------------------------------------------------------------------
# Closed-form statistics in blocks.  At s >= 4 the Apery sets have hundreds
# of thousands to tens of millions of elements; the summary numbers (genus,
# conductor, symmetry) are accumulated over fixed-size blocks without
# materialising them.  The rational box goes in chunks of about _CHUNK sums.
# The quartic offsets go in blocks of _ROWS rows of the cell tables below,
# with no division per element.

_CHUNK = 1 << 20
_ROWS = 64


def _cell_tables(p: CurveParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell coefficients of phi, as three (2, q) int64 tables (a, b, c).

    Row 0 covers the lower range: i = l*q + cell with cell = k*q0 + j, and
    phi(i) = c + l + max(a - b*l, 0).  Row 1 covers the upper range through
    its mirror index g0 - 1 - i = l*q + cell, and phi(i) = c - l - max(a - b*l, 0).
    """
    q0, q = p.q0, p.q
    cell = np.arange(q, dtype=np.int64)
    j = cell & (q0 - 1)
    k = cell >> p.s
    a = np.tile(q - q0 * ((k + 1) // 2 + j + 1), (2, 1))
    b = np.full((2, q), q0, dtype=np.int64)
    c = np.repeat(np.array([[1], [q - 1]], dtype=np.int64), q, axis=1)
    lower_edge = (j == 0) & (k != 0)
    a[0, lower_edge] = q - q0 * (k[lower_edge] + 2)
    b[0, lower_edge] = 2 * q0
    a[0, 0] = b[0, 0] = c[0, 0] = 0  # j = k = 0: phi = l
    upper_edge = j == q0 - 1
    a[1, upper_edge] = q - q0 * (k[upper_edge] + 1)
    b[1, upper_edge] = 2 * q0
    return a, b, c


def phi_values(p: CurveParams, idx: np.ndarray) -> np.ndarray:
    """Vectorised ``phi`` over an int64 index array inside [0, g0)."""
    g0 = quartic_multiplicity(p)
    upper = idx > p.q * (p.q - 2) // 2
    mirrored = np.where(upper, g0 - 1 - idx, idx)
    l = mirrored >> (2 * p.s + 1)  # q = 2^(2s+1)
    cell = mirrored & (p.q - 1)
    a, b, c = _cell_tables(p)
    half = upper.astype(np.intp)
    bump = np.maximum(a[half, cell] - b[half, cell] * l, 0) + l
    return c[half, cell] + np.where(upper, -bump, bump)


def rational_apery_stats(p: CurveParams) -> SemigroupStats:
    """Summary statistics of the rational-point semigroup, computed from its
    closed-form Apery set in fixed-size chunks (usable up to s = 6)."""
    q0, q = p.q0, p.q
    g0, g1, g2, g3, g4 = rational_generators(p).gens
    h = np.array([0, g1], dtype=np.int64)
    i = np.arange(q0, dtype=np.int64) * g2
    k = np.arange(q0, dtype=np.int64) * g4
    hik = (h[:, None, None] + i[None, :, None] + k[None, None, :]).ravel()
    jmax = q - 2 * q0
    genus = 0
    step = max(1, _CHUNK // hik.size)
    for j0 in range(0, jmax + 1, step):
        js = np.arange(j0, min(j0 + step, jmax + 1), dtype=np.int64) * g3
        vals = hik[:, None] + js[None, :]
        genus += int((vals // g0).sum())
    max_elt = g1 + (q0 - 1) * g2 + jmax * g3 + (q0 - 1) * g4
    conductor = 1 + max_elt - g0
    return SemigroupStats(g0, genus, conductor, conductor - 1, conductor == 2 * genus)


def quartic_apery_stats(p: CurveParams) -> SemigroupStats:
    """Summary statistics of the quartic-point semigroup from every phi(i).

    The lower range [0, q(q-2)/2] is q/2 - 1 whole rows of the cell tables
    plus the single index q(q-2)/2 (cell 0 of the next row); the upper range
    mirrors onto q/2 whole rows.  Each block of rows is evaluated in one
    reused buffer with in-place arithmetic, summed, and turned into Apery
    elements phi(i)*g0 + i for the maximum.
    """
    q = p.q
    g0 = quartic_multiplicity(p)
    split = q * (q - 2) // 2
    a, b, c = _cell_tables(p)
    cells = np.arange(q, dtype=np.int64)
    buf = np.empty((_ROWS, q), dtype=np.int64)
    last = phi(p, split)
    genus = last
    max_elt = last * g0 + split
    for half, rows in ((0, q // 2 - 1), (1, q // 2)):
        signed_cells = -cells if half else cells
        for l0 in range(0, rows, _ROWS):
            l = np.arange(l0, min(l0 + _ROWS, rows), dtype=np.int64)[:, None]
            blk = buf[: l.shape[0]]
            np.multiply(b[half], -l, out=blk)
            blk += a[half]
            np.maximum(blk, 0, out=blk)
            blk += l
            if half:
                np.negative(blk, out=blk)
            blk += c[half]
            genus += int(blk.sum())
            # Apery element phi*g0 + i, with i = l*q + cell or g0 - 1 - (l*q + cell).
            blk *= g0
            blk += signed_cells
            row_base = l * q if not half else g0 - 1 - l * q
            max_elt = max(max_elt, int((blk.max(axis=1) + row_base[:, 0]).max()))
    if genus != p.genus:
        raise SumMismatch(f"sum of offsets is {genus}, genus is {p.genus}")
    conductor = 1 + max_elt - g0
    return SemigroupStats(g0, genus, conductor, conductor - 1, conductor == 2 * genus)
