"""Parameters of the Skabelund curve and closed-form semigroup data.

The curve is the cyclic degree-(q - 2q0 + 1) cover of the Suzuki curve,
with q0 = 2^s and q = 2*q0^2.  Its points fall into three classes with
three distinct Weierstrass semigroups; this module provides the two
special classes in closed form:

* rational points (defined over F_q): five generators, and an Apery set
  given by a four-parameter box of generator combinations;
* quartic points (defined over F_{q^4} but not F_q): 3*q0 + 3 generators,
  and an Apery set {phi(i) * g0 + i} driven by the piecewise map phi.

Each Apery set is written once, as a table of cells that the summary
statistics sum in closed form and that :func:`special_profile` expands
into Kunz coordinates.  Generic points are handled in :mod:`skabelund.families`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .errors import DuplicateResidue, OutOfDomain, SumMismatch, UnsupportedS
from .semigroup import GeneratorSet, SemigroupProfile, SemigroupStats

S_MAX = 6  # keeps every derived quantity (~q^3) far inside 64 bits


class CurveParams(NamedTuple):
    """The parameter triple (s, q0, q) with derived genus."""

    s: int
    q0: int
    q: int
    genus: int
    two_g_minus_2: int


class PoleOrderTable(NamedTuple):
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
    if not isinstance(s, int) or isinstance(s, bool) or not 1 <= s <= S_MAX:
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
    over the box 0<=h<=1, 0<=i<=q0-1, 0<=j<=q-2q0, 0<=k<=q0-1."""
    return frozenset(special_profile(p, "rational").apery_array().tolist())


def quartic_generators(p: CurveParams) -> GeneratorSet:
    """The 3*q0 + 3 generators of the semigroup at a quartic point.

    Collisions among the listed values, if any, are silently deduplicated;
    the list is minimal, checked for s <= 4.
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
    """Apery set at a quartic point: {phi(i)*g0 + i | 0 <= i < g0}."""
    return frozenset(special_profile(p, "quartic").apery_array().tolist())


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
# Apery-set cell tables.  A table yields, for each of its cells, a tuple
# (e, d, w, a, b, L) of Python ints with b > 0 and L > 0; row l < L of a cell
# is the Apery element e + d*l + w*max(a - b*l, 0).  The stats sum each cell
# in closed form; only the sets and phi_values expand the table, block by
# block, and only that expansion builds arrays.

_BLOCK = 1 << 16  # elements per expanded block; small blocks keep temporaries in cache


def _rational_cells(p: CurveParams) -> Iterator[tuple[int, ...]]:
    """The rational box: cell (h, i, k) holds h*g1 + i*g2 + k*g4 + j*g3 in row j."""
    _, g1, g2, g3, g4 = rational_generators(p).gens
    box = range(p.q0)
    return ((e + i * g2 + k * g4, g3, 0, 0, 1, p.q - 2 * p.q0 + 1)
            for e in (0, g1) for i in box for k in box)


def _quartic_cells(p: CurveParams) -> Iterator[tuple[int, ...]]:
    """The quartic Apery elements phi(i)*g0 + i, in 2 x q cells.

    The lower range 0 <= i <= q(q-2)/2 is rows l of i = l*q + cell with
    cell = k*q0 + j, cut after the split index (cell 0 of row q/2 - 1, where
    phi = l), so cells other than 0 get q/2 - 1 rows.  The upper range
    mirrors onto q/2 whole rows of g0 - 1 - i = l*q + cell.  In half
    h = 0, 1 the element is e + (-1)^h * (g0*max(a - b*l, 0) + (g0 + q)*l),
    with a, b, e read off phi1 and phi2.
    """
    q0, q = p.q0, p.q
    g0 = quartic_multiplicity(p)
    for upper in (False, True):
        for cell in range(q):
            j, k = cell % q0, cell // q0
            a, b = q - q0 * ((k + 1) // 2 + j + 1), q0
            if upper:
                if j == q0 - 1:
                    a, b = q - q0 * (k + 1), 2 * q0
                yield q * g0 - 1 - cell, -g0 - q, -g0, a, b, q // 2
            elif cell == 0:  # j = k = 0: phi = l
                yield 0, g0 + q, g0, 0, b, q // 2
            else:
                if j == 0:
                    a, b = q - q0 * (k + 2), 2 * q0
                yield g0 + cell, g0 + q, g0, a, b, q // 2 - 1


def _expand(cells: Iterable[tuple[int, ...]]):
    """The elements of a cell table, whole rows of about _BLOCK elements at a
    time: row l of every cell, e + d*l + w*max(a - b*l, 0), in one buffer."""
    import numpy as np

    e, d, w, a, b, rows = np.array([*zip(*cells)], dtype=np.int64)
    depth = int(rows.max())
    step = max(1, _BLOCK // rows.size)
    for l0 in range(0, depth, step):
        l = np.arange(l0, min(l0 + step, depth), dtype=np.int64)[:, None]
        x = b * -l
        x += a
        np.maximum(x, 0, out=x)
        x *= w
        x += d * l
        x += e
        yield x[l < rows]


def _cell_sums(cells: Iterable[tuple[int, ...]]) -> tuple[int, int, int]:
    """(count, exact sum, largest element) of a cell table in O(cells).

    In a cell, the t rows with a - b*l > 0 add w*(t*a - b*t(t-1)/2) on top
    of the arithmetic progression e + d*l.  The element is linear on rows
    [0, t), with slope d - w*b, and on [t, L), with slope d, so it peaks at
    an end of one of the two, picked by the slope's sign.  The top starts
    at 0, which every Apery set holds.
    """
    count = total = top = 0
    for e, d, w, a, b, rows in cells:
        t = min(-(-a // b), rows) if a > 0 else 0
        count += rows
        total += rows * e + d * (rows * (rows - 1) // 2) + w * (t * a - b * (t * (t - 1) // 2))
        if t:
            slope = d - w * b
            top = max(top, e + w * a + (slope * (t - 1) if slope > 0 else 0))
        if t < rows:
            top = max(top, e + d * (rows - 1 if d > 0 else t))
    return count, total, top


def special_profile(p: CurveParams, point: str) -> SemigroupProfile:
    """The profile of the "rational" or "quartic" class: k[r] = a_r div m for
    the closed-form Apery element a_r of residue r (k is phi, if quartic).

    Each expanded block is scattered into k as it comes, beside a mask of
    the residues seen and a running count, exact sum and largest element.
    A repeated residue is named at its first repeat in expansion order, and
    the elements must pass the checks of ``_stats``; either failure means a
    transcription bug.
    """
    import numpy as np

    m, cells = {"rational": (rational_generators(p).gens[0], _rational_cells),
                "quartic": (quartic_multiplicity(p), _quartic_cells)}[point]
    k, seen = np.empty(m, dtype=np.int64), np.zeros(m, dtype=bool)
    count = total = top = 0
    for block in _expand(cells(p)):
        count += block.size
        total += int(block.sum())  # exact: a block sums below 2^63 up to s = 6
        top = max(top, int(block.max()))
        residues = block % m
        block //= m
        seen[residues] = True
        k[residues] = block
    if np.count_nonzero(seen) < count:
        _first_repeat(m, _expand(cells(p)))
    _stats(p, m, count, total, top)
    return SemigroupProfile(k)


def _first_repeat(m: int, blocks) -> None:
    """Raise :class:`DuplicateResidue` at the first element, in block order,
    whose residue modulo m an earlier element holds."""
    import numpy as np

    seen = np.zeros(m, dtype=bool)
    for block in blocks:
        residues = block % m
        fresh = np.zeros(block.size, dtype=bool)
        fresh[np.unique(residues, return_index=True)[1]] = True
        fresh &= ~seen[residues]
        if not fresh.all():
            at = int(np.argmin(fresh))
            raise DuplicateResidue(f"residue {residues[at]} hit twice at value {block[at]}")
        seen[residues] = True


def _stats(p: CurveParams, m: int, count: int, total: int, top: int) -> SemigroupStats:
    """Summary statistics from the count, sum and largest element of the
    Apery elements a_r at multiplicity m.  Because a_r = r (mod m), they
    add up to m*genus + m(m-1)/2, so the genus needs no division per element.
    """
    if count != m:
        raise SumMismatch(f"{count} Apery elements for multiplicity {m}")
    genus, rem = divmod(total - m * (m - 1) // 2, m)
    if rem:
        raise SumMismatch(f"Apery elements add up to {total}, not m*genus + m(m-1)/2 for m = {m}")
    if genus != p.genus:
        raise SumMismatch(f"sum of offsets is {genus}, genus is {p.genus}")
    conductor = 1 + top - m
    return SemigroupStats(m, genus, conductor, conductor - 1, conductor == 2 * genus)


def phi_values(p: CurveParams, idx: np.ndarray) -> np.ndarray:
    """Vectorised ``phi`` over an int64 index array inside [0, g0).

    It builds the whole quartic profile, all of [0, g0), and reads
    phi(i) = k[i] off it, so it costs O(g0) whatever the size of idx.
    """
    g0 = quartic_multiplicity(p)
    bad = idx[(idx < 0) | (idx >= g0)]
    if bad.size:
        raise OutOfDomain(f"phi index {bad[0]} outside 0..{g0 - 1}")
    return special_profile(p, "quartic").k[idx]


def rational_apery_stats(p: CurveParams) -> SemigroupStats:
    """Summary statistics of the rational-point semigroup, summed in closed
    form over the cells of its Apery box (usable up to s = 6)."""
    return _stats(p, rational_generators(p).gens[0], *_cell_sums(_rational_cells(p)))


def quartic_apery_stats(p: CurveParams) -> SemigroupStats:
    """Summary statistics of the quartic-point semigroup, summed in closed
    form over the cells of every phi(i)*g0 + i (usable up to s = 6)."""
    return _stats(p, quartic_multiplicity(p), *_cell_sums(_quartic_cells(p)))
