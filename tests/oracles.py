"""Independent brute-force oracles used only by the tests.

The dynamic-programming sieve recomputes semigroup membership from first
principles (n is a member iff n == 0 or n - g is a member for some
generator g), with no shortest-path machinery involved, so it can sit on
the other side of every equality the Apery engine is asserted against.
The family value and the per-record witness seed restate, one record at a
time in plain Python, the paper's displayed family expressions and the
witness monomials that ``families._family`` lists beside each family's
offset, and the witness cost reads each exponent against its building block
by name.  The scatter
mask marks the generic gaps value by value, and the row oracle adds them to
their residues one by one, where ``families.kunz_counts`` counts whole
progression rows per residue.  The phi formula
restates the paper's piecewise offset map over whole index arrays, with
none of the per-cell tables that ``skabelund.curve`` streams its Apery sets from.
The cell-sum oracle sums those tables as one numpy array, taking each
cell's peak as the largest of four candidate rows, where ``curve._cell_sums``
walks the cells in Python ints and picks at most two.
"""

from __future__ import annotations

import math
import random

import numpy as np

from skabelund import DuplicateGap, FamilyId, GapRecord, WitnessVector, pole_order_table
from skabelund import families


def sieve_members(gens: list[int], limit: int) -> bytearray:
    """Membership table of <gens> on [0, limit) by dynamic programming."""
    gens = sorted(gens)
    reach = bytearray(limit)
    reach[0] = 1
    for n in range(1, limit):
        for g in gens:
            if g > n:
                break
            if reach[n - g]:
                reach[n] = 1
                break
    return reach


def sieve_gaps(gens: list[int], limit: int) -> list[int]:
    """All gaps of <gens> below limit; complete if limit exceeds the conductor."""
    reach = sieve_members(gens, limit)
    return [n for n in range(limit) if not reach[n]]


def sieve_window(gens: list[int]) -> int:
    """min(gens) * max(gens) strictly exceeds the largest gap."""
    return min(gens) * max(gens)


def sieve_minimal_generators(gens: list[int]) -> list[int]:
    """The positive members of <gens> on the DP sieve that are not a sum of
    two positive members.  A member above max(gens) is a sum of at least
    two generators, so the sieve up to max(gens) holds every candidate."""
    limit = max(gens) + 1
    reach = sieve_members(gens, limit)
    positive = [n for n in range(1, limit) if reach[n]]
    bits = int("".join("1" if reach[n] else "0" for n in reversed(range(limit))), 2) & ~1
    sums = 0  # bit n set: n = a + b for positive members a <= b
    for a in positive:
        if 2 * a >= limit:
            break
        sums |= bits << a
    return [n for n in positive if not sums >> n & 1]


def closed_apery(m: int, apery: list[int]) -> bool:
    """True iff ``apery`` is the Apery set, with respect to its least
    positive element m, of a set closed under addition: apery[0] == 0, each
    other apery[r] is congruent to r and above m, and each pair sums to at
    least the entry of its residue.  The members of residue r are
    apery[r] + k*m, so those pairs cover every sum."""
    if apery[0] != 0 or any(a % m != r or a <= m for r, a in enumerate(apery) if r):
        return False
    return all(a + b >= apery[(r + t) % m]
               for r, a in enumerate(apery) for t, b in enumerate(apery))


def random_generator_list(rng: random.Random) -> list[int]:
    """A random gcd-1 generator list with multiplicity <= 50, values <= 500."""
    while True:
        head = rng.randint(2, 50)
        tail = [rng.randint(2, 500) for _ in range(rng.randint(1, 5))]
        vals = sorted(set([head] + tail))
        if math.gcd(*vals) == 1:
            return vals


def family_seed(p, record: GapRecord) -> WitnessVector:
    """Read a witness straight off the family parameters of one record.

    The F1/F2/F3/F5 offsets each match one building block (nothing, h_n,
    g_n, f1^c * f2^d).  The remaining two offsets are products: for F4,
    g_0 * g_n supplies (2n+2)q0q + n + 2, and for F6, f1 * g_n supplies
    (2n+2)q0q + q0 + n + 1.
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


def witness_fields(w: WitnessVector) -> list[int]:
    """The exponents of a witness in field order (a1, a2, a3, a4, f, b, c,
    d, e), the row order of the witness in ``families.witness_windows``."""
    return [w.a1, w.a2, w.a3, w.a4, w.f, *w.b, w.c, w.d, *w.e]


def witness_cost(p, w: WitnessVector) -> tuple[int, int]:
    """(vanishing order at the point, pole order at infinity) of a witness
    monomial: a1..a4 raise x, y, z, w, f raises pi, b raises h, c raises
    f1, d raises f2 and e raises g, each read from ``pole_order_table``."""
    t = pole_order_table(p)
    terms = [(t.x, w.a1), (t.y, w.a2), (t.z, w.a3), (t.w, w.a4), (t.pi, w.f),
             *zip(t.h, w.b, strict=True), (t.f1, w.c), (t.f2, w.d),
             *zip(t.g, w.e, strict=True)]
    return (sum(block[0] * k for block, k in terms),
            sum(block[1] * k for block, k in terms))


def nu_of(p, fp) -> int:
    """nu = a1 + a2*q0 + a3*2*q0 + a4*q + f*q^2 of one parameter tuple."""
    q0, q = p.q0, p.q
    return fp.a1 + fp.a2 * q0 + fp.a3 * 2 * q0 + fp.a4 * q + fp.f * q * q


def family_value(p, fid: FamilyId, fp) -> int:
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


def scatter_gap_mask(p) -> tuple[np.ndarray, dict[FamilyId, int]]:
    """Expand each family's rows into values and scatter them one by one
    into a bool array over [0, 2g), with the errors of ``kunz_counts``: the
    first value outside [1, 2g) in the first family holding one, then the
    first value produced twice in enumeration order."""
    limit = 2 * p.genus
    marked = np.zeros(limit, dtype=bool)
    counts = {}
    every = []
    for fid in FamilyId:
        values = families._expand(families._family_rows(p, fid))
        outside = (values < 1) | (values >= limit)
        if outside.any():
            raise RuntimeError(f"gap value {values[outside][0]} outside [1, {limit})")
        marked[values] = True
        counts[fid] = len(values)
        every.append(values)
    if np.count_nonzero(marked) != sum(counts.values()):
        every = np.concatenate(every)
        repeat = np.ones(len(every), dtype=bool)
        repeat[np.unique(every, return_index=True)[1]] = False
        raise DuplicateGap(f"value {every[np.argmax(repeat)]} produced twice")
    return marked, counts


def add_rows_oracle(lo: np.ndarray, length: np.ndarray, step: int,
                    m: int) -> tuple[np.ndarray, np.ndarray]:
    """The count and the value sum of each residue modulo m over the rows
    lo, lo + step, ... (``length`` values each), value by value in Python
    ints, as int64 arrays: what ``families._add_rows`` adds in."""
    k, total = [0] * m, [0] * m
    for first, n in zip(lo.tolist(), length.tolist()):
        for j in range(n):
            value = first + j * step
            k[value % m] += 1
            total[value % m] += value
    return np.array(k, dtype=np.int64), np.array(total, dtype=np.int64)


def phi_formula(p, idx: np.ndarray) -> np.ndarray:
    """phi1 on 0 <= i <= q(q-2)/2 and phi2 above it, transcribed from the
    paper through i = l*q + k*q0 + j (phi2 through g0 - 1 - i), for an
    int64 index array inside [0, g0)."""
    q0, q = p.q0, p.q
    g0 = q * q - q + 1
    upper = idx > q * (q - 2) // 2
    i = np.where(upper, g0 - 1 - idx, idx)
    j, k, l = i % q0, (i // q0) % (2 * q0), i // q
    inner = np.maximum(q - q0 * ((k + 1) // 2 + j + l + 1), 0)
    phi1 = np.where(k == 0, l, l + 1 + np.maximum(q - q0 * (k + 2 * l + 2), 0))
    phi1 = np.where(j == 0, phi1, l + 1 + inner)
    phi2 = q - l - 1 - np.where(j == q0 - 1, np.maximum(q - q0 * (k + 2 * l + 1), 0), inner)
    return np.where(upper, phi2, phi1)


def cell_sums_oracle(cells) -> tuple[int, int, int]:
    """(count, exact sum, largest element) of a ``skabelund.curve`` cell
    table, as one (6, n) int64 array: in a cell, the t rows with
    a - b*l > 0 add w*(t*a - b*t(t-1)/2) on top of the arithmetic
    progression e + d*l, and the piecewise-linear element peaks at row 0,
    t - 1, t or L - 1."""
    e, d, w, a, b, rows = np.array([*zip(*cells)], dtype=np.int64)
    t = np.clip(-(-a // b), 0, rows)
    sums = rows * e + d * (rows * (rows - 1) // 2) + w * (t * a - b * (t * (t - 1) // 2))
    tops = []
    for l in (0, rows - 1, t - 1, t):
        l = np.clip(l, 0, rows - 1)
        tops.append(int((e + d * l + w * np.maximum(a - b * l, 0)).max()))
    return int(rows.sum()), sum(sums.tolist()), max(tops)  # the sum passes 2^63 at s = 6
