"""General numerical-semigroup engine based on Apery sets.

A numerical semigroup is a subset of the naturals containing 0, closed
under addition, with finite complement.  Everything here is driven by the
Apery set: for each residue class modulo the multiplicity m (the smallest
positive element), the least semigroup element in that class.  The Apery
set is the single-source shortest-path vector of the residue graph Z/mZ,
where each generator g contributes edges r -> (r + g) mod m of weight g.
It is computed by the round-robin sweep of Boecker & Liptak ("A fast and
simple algorithm for the money changing problem", Algorithmica 48, 2007):
one generator at a time, one vectorised pass per residue cycle, in
O(k * m) with no heap.  The same pass, applied to the Apery elements in
increasing order, picks out the minimal generators and decides whether an
Apery array describes a set closed under addition.  Membership, gaps,
genus, conductor and Frobenius number follow by direct arithmetic:

    n in S          iff  n >= apery[n mod m]
    genus           =    sum(a // m for a in apery)
    conductor       =    1 + max(apery) - m
    frobenius       =    conductor - 1        (-1 when S is all of N)
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from .errors import EmptyInput, NonCoprime, NotClosed, Overflow

U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class GeneratorSet:
    """Strictly increasing positive integers with overall gcd 1."""

    gens: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.gens:
            raise EmptyInput("generator set is empty")
        if self.gens[0] < 1:
            raise ValueError(f"generators must be positive, got {self.gens[0]}")
        if any(a >= b for a, b in zip(self.gens, self.gens[1:])):
            raise ValueError("generators must be strictly increasing")
        if math.gcd(*self.gens) != 1:
            raise NonCoprime(f"gcd({', '.join(map(str, self.gens))}) != 1")


@dataclass(frozen=True)
class SemigroupProfile:
    """A numerical semigroup in Apery normal form.

    ``apery[r]`` is the least semigroup element congruent to r modulo the
    multiplicity; ``apery[0] == 0`` always.
    """

    multiplicity: int
    apery: tuple[int, ...]
    genus: int
    conductor: int
    frobenius: int

    @classmethod
    def from_apery(cls, apery: Iterable[int]) -> "SemigroupProfile":
        ap = tuple(apery)
        m = len(ap)
        genus = sum(a // m for a in ap)
        conductor = 1 + max(ap) - m
        return cls(m, ap, genus, conductor, conductor - 1)


@dataclass(frozen=True)
class SemigroupStats:
    """Summary numbers of a semigroup, detached from its Apery array."""

    multiplicity: int
    genus: int
    conductor: int
    frobenius: int
    symmetric: bool

    @classmethod
    def from_profile(cls, p: SemigroupProfile) -> "SemigroupStats":
        return cls(p.multiplicity, p.genus, p.conductor, p.frobenius, is_symmetric(p))


@dataclass(frozen=True)
class GapSet:
    """Sorted gap values, all below ``bound``.

    The complement of a valid gap set is cofinite and closed under
    addition; that closure is checked separately by
    :func:`verify_cofinite_complement`, not at construction time.
    """

    gaps: tuple[int, ...]
    bound: int

    def __post_init__(self) -> None:
        g = self.gaps
        if not all(map(operator.lt, g, islice(g, 1, None))):
            raise ValueError("gaps must be strictly increasing")
        if self.gaps:
            if self.gaps[0] < 1:
                raise ValueError("0 cannot be a gap")
            if self.gaps[-1] >= self.bound:
                raise ValueError("all gaps must lie below the bound")


def normalize_generators(raw: Iterable[int]) -> GeneratorSet:
    """Sort, deduplicate and validate a raw list of generators."""
    values = sorted(set(raw))
    if not values:
        raise EmptyInput("generator set is empty")
    if values[0] < 1:
        raise ValueError(f"generators must be positive, got {values[0]}")
    return GeneratorSet(tuple(values))


def profile_from_generators(gen_set: GeneratorSet) -> SemigroupProfile:
    """Compute the Apery set of <gens> by the Boecker-Liptak round robin:
    start from <m>, m = min(gens), and add the other generators one at a
    time with :func:`_add_generator`.  Runs in O(k * m) for k generators,
    with no heap.

    Every Apery element is a sum of at most m - 1 generators, so the
    "unreached" sentinel (m - 1) * max(gens) + 1 lies above them all.
    Raises :class:`Overflow` when an Apery element exceeds 64 bits
    unsigned.
    """
    gens = gen_set.gens
    m = gens[0]
    if m == 1:
        return SemigroupProfile(1, (0,), 0, 0, -1)
    dist = _multiples_of(m, (m - 1) * gens[-1] + 1, gens[-1])
    for a in gens[1:]:
        _add_generator(dist, a)
    # gcd(gens) == 1 guarantees every residue class is reached.
    apery = dist.tolist()
    top = max(apery)
    if top > U64_MAX:
        raise Overflow(f"Apery element exceeds 64 bits at residue {top % m}")
    return SemigroupProfile.from_apery(apery)


def _multiples_of(m: int, unreached: int, top: int) -> np.ndarray:
    """The Apery array of <m> alone: 0 at residue 0, ``unreached`` elsewhere.

    Adding generators up to ``top`` keeps every value the sweep forms
    within m * top of ``unreached``, so the array is int64 when that fits
    and holds Python ints otherwise.
    """
    fits = unreached + m * top <= np.iinfo(np.int64).max
    dist = np.full(m, unreached, dtype=np.int64 if fits else object)
    dist[0] = 0
    return dist


def _add_generator(dist: np.ndarray, a: int) -> None:
    """One round-robin pass: lower the Apery array ``dist`` in place to
    that of the semigroup it describes with the generator a added.

    a splits Z/mZ into d = gcd(a, m) cycles r -> r + a of length L = m / d.
    Along a cycle with entries v_0 .. v_{L-1}, the shortest paths that may
    also use a are

        w_k = k*a + min(min_{j <= k} (v_j - j*a), min_j (v_j - j*a) + L*a),

    where the second term enters the cycle by wrapping past its end once;
    wrapping twice never helps.  That is one ``np.minimum.accumulate`` per
    cycle, all cycles at once.
    """
    m = len(dist)
    step = a % m
    if step == 0:  # self-loops in the residue graph never improve a distance
        return
    d = math.gcd(step, m)
    length = m // d
    # cycles[p, t] = (p + t*a) mod m, one row per cycle; the offsets are
    # multiples of d below m, so p + offset needs no reduction.
    offsets = np.arange(length, dtype=np.int64) * step % m
    cycles = np.arange(d, dtype=np.int64)[:, None] + offsets
    walked = np.arange(length, dtype=dist.dtype) * a
    vals = dist[cycles] - walked
    wrapped = vals.min(axis=1) + length * a
    np.minimum(vals[:, 0], wrapped, out=vals[:, 0])
    np.minimum.accumulate(vals, axis=1, out=vals)
    vals += walked
    dist[cycles] = vals


def contains(p: SemigroupProfile, n: int) -> bool:
    """Membership test: n belongs to the semigroup iff n >= apery[n mod m]."""
    if n < 0:
        return False
    return n >= p.apery[n % p.multiplicity]


def gaps_of(p: SemigroupProfile) -> GapSet:
    """All gaps of the semigroup; n is a gap iff n < apery[n mod m].

    With n = k*m + r, that reads k < (apery[r] - r) / m, so the gaps are
    the flat indices, in order, where a (rows, m) table of it holds.
    """
    m = p.multiplicity
    heights = (np.asarray(p.apery, dtype=np.int64) - np.arange(m)) // m
    gaps = np.flatnonzero(np.arange(heights.max())[:, None] < heights).tolist()
    return GapSet(tuple(gaps), p.conductor)


def is_symmetric(p: SemigroupProfile) -> bool:
    """True iff the conductor equals twice the genus."""
    return p.conductor == 2 * p.genus


def verify_cofinite_complement(gs: GapSet) -> bool:
    """Check that the complement of a gap set is closed under addition.

    Only sums x + y below ``gs.bound`` are examined; closure above the
    largest gap is automatic.  Implemented as bitset sweeps: one shift-and
    per positive complement element.
    """
    bound = gs.bound
    if bound <= 0:
        return True
    gap_bits = 0
    for v in gs.gaps:
        gap_bits |= 1 << v
    mask = (1 << bound) - 1
    comp = mask & ~gap_bits
    cur = comp >> 1  # positive elements only; x + 0 is trivially fine
    x = 1
    while cur:
        shift = (cur & -cur).bit_length() - 1
        x += shift
        cur >>= shift
        if (comp << x) & gap_bits:
            return False
        cur >>= 1
        x += 1
    return True


def minimal_generators(p: SemigroupProfile) -> tuple[int, ...]:
    """Minimal generating set, by one round-robin sweep over the Apery set.

    Start from <m> and walk the nonzero Apery elements in increasing order.
    An element w that the generators so far do not reach (w below their
    Apery element in its residue) is minimal: it is kept and added with
    :func:`_add_generator`.  Every other w is a sum of smaller generators.

    The kept elements lie in the set the Apery array describes, and they
    reach every Apery element, so the sweep ends on ``p.apery`` exactly
    when that set is closed under addition.  Otherwise it raises
    :class:`NotClosed`, naming the first residue that differs.
    """
    m = p.multiplicity
    top = max(p.apery)
    dist = _multiples_of(m, top + 1, top)
    gens = [m]
    for w in sorted(p.apery)[1:]:
        if w < dist[w % m]:
            gens.append(w)
            _add_generator(dist, w)
    reached = dist.tolist()
    if reached != list(p.apery):
        r = next(r for r, (x, y) in enumerate(zip(reached, p.apery)) if x != y)
        raise NotClosed(f"generators reach {reached[r]} at residue {r}, where the "
                        f"Apery set has {p.apery[r]}: not closed under addition")
    return tuple(gens)
