"""General numerical-semigroup engine based on Apery sets.

A numerical semigroup is a subset of the naturals containing 0, closed
under addition, with finite complement.  Everything here is driven by the
Apery set: for each residue class modulo the multiplicity m (the smallest
positive element), the least semigroup element in that class.  The Apery
set is the single-source shortest-path vector of the residue graph Z/mZ,
where each generator g contributes edges r -> (r + g) mod m of weight g
(Boecker & Liptak, Algorithmica 48, 2007).  It is built one generator at
a time by min-plus doubling, a few shifted adds and mins over the
residues per generator, in m * sum(ceil(log2(uses + 1))) with no heap,
where uses bounds how often one generator can lie on a shortest path.
The minimal generators of a given Apery array, and whether it describes
a set closed under addition, come from the reduced-cost optimality
conditions of shortest paths (Ahuja, Magnanti & Orlin, "Network Flows",
1993, ch. 5): each generator's edges are tested against the array
itself, by the same shifted add and min, with no new path computed.
Membership, gaps, genus, conductor and Frobenius number follow by direct
arithmetic:

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
    """Compute the Apery set of <gens> as shortest paths, by doubling.

    Start from <m>, m = min(gens), and add the other generators one at a
    time.  With D the Apery array so far, adding a gives
    D'[r] = min over j >= 0 of D[(r - j*a) mod m] + j*a.  Only j with
    j*a <= max(D) and j < m / gcd(a, m) can improve an entry; call the
    largest such j uses.  Starting from E = D, each :func:`_relax` pass
    E = min(E, shift(E, 2**i * a) + 2**i * a) doubles the j covered, so
    ceil(log2(uses + 1)) passes over m add a.

    Every Apery element is a sum of at most m - 1 generators, so the
    "unreached" sentinel (m - 1) * max(gens) + 1 lies above them all.
    Every value formed is at most 2 * max(D) <= 2 * unreached <=
    unreached + m * max(gens), so the array is int64 when that fits and
    holds Python ints otherwise.  Raises :class:`Overflow` when an Apery
    element exceeds 64 bits unsigned.
    """
    gens = gen_set.gens
    m = gens[0]
    if m == 1:
        return SemigroupProfile(1, (0,), 0, 0, -1)
    unreached = (m - 1) * gens[-1] + 1
    fits = unreached + m * gens[-1] <= np.iinfo(np.int64).max
    dist = np.full(m, unreached, dtype=np.int64 if fits else object)
    dist[0] = 0
    scratch = np.empty_like(dist)
    for a in gens[1:]:
        uses = min(int(dist.max()) // a, m // math.gcd(a, m) - 1)
        span = 1
        while span <= uses:
            _relax(dist, dist, span * a, scratch)
            span *= 2
    # gcd(gens) == 1 guarantees every residue class is reached.
    top = int(dist.max())
    if top > U64_MAX:
        raise Overflow(f"Apery element exceeds 64 bits at residue {top % m}")
    conductor = 1 + top - m
    return SemigroupProfile(m, tuple(dist.tolist()), int((dist // m).sum()),
                            conductor, conductor - 1)


def _relax(best: np.ndarray, dist: np.ndarray, w: int, scratch: np.ndarray) -> None:
    """best[r] = min(best[r], dist[(r - w) mod m] + w) for every residue r:
    two slice adds into ``scratch`` and one minimum in place."""
    m = len(dist)
    k = w % m
    np.add(dist[:m - k], w, out=scratch[k:])
    np.add(dist[m - k:], w, out=scratch[:k])
    np.minimum(best, scratch, out=best)


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
    """Minimal generating set, found and certified by the tight edges of
    the Apery array D = ``p.apery``.

    Hold best[r] = min over the generators g found so far of
    D[(r - g) mod m] + g; the multiplicity m contributes D + m.  Walk the
    nonzero Apery elements in increasing order, in windows [j*m, (j+1)*m).
    An element w is a new minimal generator iff best[w mod m] > w.  Every
    generator that could reach w lies below w - m, since the Apery element
    it leaves from exceeds m, so an earlier window has applied it.

    The walk ends with best == D, taking best[0] = 0, exactly when D is the
    Apery set of a semigroup: D[0] = 0, no edge improves D, and every
    other residue has a tight in-edge, D[r] = D[r - g] + g, whose chain
    strictly falls to residue 0.  Otherwise it raises :class:`NotClosed`,
    naming the first residue where the two differ, or a residue whose entry
    is not above m.
    """
    m = p.multiplicity
    fits = 2 * max(p.apery) <= np.iinfo(np.int64).max
    dist = np.array(p.apery, dtype=np.int64 if fits else object)
    best, scratch = dist + m, np.empty_like(dist)
    order = np.argsort(dist[1:]) + 1
    if m > 1 and dist[order[0]] <= m:
        raise NotClosed(f"residue {order[0]} holds {dist[order[0]]}, not above m = {m}")
    rows = dist[order] // m
    gens = [m]
    for window in np.split(order, np.flatnonzero(rows[1:] != rows[:-1]) + 1):
        for w in dist[window[best[window] > dist[window]]].tolist():
            gens.append(w)
            _relax(best, dist, w, scratch)
    best[0] = 0
    if not np.array_equal(best, dist):
        r = int(np.argmax(best != dist))
        raise NotClosed(f"generators reach {best[r]} at residue {r}, where the "
                        f"Apery set has {p.apery[r]}: not closed under addition")
    return tuple(gens)
