"""General numerical-semigroup engine in Kunz coordinates.

A numerical semigroup is a subset of the naturals containing 0, closed
under addition, with finite complement.  Modulo its multiplicity m (the
smallest positive element), residue r holds k[r] gaps, below its Apery
element r + m*k[r], the least semigroup element of r; k is the Kunz vector
(Kunz 1987; Rosales & Garcia-Sanchez 2009), and everything here runs on
it.  The Apery set is the shortest-path vector of the residue graph Z/mZ,
where each generator g gives edges r -> (r + g) mod m of weight g (Boecker
& Liptak, Algorithmica 48, 2007); on k, an edge of weight w adds w div m,
plus one where it wraps past m.  k is built one generator at a time by
min-plus doubling, a few shifted adds and mins over the residues per
generator, in m * sum(ceil(log2(uses + 1))) with no heap, where uses
bounds how often one generator can lie on a shortest path.  The minimal
generators of a profile, and whether it is closed under addition, come
from the reduced-cost optimality conditions of shortest paths (Ahuja,
Magnanti & Orlin, "Network Flows", 1993, ch. 5): each generator's edges
are tested against k itself by the same shifted add and min, the one
closure check here, gap sets included.  Both kernels run in the narrowest
of int16, int32 and int64 that holds every k they form (:func:`_narrow`);
a profile holds k as int64, or as Python ints past that.  The rest
follows by direct arithmetic:

    n in S          iff  n div m >= k[n mod m]
    gaps            =    r + j*m for every r and j < k[r]
    genus           =    sum(k)
    conductor       =    1 + max(r + m*k[r]) - m
    frobenius       =    conductor - 1        (-1 when S is all of N)
"""

from __future__ import annotations

import math
import operator
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from .errors import EmptyInput, NonCoprime, NotClosed, Overflow

U64_MAX = 2**64 - 1


class GeneratorSet(NamedTuple("GeneratorSet", [("gens", tuple[int, ...])])):
    """Strictly increasing positive Python ints (not bools) with overall gcd 1."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "GeneratorSet":
        self = super().__new__(cls, *args, **kwargs)
        if not self.gens:
            raise EmptyInput("generator set is empty")
        for g in self.gens:  # the engine needs int arithmetic: bit_length, gcd, shifts
            if type(g) is not int:
                raise ValueError(f"generators must be ints, got {g!r} of type {type(g).__name__}")
        if self.gens[0] < 1:
            raise ValueError(f"generators must be positive, got {self.gens[0]}")
        if any(a >= b for a, b in zip(self.gens, self.gens[1:])):
            raise ValueError("generators must be strictly increasing")
        if math.gcd(*self.gens) != 1:
            raise NonCoprime(f"gcd({', '.join(map(str, self.gens))}) != 1")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too


class SemigroupProfile:
    """A numerical semigroup in Kunz coordinates: residue r modulo m = len(k)
    holds the k[r] gaps r + j*m, j < k[r], below its Apery element r + m*k[r].
    ``k`` is a read-only view, int64 when every Apery element fits and of
    Python ints otherwise; the summary numbers are Python ints.  ValueError
    refuses a k not one-dimensional of integers; NotClosed names the first
    residue that breaks k[0] = 0 or, for r > 0, k[r] >= 1 (an Apery element
    not above m).  Fields are read-only; equal k means equal profiles."""

    __slots__ = ("k", "multiplicity", "genus", "conductor", "frobenius")

    def __init__(self, k: np.ndarray) -> None:
        import numpy as np

        k = np.asarray(k)
        if not k.size:
            raise EmptyInput("Kunz vector is empty")
        _require_integers(k)
        m, top = len(k), _largest(k)
        if k[0] != 0:
            raise NotClosed(f"residue 0 holds {m * int(k[0])}: not in Apery normal form for m = {m}")
        if m > 1 and k[1:].min() <= 0:
            r = 1 + int(np.argmax(k[1:] <= 0))
            raise NotClosed(f"residue {r} holds {r + m * int(k[r])}, not above m = {m}")
        k = k.astype(np.int64 if top < 2**63 else object, copy=False).view()
        k.flags.writeable = False
        for name, value in zip(self.__slots__, (k, m, int(k.sum()), 1 + top - m, top - m)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        import numpy as np

        return isinstance(other, SemigroupProfile) and np.array_equal(self.k, other.k)

    def apery_array(self) -> np.ndarray:
        """The Apery set in residue order, r + m*k[r], in the dtype of k."""
        import numpy as np

        apery = self.k * self.multiplicity
        apery += np.arange(self.multiplicity)
        return apery

    @property
    def apery(self) -> tuple[int, ...]:
        """:meth:`apery_array` as a tuple of Python ints."""
        return tuple(self.apery_array().tolist())

    @classmethod
    def from_apery(cls, apery: Iterable[int]) -> "SemigroupProfile":
        """The profile of an Apery array in normal form, entry r congruent to r
        mod m (entry 0 zero, checked by the profile); ValueError refuses
        entries that are not integers, as the profile does, and NotClosed
        names the first residue off normal form."""
        import numpy as np

        ap = list(apery)
        if not ap:
            raise EmptyInput("Apery set is empty")
        _require_integers(np.asarray(ap))  # before the int64 cast truncates a float
        m = len(ap)
        fits = -(2**63) <= min(ap) and max(ap) < 2**63
        k = np.array(ap, dtype=np.int64 if fits else object)
        bad = k % m != np.arange(m)
        if bad.any():
            r = int(np.argmax(bad))
            raise NotClosed(f"residue {r} holds {ap[r]}: not in Apery normal form for m = {m}")
        return cls(k // m)  # (a - r) // m, as r < m

    def blocks(self, size: int) -> Iterator[np.ndarray]:
        """The gaps in increasing order, as int64 arrays of at most ``size``
        values, never all at once.  Row j holds r + j*m for the residues r,
        in order, with k[r] > j: those of row j - 1 that remain."""
        import numpy as np

        m = self.multiplicity
        alive = np.arange(m)
        for j in range(int(self.k.max())):
            alive = alive[self.k[alive] > j]
            for i in range(0, alive.size, size):
                yield alive[i:i + size] + j * m


def _require_integers(k: np.ndarray) -> None:
    """ValueError unless k is one-dimensional of integers: an integer dtype,
    or an object array of Python ints (a float or bool k would be truncated)."""
    ints = k.dtype.kind in "iu" or k.dtype == object and all(type(x) is int for x in k.flat)
    if k.ndim != 1 or not ints:
        raise ValueError(f"Kunz vector must be 1-D of integers, got {k.ndim}-D {k.dtype}")


class SemigroupStats(NamedTuple):
    """Summary numbers of a semigroup, detached from its Apery array."""

    multiplicity: int
    genus: int
    conductor: int
    frobenius: int
    symmetric: bool

    @classmethod
    def from_profile(cls, p: SemigroupProfile) -> "SemigroupStats":
        return cls(p.multiplicity, p.genus, p.conductor, p.frobenius, is_symmetric(p))


class GapSet(NamedTuple("GapSet", [("gaps", tuple[int, ...]), ("bound", int)])):
    """Sorted gap values, all below ``bound``.

    The complement of a valid gap set is cofinite and closed under
    addition; :func:`verify_cofinite_complement` checks that closure, not
    construction.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "GapSet":
        self = super().__new__(cls, *args, **kwargs)
        g = self.gaps
        if not all(map(operator.lt, g, islice(g, 1, None))):
            raise ValueError("gaps must be strictly increasing")
        if g and g[0] < 1:
            raise ValueError("0 cannot be a gap")
        if g and g[-1] >= self.bound:
            raise ValueError("all gaps must lie below the bound")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too


def normalize_generators(raw: Iterable[int]) -> GeneratorSet:
    """Sort, deduplicate and validate a raw list of generators, each read as a
    Python int by ``operator.index`` (numpy integers pass, floats do not)."""
    return GeneratorSet(tuple(sorted(set(map(operator.index, raw)))))


def profile_from_generators(gen_set: GeneratorSet) -> SemigroupProfile:
    """Compute the Kunz coordinates of <gens> as shortest paths, by doubling.

    Start from <m>, m = min(gens), and add the other generators one at a
    time.  With D[r] = r + m*k[r], adding a gives D'[r] = min over j >= 0
    of D[(r - j*a) mod m] + j*a.  Only j with j*a <= max(D) and
    j < m / gcd(a, m) can improve an entry.  The largest j tried, uses,
    reads max(D) as m - 1 + m*max(k), from max(k) alone: less than one a
    above it, as a > m.  Each :func:`_relax` pass with w = 2**i * a doubles
    the j covered, so ceil(log2(uses + 1)) passes over m add a.

    Every Apery element is a sum of at most m - 1 generators, below
    m * max(gens): the "unreached" sentinel k = max(gens) lies above them
    all, and keeps uses at m / gcd(a, m) - 1 while it remains.  As
    w div m <= max(k), every k formed is at most 2 * max(gens) + 1, so the
    passes run in :func:`_narrow` of that bound; the profile widens k once,
    at the end.  Raises :class:`Overflow` when an Apery element exceeds 64
    bits unsigned.
    """
    import numpy as np

    gens, m = gen_set.gens, gen_set.gens[0]
    k = np.full(m, gens[-1], dtype=_narrow(2 * gens[-1] + 1))
    k[0] = 0
    scratch = np.empty_like(k)
    for a in gens[1:]:
        uses = min((m - 1 + m * int(k.max())) // a, m // math.gcd(a, m) - 1)
        for i in range(uses.bit_length()):
            _relax(k, k, a << i, scratch)
    del scratch  # before the profile's wider copy of k
    # gcd(gens) == 1 guarantees every residue class is reached.
    top = _largest(k)
    if top > U64_MAX:
        raise Overflow(f"Apery element exceeds 64 bits at residue {top % m}")
    return SemigroupProfile(k)


def _narrow(top: int) -> type:
    """The narrowest of int16, int32 and int64 that holds every value in
    [0, top], else object (Python ints)."""
    import numpy as np

    for dtype in (np.int16, np.int32, np.int64):
        if top <= np.iinfo(dtype).max:
            return dtype
    return object


def _relax(best: np.ndarray, k: np.ndarray, w: int, scratch: np.ndarray) -> None:
    """best[r] = min(best[r], k[(r - w) mod m] + w div m + [r < w mod m]) for
    every residue r: the edges of weight w, in Kunz coordinates.  Two slice
    adds into ``scratch``, the carry on the wrapped one, and one minimum."""
    import numpy as np

    m = len(k)
    q, t = divmod(w, m)
    np.add(k[:m - t], q, out=scratch[t:])
    np.add(k[m - t:], q + 1, out=scratch[:t])
    np.minimum(best, scratch, out=best)


def _largest(k: np.ndarray) -> int:
    """max(r + m*k[r]) as a Python int, from the last residue holding max(k)."""
    r = len(k) - 1 - int((k[::-1] == k.max()).argmax())  # no reversed copy of k
    return r + len(k) * int(k[r])


def contains(p: SemigroupProfile, n: int) -> bool:
    """Membership test: n belongs to the semigroup iff n div m >= k[n mod m]."""
    return n >= 0 and bool(n // p.multiplicity >= p.k[n % p.multiplicity])


def gaps_of(p: SemigroupProfile) -> GapSet:
    """All gaps of the semigroup, from its Kunz coordinates."""
    import numpy as np

    gaps = np.concatenate([np.empty(0, dtype=np.int64), *p.blocks(p.multiplicity)])
    return GapSet(tuple(gaps.tolist()), p.conductor)


def is_symmetric(p: SemigroupProfile) -> bool:
    """True iff the conductor equals twice the genus."""
    return p.conductor == 2 * p.genus


def verify_cofinite_complement(gs: GapSet) -> bool:
    """Whether the complement of a gap set is closed under addition.  With
    m the least positive non-gap, it is iff each residue r holds the gaps
    r + j*m, j < k[r], for some k that the sweep of :func:`minimal_generators`
    accepts, as the Kunz vector of the generators it finds."""
    m = next((v for v, g in enumerate(gs.gaps, 1) if g != v), len(gs.gaps) + 1)
    k = [0] * m
    for g in gs.gaps:
        if g // m != k[g % m]:  # a member of its residue lies below g
            return False
        k[g % m] += 1
    try:
        minimal_generators(SemigroupProfile(k))
    except NotClosed:
        return False
    return True


def minimal_generators(p: SemigroupProfile) -> tuple[int, ...]:
    """Minimal generating set, found and certified by the tight edges of
    the Apery set D[r] = r + m*k[r], in Kunz coordinates.

    Hold best[r] = min over the generators g found so far of the k of
    D[(r - g) mod m] + g; the multiplicity m contributes k + 1.  Walk the
    nonzero Apery elements in increasing order (the stable order of k) in
    windows of equal k.  An element w = r + m*k[r] is a new minimal
    generator iff best[r] > k[r].  Every generator that could reach w lies
    below w - m, since the Apery element it leaves from exceeds m, so an
    earlier window has applied it.

    The walk ends with best == k, taking best[0] = 0, exactly when D is the
    Apery set of a semigroup: no edge improves D, and every other residue
    has a tight in-edge, D[r] = D[r - g] + g, whose chain strictly falls to
    residue 0 (the profile holds D[0] = 0).  Otherwise it raises
    :class:`NotClosed`, naming the first residue where the two differ.
    Values formed stay within 2 * max(k) + 1, so the sweep runs on a
    :func:`_narrow` copy of k.

    With D[0] = 0, a new generator's own edge from residue 0 makes its
    residue tight at once.  A residue left untight means the kernel is
    broken: it raises :class:`RuntimeError` there, not after O(m) more
    passes.
    """
    import numpy as np

    m, k = p.multiplicity, p.k
    k = k.astype(_narrow(2 * int(k.max()) + 1), copy=False)
    best, scratch = k + 1, np.empty_like(k)
    order = np.argsort(k[1:], kind="stable") + 1
    rows = k[order]
    gens = [m]
    for window in np.split(order, np.flatnonzero(rows[1:] != rows[:-1]) + 1):
        for r in window[best[window] > k[window]].tolist():
            gens.append(r + m * int(k[r]))
            _relax(best, k, gens[-1], scratch)
            if best[r] != k[r]:
                raise RuntimeError(f"generator {gens[-1]} leaves its residue {r} at "
                                   f"{r + m * int(best[r])}: the relaxation kernel is broken")
    best[0] = 0
    if not np.array_equal(best, k):
        r = int(np.argmax(best != k))
        raise NotClosed(f"generators reach {r + m * int(best[r])} at residue {r}, where the "
                        f"Apery set has {r + m * int(k[r])}: not closed under addition")
    return tuple(gens)
