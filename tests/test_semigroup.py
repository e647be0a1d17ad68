import random

import pytest

from skabelund import (
    EmptyInput,
    GapSet,
    GeneratorSet,
    NonCoprime,
    NotClosed,
    Overflow,
    SemigroupProfile,
    SemigroupStats,
    contains,
    gaps_of,
    is_symmetric,
    minimal_generators,
    normalize_generators,
    profile_from_generators,
    verify_cofinite_complement,
)

from oracles import (
    closed_apery,
    random_generator_list,
    sieve_gaps,
    sieve_members,
    sieve_minimal_generators,
    sieve_window,
)


def profile_of(*gens):
    return profile_from_generators(normalize_generators(gens))


def test_normalize_sorts_and_dedupes():
    assert normalize_generators([65, 40, 50, 60, 64, 40]).gens == (40, 50, 60, 64, 65)


def test_normalize_singleton_one():
    assert normalize_generators([1]).gens == (1,)


def test_normalize_rejects_common_factor():
    with pytest.raises(NonCoprime):
        normalize_generators([4, 6])


def test_normalize_rejects_empty_and_nonpositive():
    with pytest.raises(EmptyInput):
        normalize_generators([])
    with pytest.raises(ValueError):
        normalize_generators([0, 3])


def test_generator_set_requires_strict_increase():
    with pytest.raises(ValueError):
        GeneratorSet((3, 3, 5))


def test_full_semigroup_profile():
    p = profile_of(1)
    assert (p.multiplicity, p.apery, p.genus, p.conductor, p.frobenius) == (1, (0,), 0, 0, -1)


def test_profile_3_5():
    # brute-force sieve of <3,5> up to 20: gaps 1,2,4,7
    p = profile_of(3, 5)
    assert p.apery == (0, 10, 5)
    assert (p.genus, p.conductor, p.frobenius) == (4, 8, 7)


def test_profile_rational_point_size_one():
    p = profile_of(40, 50, 60, 64, 65)
    assert p.genus == 196
    assert p.conductor == 392
    assert sieve_gaps([40, 50, 60, 64, 65], 800) == list(gaps_of(p).gaps)


def test_contains():
    p = profile_of(3, 5)
    assert not contains(p, 7)
    assert contains(p, 8)
    assert contains(p, 0)
    assert not contains(p, -3)


def test_gaps_of():
    assert gaps_of(profile_of(3, 5)).gaps == (1, 2, 4, 7)
    assert gaps_of(profile_of(1)).gaps == ()
    gs = gaps_of(profile_of(40, 50, 60, 64, 65))
    assert len(gs.gaps) == 196
    assert gs.gaps[-1] == 391


def test_is_symmetric():
    assert is_symmetric(profile_of(3, 5))
    assert is_symmetric(profile_of(1))
    p = profile_of(3, 5, 7)
    # sieve: members 0,3,5,6,7,..., so gaps are 1,2,4 and the conductor is 5
    assert sieve_gaps([3, 5, 7], 15) == [1, 2, 4]
    assert (p.genus, p.conductor) == (3, 5)
    assert not is_symmetric(p)


def test_verify_cofinite_complement():
    assert verify_cofinite_complement(GapSet((1, 2, 4, 7), 8))
    assert not verify_cofinite_complement(GapSet((2,), 3))
    assert verify_cofinite_complement(GapSet((), 1))


def test_gap_set_validation():
    with pytest.raises(ValueError):
        GapSet((2, 1), 5)
    with pytest.raises(ValueError):
        GapSet((0, 1), 5)
    with pytest.raises(ValueError):
        GapSet((1, 7), 5)


def test_overflow_guard():
    with pytest.raises(Overflow):
        profile_from_generators(GeneratorSet((3, 2**63 + 2)))


def test_overflow_guard_is_exact():
    # Beyond int64 but within 64 bits unsigned: swept on Python ints.
    assert profile_from_generators(GeneratorSet((3, 2**62 + 1))).apery == (0, 2**63 + 2, 2**62 + 1)
    assert profile_from_generators(GeneratorSet((2, 2**64 - 1))).apery == (0, 2**64 - 1)


@pytest.mark.parametrize("gens", [(6, 9, 20), (4, 8, 9), (10, 14, 15, 25), (12, 18, 28, 35)])
def test_engine_multi_cycle_matches_sieve(gens):
    # A generator a with gcd(a, m) > 1 walks a cycle of length m / gcd(a, m),
    # which bounds its uses on a shortest path; a generator = 0 mod m is a
    # self-loop, used never.
    p = profile_from_generators(GeneratorSet(gens))
    m = gens[0]
    members = sieve_members(list(gens), sieve_window(list(gens)))
    first = [min(n for n in range(r, len(members), m) if members[n]) for r in range(m)]
    assert p.apery == tuple(first)


@pytest.mark.parametrize("m", [31, 32, 33, 1023, 1024, 1025])
def test_engine_doubling_bound(m):
    # Ap(<m, a>) = {j*a : 0 <= j < m} needs exactly m - 1 uses of a, so the
    # doubling passes must cover every j < m, at and around powers of two.
    for a in (m + 1, 1000 * m + 1):
        apery = [0] * m
        for j in range(m):
            apery[j * a % m] = j * a
        assert profile_from_generators(GeneratorSet((m, a))).apery == tuple(apery)


def test_engine_doubling_bound_near_int64_limit():
    # int64 path: every value formed stays below 2 * ((m - 1) * a + 1)
    for m, a in ((3, 2**60 + 1), (5, 2**59 + 3)):
        p = profile_from_generators(GeneratorSet((m, a)))
        assert sorted(p.apery) == [j * a for j in range(m)]
        assert p.genus == sum(j * a // m for j in range(m))


def test_apery_structure_random():
    rng = random.Random(7)
    for _ in range(40):
        gens = random_generator_list(rng)
        p = profile_from_generators(GeneratorSet(tuple(gens)))
        m = p.multiplicity
        assert p.apery[0] == 0
        # one representative per residue class, each minimal in the semigroup
        assert sorted(a % m for a in p.apery) == list(range(m))
        for r, a in enumerate(p.apery):
            assert a % m == r
            assert not contains(p, a - m)
        for g in gens:
            assert contains(p, g)
        gaps = gaps_of(p).gaps
        assert len(gaps) == p.genus
        if p.genus:
            assert gaps[-1] == p.frobenius


def test_engine_matches_sieve_random():
    rng = random.Random(99)
    for _ in range(40):
        gens = random_generator_list(rng)
        p = profile_from_generators(GeneratorSet(tuple(gens)))
        assert list(gaps_of(p).gaps) == sieve_gaps(gens, sieve_window(gens))


def test_minimal_generators_small():
    assert minimal_generators(profile_of(3, 5)) == (3, 5)
    assert minimal_generators(profile_of(1)) == (1,)
    assert minimal_generators(profile_of(4, 6, 9)) == (4, 6, 9)
    # redundant generator disappears
    assert minimal_generators(profile_of(3, 5, 8)) == (3, 5)


def test_minimal_generators_reject_unclosed_apery_set():
    # residues 1, 3 hold 5 and 7, but 5 + 5 = 10 < 14 sits in residue 2
    with pytest.raises(NotClosed, match="residue 2"):
        minimal_generators(SemigroupProfile.from_apery((0, 5, 14, 7)))
    # closed, but <2, 3> has multiplicity 2: not its Apery set for m = 3
    with pytest.raises(NotClosed, match="residue 2"):
        minimal_generators(SemigroupProfile.from_apery((0, 4, 2)))


def test_minimal_generators_regenerate():
    rng = random.Random(5)
    for _ in range(15):
        gens = random_generator_list(rng)
        p = profile_from_generators(GeneratorSet(tuple(gens)))
        mg = minimal_generators(p)
        q = profile_from_generators(normalize_generators(mg))
        assert q == p


def test_minimal_generators_match_sieve_oracle():
    # exactly minimal, not just regenerating: no member of the result is a
    # sum of two positive members
    rng = random.Random(17)
    for _ in range(60):
        gens = random_generator_list(rng)
        p = profile_from_generators(GeneratorSet(tuple(gens)))
        assert list(minimal_generators(p)) == sieve_minimal_generators(gens)


def test_minimal_generators_certify_corrupted_profiles():
    # one nonzero residue moved by m or 2m, or two nonzero residues swapped:
    # NotClosed exactly when the brute-force check rejects the array, and
    # the oracle's generators otherwise
    rng = random.Random(23)
    raised = 0
    for _ in range(1000):
        gens = random_generator_list(rng)
        m = gens[0]
        if m < 3:
            continue
        apery = list(profile_from_generators(GeneratorSet(tuple(gens))).apery)
        r, t = rng.sample(range(1, m), 2)
        if rng.random() < 0.5:
            apery[r] += rng.choice((-2, -1, 1, 2)) * m
        else:
            apery[r], apery[t] = apery[t], apery[r]
        p = SemigroupProfile.from_apery(apery)
        if closed_apery(m, apery):
            assert list(minimal_generators(p)) == sieve_minimal_generators([m] + apery[1:])
        else:
            raised += 1
            with pytest.raises(NotClosed):
                minimal_generators(p)
    assert 0 < raised < 1000


def test_minimal_generators_of_values_beyond_int64():
    # Apery elements past 2**63 take the Python-int path
    for gens in ((3, 2**62 + 1), (2, 2**64 - 1)):
        assert minimal_generators(profile_from_generators(GeneratorSet(gens))) == gens


def test_stats_from_profile():
    stats = SemigroupStats.from_profile(profile_of(3, 5))
    assert stats == SemigroupStats(3, 4, 8, 7, True)
