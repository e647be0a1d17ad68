"""End-to-end acceptance checks.

Each test pins one headline property of the three semigroup classes at
exact tolerance and prints a single pass/fail line.  Timed checks assert
the wall-clock budgets they were designed to meet.
"""

import random
import time

from skabelund import (
    FamilyId,
    GapSet,
    GeneratorSet,
    enumerate_all,
    enumerate_values,
    family_count_closed_form,
    gap_witness,
    gaps_of,
    generic_semigroup,
    make_params,
    profile_from_generators,
    quartic_apery,
    quartic_generators,
    quartic_multiplicity,
    phi,
    rational_apery,
    rational_generators,
    verify_cofinite_complement,
)
from skabelund.semigroup import contains

from oracles import closed_apery, random_generator_list, sieve_gaps, sieve_window, witness_cost

GENUS_BY_S = {1: 196, 2: 15376, 3: 1032256}
TABLE1_COUNTS = {1: (146, 31, 8, 0, 9, 2), 2: (12584, 2393, 192, 96, 87, 24)}

_PROFILES: dict[tuple[int, str], object] = {}


def _profile(s, point):
    if (s, point) not in _PROFILES:
        p = make_params(s)
        gens = rational_generators(p) if point == "rational" else quartic_generators(p)
        _PROFILES[(s, point)] = profile_from_generators(gens)
    return _PROFILES[(s, point)]


def _report(tag, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {tag}" + (f": {detail}" if detail else ""))
    assert ok, f"{tag} {detail}"


def test_c01_table_reproduction():
    start = time.perf_counter()
    observed = {}
    for s in (1, 2):
        _, counts = enumerate_values(make_params(s))
        observed[s] = tuple(counts[fid] for fid in FamilyId)
    elapsed = time.perf_counter() - start
    ok = (observed == TABLE1_COUNTS
          and sum(observed[1]) == 196 and sum(observed[2]) == 15376
          and elapsed < 5.0)
    _report("c01 per-family gap counts", ok, f"{observed}, {elapsed:.2f}s")


def test_c02_genus_identities():
    _PROFILES.clear()
    start = time.perf_counter()
    genera = {(s, pt): _profile(s, pt).genus
              for s in (1, 2, 3) for pt in ("rational", "quartic")}
    elapsed = time.perf_counter() - start
    ok = (all(genera[(s, pt)] == GENUS_BY_S[s] for s, pt in genera)
          and elapsed < 10.0)
    _report("c02 genus identities", ok, f"{sorted(genera.values())}, {elapsed:.2f}s")


def test_c03_symmetry_of_special_points():
    ok = True
    for s in (1, 2, 3):
        g = GENUS_BY_S[s]
        for pt in ("rational", "quartic"):
            prof = _profile(s, pt)
            ok &= prof.conductor == 2 * g and prof.frobenius == 2 * g - 1
            if s <= 2:
                ok &= gaps_of(prof).gaps[-1] == 2 * g - 1
    _report("c03 special-point symmetry and largest gap 2g-1", ok)


def test_c04_apery_agreement():
    ok = True
    for s in (1, 2, 3):
        p = make_params(s)
        ok &= rational_apery(p) == frozenset(_profile(s, "rational").apery)
        ok &= quartic_apery(p) == frozenset(_profile(s, "quartic").apery)
    _report("c04 closed-form Apery sets match shortest-path engine", ok)


def test_c05_offset_map_properties():
    start = time.perf_counter()
    ok = True
    for s in (1, 2, 3, 4):
        p = make_params(s)
        top = (p.q - 1) ** 2
        ok &= all(phi(p, i) + phi(p, top - i) == p.q - 1 for i in range(top + 1))
        ok &= sum(phi(p, i) for i in range(quartic_multiplicity(p))) == p.genus
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _report("c05 offset-map antisymmetry and genus sum", ok, f"{elapsed:.2f}s")


def test_c06_generic_complement_closure():
    for s in (1, 2):
        p = make_params(s)
        gap_set, _ = enumerate_values(p)
        prof = generic_semigroup(p).profile
        window = GapSet(gap_set.gaps, 2 * prof.conductor)
        _report(f"c06 full pairwise closure s={s}", verify_cofinite_complement(window))
        # the sweep above is the one generic_semigroup ran; check it apart
        _report(f"c06 pairwise Apery closure s={s}",
                closed_apery(prof.multiplicity, list(prof.apery)))
    p = make_params(3)
    prof = generic_semigroup(p).profile  # exact closure, raises NotClosed on violation
    rng = random.Random(123)
    violations = 0
    for _ in range(100_000):
        x, y = rng.randrange(prof.conductor), rng.randrange(prof.conductor)
        if contains(prof, x) and contains(prof, y) and not contains(prof, x + y):
            violations += 1
    _report("c06 sampled closure s=3", violations == 0, f"{violations} violations")


def test_c07_disjointness_and_range():
    ok = True
    detail = []
    for s in (1, 2, 3):
        p = make_params(s)
        gap_set, counts = enumerate_values(p)  # raises DuplicateGap on collision
        total = sum(counts.values())
        ok &= len(gap_set.gaps) == total == p.genus
        ok &= gap_set.gaps[0] == 1
        ok &= gap_set.gaps[-1] <= 2 * p.genus - 1
        detail.append(f"s={s} max={gap_set.gaps[-1]}")
    _report("c07 family disjointness, min 1, max within 2g-1", ok, "; ".join(detail))


def test_c07_generic_max_gap_equals_2g_minus_1():
    """The largest generic gap is not 2g - 1; it is 2g - (q - 1).

    The name records the claim under test, which this test refutes.  A
    numerical semigroup of genus g has largest gap 2g - 1 exactly when it
    is symmetric.  For a Weierstrass semigroup H(P), Riemann-Roch makes
    2g - 1 a gap exactly when (2g - 2)P is canonical.  Were that true on an
    open set, (2g - 2)(P - Q) ~ 0 would hold for infinitely many P and a
    fixed Q, putting infinitely many classes [P - Q] into the finite group
    J[2g - 2].  So for g >= 2 the generic semigroup is never symmetric,
    unlike the two special point classes (c03).

    Here the largest generic gap is q^3 - 2q^2 + 1 = 2g - (q - 1), the top
    value of the first family (f = q - 2, every other exponent 0), and the
    conductor is one more: 2g - (q - 2).
    """
    observed = {}
    ok = True
    for s in (1, 2, 3):
        p = make_params(s)
        gap_set, _ = enumerate_values(p)
        top = gap_set.gaps[-1]
        observed[s] = (top, 2 * p.genus - 1)
        ok &= top == p.q**3 - 2 * p.q**2 + 1 == 2 * p.genus - 1 - (p.q - 2)
    _report("c07 generic max gap equals 2g-1-(q-2), below 2g-1", ok,
            f"(observed max, 2g-1) by s: {observed}")


def test_c08_closed_form_counts():
    p = make_params(3)
    _, counts = enumerate_values(p)
    ok = all(counts[fid] == family_count_closed_form(p, fid) for fid in FamilyId)
    _report("c08 closed-form counts at s=3", ok)
    for s in (1, 2):  # informational below the proof range
        ps = make_params(s)
        _, cs = enumerate_values(ps)
        agree = all(cs[fid] == family_count_closed_form(ps, fid) for fid in FamilyId)
        print(f"INFO c08 closed-form agreement at s={s}: {agree}")


def test_c09_witness_existence():
    start = time.perf_counter()
    checked = 0
    ok = True
    for s in (1, 2):
        p = make_params(s)
        _, records = enumerate_all(p)
        for rec in records:
            valuation, pole = witness_cost(p, gap_witness(p, rec))
            ok &= valuation == rec.value - 1
            ok &= pole <= p.two_g_minus_2
            checked += 1
    elapsed = time.perf_counter() - start
    ok &= checked == 196 + 15376 and elapsed < 60.0
    _report("c09 witness existence", ok, f"{checked} records, {elapsed:.2f}s")


def test_c10_three_point_classes_distinct():
    ok = True
    for s in (1, 2):
        p = make_params(s)
        rational = gaps_of(_profile(s, "rational")).gaps
        quartic = gaps_of(_profile(s, "quartic")).gaps
        generic, _ = enumerate_values(p)
        triple = {rational, quartic, generic.gaps}
        ok &= len(triple) == 3
        ok &= len(rational) == len(quartic) == len(generic.gaps) == p.genus
    _report("c10 three gap sets pairwise distinct", ok)


def test_c11_oracle_equivalence():
    rng = random.Random(20260809)
    ok = True
    for _ in range(200):
        gens = random_generator_list(rng)
        prof = profile_from_generators(GeneratorSet(tuple(gens)))
        ok &= list(gaps_of(prof).gaps) == sieve_gaps(gens, sieve_window(gens))
    _report("c11 engine matches dynamic-programming sieve", ok, "200 random sets")
