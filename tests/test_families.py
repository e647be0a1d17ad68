import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from skabelund import (
    CurveParams,
    DuplicateGap,
    FamilyId,
    FamilyParams,
    NonIntegerResult,
    NotClosed,
    SemigroupProfile,
    UnsupportedS,
    contains,
    enumerate_values,
    family_count_closed_form,
    gaps_of,
    generic_semigroup,
    make_params,
    minimal_generators,
    normalize_generators,
    profile_from_generators,
)
import skabelund.families as fam
from oracles import add_rows_oracle, family_value, nu_of, scatter_gap_mask

TABLE1_COUNTS = {
    1: (146, 31, 8, 0, 9, 2),
    2: (12584, 2393, 192, 96, 87, 24),
}


def test_family_params_validation():
    with pytest.raises(ValueError):
        FamilyParams(1, 0, 0, 0, 0, 0, 0, 0, 2, 1)  # sigma wrong
    with pytest.raises(ValueError):
        FamilyParams(-1, 0, 0, 0, 1, 0, 0, 0, 0, 64)


def test_records_internally_consistent(p1, p2, records_s1, records_s2):
    for p, (gap_set, records) in ((p1, records_s1), (p2, records_s2)):
        two_g = 2 * p.genus
        for rec in records:
            assert rec.params.nu == nu_of(p, rec.params)
            assert family_value(p, rec.family, rec.params) == rec.value
            assert 1 <= rec.value <= two_g - 1
        assert gap_set.gaps == tuple(r.value for r in records)


def test_counts_three_ways(p1, p2, p3):
    for p in (p1, p2, p3):
        _, counts = enumerate_values(p)
        for fid in FamilyId:
            closed = family_count_closed_form(p, fid)
            collapsed = int(fam._family_rows(p, fid).length.sum())
            assert counts[fid] == collapsed == closed
        assert sum(counts.values()) == p.genus


def test_counts_only_at_size_four():
    # full enumeration is impractical here; the collapsed counter still
    # matches the closed forms
    p = make_params(4)
    counts = {fid: int(fam._family_rows(p, fid).length.sum()) for fid in FamilyId}
    for fid in FamilyId:
        assert counts[fid] == family_count_closed_form(p, fid)
    assert sum(counts.values()) == p.genus


def test_reference_counts(p1, p2):
    for p, expected in ((p1, TABLE1_COUNTS[1]), (p2, TABLE1_COUNTS[2])):
        _, counts = enumerate_values(p)
        assert tuple(counts[fid] for fid in FamilyId) == expected


def test_closed_form_spot_values():
    assert family_count_closed_form(make_params(1), FamilyId.F1) == 146
    assert family_count_closed_form(make_params(2), FamilyId.F2) == 2393
    assert family_count_closed_form(make_params(3), FamilyId.F3) == 16384 // 4 - 128 * 8 // 2 == 3584


def test_closed_form_divisibility_guard():
    # odd q never arises from make_params; feed one directly to hit the guard
    fake = CurveParams(0, 1, 3, 0, 0)
    with pytest.raises(NonIntegerResult):
        family_count_closed_form(fake, FamilyId.F1)


def family(records, fid):
    return [r for r in records[1] if r.family is fid]


def test_family_f4_empty_at_size_one(records_s1):
    assert family(records_s1, FamilyId.F4) == []


def test_family_f6_two_records(records_s1):
    recs = family(records_s1, FamilyId.F6)
    assert [r.value for r in recs] == [108, 164]


def test_family_f1_contains_one(records_s1):
    first = family(records_s1, FamilyId.F1)[0]
    assert first.value == 1
    fp = first.params
    assert (fp.a1, fp.a2, fp.a3, fp.a4, fp.f, fp.sigma, fp.nu) == (0,) * 7


def test_enumerate_all_size_one(p1, records_s1):
    gap_set, records = records_s1
    assert len(records) == 196
    assert gap_set.gaps[0] == 1
    assert gap_set.gaps[-1] == p1.q**3 - 2 * p1.q**2 + 1 == 385
    assert gap_set.bound == 2 * p1.genus
    values = [r.value for r in records]
    assert values == sorted(values)


@pytest.mark.parametrize("s", [1, 2])
def test_enumerate_values_matches_enumerate_all(s, request):
    p = request.getfixturevalue(f"p{s}")
    gap_set, records = request.getfixturevalue(f"records_s{s}")
    streamed, counts = enumerate_values(p)
    assert streamed.gaps == gap_set.gaps
    assert counts == {fid: sum(r.family is fid for r in records) for fid in FamilyId}


def test_kunz_counts_guards(p1, monkeypatch):
    limit = 2 * p1.genus
    real = fam._family_rows

    def families_hold(table):
        # each family becomes the rows (first value, length) on its own step
        def rows(p, fid):
            first, length = np.array(table.get(fid, []), dtype=np.int64).reshape(-1, 2).T
            return real(p, fid)._replace(length=length, value=first)
        monkeypatch.setattr(fam, "_family_rows", rows)

    # 7 is no F1 value (its digit sum is too small for F2..F6), so the rows
    # are expanded to look for a repeat; there is none, both are counted,
    # and their two gaps fall short of the genus
    families_hold({FamilyId.F1: [(5, 1)], FamilyId.F2: [(7, 1)]})
    with pytest.raises(RuntimeError, match="^complement profile has genus 2, expected 196$"):
        fam.kunz_counts(p1)
    k, total = np.zeros(60, dtype=np.int64), np.zeros(60, dtype=np.int64)
    for lo, step in ((5, p1.q**2), (7, p1.q**2 - p1.q)):
        fam._add_rows(np.array([lo]), np.array([1]), step, k, total)
    assert np.flatnonzero(k).tolist() == [5, 7]
    assert total[[5, 7]].tolist() == [5, 7]
    families_hold({FamilyId.F1: [(5, 2)], FamilyId.F2: [(7, 1), (5, 1)]})  # 5, 69; 7, 5
    with pytest.raises(DuplicateGap, match="^value 5 produced twice$"):
        fam.kunz_counts(p1)
    # two F2 rows down one column that share their top end, 117 = 5 + 2*56:
    # sorted by low end, the row 5..117 ends above the row 61..117 starts
    families_hold({FamilyId.F2: [(117, 3), (117, 2)]})
    with pytest.raises(DuplicateGap, match="^value 117 produced twice$"):
        fam.kunz_counts(p1)
    # the rows 64..176 and 120 of one column (mod 56), with the row 112 of
    # another between their low ends: only a sort by the column first puts
    # the two next to each other.  All three start outside F1's digit sums.
    families_hold({FamilyId.F2: [(176, 3), (112, 1), (120, 1)]})
    with pytest.raises(DuplicateGap, match="^value 120 produced twice$"):
        fam.kunz_counts(p1)
    families_hold({FamilyId.F3: [(0, 1)]})
    with pytest.raises(RuntimeError, match=rf"^gap value 0 outside \[1, {limit}\)$"):
        fam.kunz_counts(p1)
    families_hold({FamilyId.F6: [(limit, 1)]})
    with pytest.raises(RuntimeError, match=rf"^gap value {limit} outside \[1, {limit}\)$"):
        fam.kunz_counts(p1)
    with pytest.raises(UnsupportedS):
        generic_semigroup(make_params(5))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_kunz_counts_match_scatter_oracle(s, request):
    # k against the least member of each residue column of the oracle's
    # marks, padded with members past 2g + m
    p = request.getfixturevalue(f"p{s}")
    profile, counts = fam.kunz_counts(p)
    k = profile.k
    marked, expected_counts = scatter_gap_mask(p)
    m = p.q * p.q - 2 * p.q0
    rows = -(-(len(marked) + m) // m)
    padded = np.zeros(rows * m, dtype=bool)
    padded[:len(marked)] = marked
    assert np.array_equal(k, padded.reshape(rows, m).argmin(axis=0))
    assert counts == expected_counts


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_row_ends_show_distinctness(s, monkeypatch):
    # the real families are told apart by their row ends alone: no row is
    # expanded to look for a repeat
    def expand(rows):
        raise AssertionError("rows expanded")

    monkeypatch.setattr(fam, "_expand", expand)
    p = make_params(s)
    profile, counts = fam.kunz_counts(p)
    assert int(profile.k.sum()) == sum(counts.values()) == p.genus


def _lengthen_f1(rows):
    # F1 row 8 at s = 2, one value longer: its next value is another gap
    length = rows.length.copy()
    length[8] += 1
    return rows._replace(length=length)


def _shift_f3(rows):
    # F3 row 0 moved one step along its own lattice column: its last value
    # lands on the neighbouring row of that column
    value = rows.value.copy()
    value[0] += rows.step
    return rows._replace(value=value)


def _overrun_f5(rows):
    # F5 row 0 starts in range, but runs down its column past 0
    length = rows.length.copy()
    length[0] = rows.value[0] // -rows.step + 2
    return rows._replace(length=length)


@pytest.mark.parametrize("fid, mutate, error", [
    (FamilyId.F1, _lengthen_f1, DuplicateGap),
    (FamilyId.F3, _shift_f3, DuplicateGap),
    (FamilyId.F5, _overrun_f5, RuntimeError),
])
def test_kunz_counts_mutations_match_scatter_oracle(fid, mutate, error, p2, monkeypatch):
    real = fam._family_rows
    monkeypatch.setattr(fam, "_family_rows",
                        lambda p, f: mutate(real(p, f)) if f is fid else real(p, f))
    with pytest.raises(error) as expected:
        scatter_gap_mask(p2)
    with pytest.raises(error, match=f"^{re.escape(str(expected.value))}$"):
        fam.kunz_counts(p2)


def _kunz_counts_peak(p) -> int:
    tracemalloc.start()
    try:
        fam.kunz_counts(p)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kunz_counts_peak_memory(p3):
    # the counts come from the ends of the 17,992 rows and a few arrays over
    # the m = 16,368 residues, 1.06 MiB at s = 3 (1.2 MiB allows 13%), never
    # from the million expanded int64 values of the oracle or an array over
    # [0, 2g)
    assert _kunz_counts_peak(p3) < 1.2 * 2**20


def test_kunz_counts_peak_memory_size_four():
    # in _add_rows on F1 at m = 262,112: the ends of both lattices, k,
    # total and F1's difference arrays, 13.5 MiB (15 MiB allows 11%)
    assert _kunz_counts_peak(make_params(4)) < 15 * 2**20


@pytest.mark.parametrize("m, step", [
    (12, 2**31 + 5),      # one cycle
    (12, 2**31 + 8),      # four cycles of three
    (30, 2**32 + 6),      # two cycles of fifteen
    (12, 3 * 2**31),      # step 0 mod m: twelve cycles of one
])
def test_add_rows_matches_brute_force(m, step, monkeypatch):
    # random rows that end by the end of their residue cycle, against the
    # value-by-value oracle, with steps past 2^31, where an int32 count
    # times a Python-int step would overflow, and with passes of 7 rows and
    # residues as well as one pass of all of them.  A row's place is found
    # by walking its cycle from the cycle's first residue, r mod d.
    rng = np.random.default_rng(m + step)
    d = math.gcd(step, m)
    n = m // d
    lo = rng.integers(0, 1000, 40)
    place = np.array([next(j for j in range(n) if (r % d + j * step) % m == r)
                      for r in (lo % m).tolist()])
    length = rng.integers(1, n - place + 1)
    expected = add_rows_oracle(lo, length, step, m)
    for chunk in (7, fam._CHUNK):
        monkeypatch.setattr(fam, "_CHUNK", chunk)
        k, total = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
        fam._add_rows(lo, length, step, k, total)
        assert np.array_equal(k, expected[0])
        assert np.array_equal(total, expected[1])


def test_add_rows_names_a_row_past_its_cycle():
    # m = 12, step 4 mod 12: the cycle of residue 0 is 0, 4, 8.  The row of
    # 3 values from 0 ends with its cycle; the row of 2 from 8 runs past it.
    k, total = np.zeros(12, dtype=np.int64), np.zeros(12, dtype=np.int64)
    with pytest.raises(RuntimeError, match="^the row of 2 values from 8 runs past the end "
                                           "of its residue cycle of 3$"):
        fam._add_rows(np.array([0, 8]), np.array([3, 2]), 2**31 + 8, k, total)


def test_duplicated_row_names_first_repeat(p2, monkeypatch):
    # one F2 progression row listed twice in a row: the first repeated
    # value, in enumeration order, is where the copy starts
    real = fam._family_rows
    row = 5

    def doubled(p, fid):
        rows = real(p, fid)
        if fid is not FamilyId.F2:
            return rows
        idx = np.insert(np.arange(len(rows.length)), row, row)
        return rows._replace(length=rows.length[idx], value=rows.value[idx])

    monkeypatch.setattr(fam, "_family_rows", doubled)
    first = int(real(p2, FamilyId.F2).value[row])
    for enumerate_ in (fam.enumerate_values, fam.enumerate_all):
        with pytest.raises(DuplicateGap, match=f"^value {first} produced twice$"):
            enumerate_(p2)


def test_generic_semigroup_size_one(p1):
    prof = generic_semigroup(p1).profile
    assert prof.genus == 196
    assert prof.multiplicity == 60
    assert prof.conductor == 386
    assert contains(prof, 0)
    assert all(contains(prof, n) for n in range(392, 500))
    assert not contains(prof, 1)
    assert not contains(prof, 2)  # two copies of the smallest exponent
    gaps = gaps_of(prof)
    assert len(gaps.gaps) == 196


def test_generic_profile_gaps_round_trip(p1, p2):
    # families -> bitset -> Apery profile -> gaps reproduces the input exactly
    for p in (p1, p2):
        gap_set, _ = enumerate_values(p)
        prof = generic_semigroup(p).profile
        assert gaps_of(prof).gaps == gap_set.gaps
        assert gaps_of(prof).bound == prof.conductor


def test_family_records_sorted_partition(p1, records_s1):
    # each family's records, in value order, are its progression rows sorted
    seen = []
    for fid in FamilyId:
        values = [r.value for r in family(records_s1, fid)]
        assert values == sorted(fam._expand(fam._family_rows(p1, fid)).tolist())
        seen.extend(values)
    assert sorted(seen) == [r.value for r in records_s1[1]]


def test_generic_minimal_generators_regenerate(p1, p2, p3):
    # the reported minimal generators must reproduce the same semigroup
    for p, count in ((p1, 19), (p2, 88), (p3, 368)):
        generic = generic_semigroup(p)
        assert generic.generators == minimal_generators(generic.profile)
        assert len(generic.generators) == count
        assert generic.counts == enumerate_values(p)[1]
        again = profile_from_generators(normalize_generators(generic.generators))
        assert again == generic.profile


def test_sweep_stops_at_a_broken_kernel(p2, monkeypatch):
    # a _relax whose w div m is one too high leaves every new generator's
    # residue one row above its Apery element: the sweep stops at the first,
    # not after one O(m) pass per residue
    import skabelund.semigroup as sg

    profile, _ = fam.kunz_counts(p2)
    real = sg._relax
    monkeypatch.setattr(sg, "_relax", lambda best, k, w, scratch: real(best, k, w + len(k), scratch))
    m, k = profile.multiplicity, profile.k
    r = 1 + int(np.argmin(k[1:]))  # the least nonzero Apery element, the first generator after m
    first = r + m * int(k[r])
    with pytest.raises(RuntimeError, match=f"^generator {first} leaves its residue {r} at {first + m}: "):
        minimal_generators(profile)


def test_closure_violation_detected(p1, monkeypatch):
    real = fam.kunz_counts

    def corrupted(p):
        profile, counts = real(p)
        # swap gap 108 for the indecomposable member 62: the per-residue
        # least-member structure still adds up to the genus, but the
        # complement elements 60 and 108 now sum to the gap 168
        k = profile.k.copy()
        k[108 % 60] -= 1
        k[62 % 60] += 1
        return SemigroupProfile(k), counts

    monkeypatch.setattr(fam, "kunz_counts", corrupted)
    with pytest.raises(NotClosed):
        fam.generic_semigroup(p1)


def test_genus_mismatch_detected(p1, monkeypatch):
    # one more F1 row, at residue 5's Apery element 125: the rows stay
    # distinct and residue 5's gaps 5, 65, 125 sum as they should, but the
    # genus is 197, not the curve's 196.  Every generic entry point reads
    # the one checked profile, so none returns a 197-gap set.
    real = fam._family_rows

    def raised(p, fid, params=False):
        rows = real(p, fid, params)
        if fid is not FamilyId.F1:
            return rows
        return rows._replace(length=np.append(rows.length, 1), value=np.append(rows.value, 125))

    monkeypatch.setattr(fam, "_family_rows", raised)
    for entry in (fam.generic_semigroup, fam.enumerate_values, fam.enumerate_all):
        with pytest.raises(RuntimeError, match="^complement profile has genus 197, expected 196$"):
            entry(p1)


@pytest.mark.parametrize("s", [1, 3])
def test_hole_in_complement_detected(s, request, monkeypatch):
    p = request.getfixturevalue(f"p{s}")
    m = fam.generic_semigroup(p).profile.multiplicity
    real = fam._family_rows

    def with_hole(p, fid):
        # 2m joins F1 as a row of its own: the complement no longer holds
        # m + m, and residue 0's one gap is not 0
        rows = real(p, fid)
        if fid is not FamilyId.F1:
            return rows
        return rows._replace(length=np.append(rows.length, 1), value=np.append(rows.value, 2 * m))

    monkeypatch.setattr(fam, "_family_rows", with_hole)
    with pytest.raises(NotClosed, match=f"^residue 0 holds 1 gaps summing to {2 * m}, not 0:"):
        fam.generic_semigroup(p)


@pytest.mark.slow
def test_generic_semigroup_size_four():
    # the generic class at s = 4 from its row counts, with the exact sweep;
    # traced peak 15 MB, below one int8 lattice over [0, 2g) (133.7 MB)
    p = make_params(4)
    tracemalloc.start()
    try:
        generic = generic_semigroup(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    prof = generic.profile
    assert (prof.multiplicity, prof.genus, prof.conductor) == (262_112, 66_846_976, 133_693_442)
    assert prof.genus == p.genus
    assert len(generic.generators) == 1504
    assert generic.generators[:4] == (262_112, 262_128, 262_143, 262_144)
    assert peak < 2 * p.genus


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_kunz_counts_size_five():
    # s = 5 in a fresh process: generic_semigroup and the CLI stop at s = 4,
    # but kunz_counts runs uncapped, with sum(k) = g and each family count
    # the closed form's, in about 275 MiB resident.  The child reads its own
    # VmHWM: its ru_maxrss would count the peak of the address space it was
    # spawned from.
    child = """
import re
from skabelund import FamilyId, family_count_closed_form, make_params
from skabelund.families import kunz_counts
p = make_params(5)
profile, counts = kunz_counts(p)
closed = all(counts[f] == family_count_closed_form(p, f) for f in FamilyId)
with open("/proc/self/status") as fh:
    peak = re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1)
print(profile.multiplicity, int(profile.k.sum()), p.genus, closed, peak)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", child], capture_output=True, env=env,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    m, total, genus, closed, peak_kb = result.stdout.split()
    assert (int(m), int(total), int(genus), closed) == (4_194_240, 4_290_774_016, 4_290_774_016, "True")
    assert int(peak_kb) < 360 * 1024
