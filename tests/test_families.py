import numpy as np
import pytest

from skabelund import (
    CurveParams,
    DuplicateGap,
    FamilyId,
    FamilyParams,
    NonIntegerResult,
    NotClosed,
    Overflow,
    UnsupportedS,
    binom_sum_check,
    contains,
    count_family,
    enumerate_family,
    enumerate_values,
    family_count_closed_form,
    family_value,
    gaps_of,
    generic_semigroup,
    make_params,
    minimal_generators,
    normalize_generators,
    profile_from_generators,
)
from skabelund.families import _mark_gaps

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
            assert rec.params.nu_matches(p)
            assert family_value(p, rec.family, rec.params) == rec.value
            assert 1 <= rec.value <= two_g - 1
        assert gap_set.gaps == tuple(r.value for r in records)


def test_counts_three_ways(p1, p2, p3):
    for p in (p1, p2, p3):
        _, counts = enumerate_values(p)
        for fid in FamilyId:
            closed = family_count_closed_form(p, fid)
            collapsed = count_family(p, fid)
            assert counts[fid] == collapsed == closed
        assert sum(counts.values()) == p.genus


def test_counts_only_at_size_four():
    # full enumeration is impractical here; the collapsed counter still
    # matches the closed forms
    p = make_params(4)
    for fid in FamilyId:
        assert count_family(p, fid) == family_count_closed_form(p, fid)
    assert sum(count_family(p, fid) for fid in FamilyId) == p.genus


def test_iter_family_values_matches_records(p1):
    from skabelund import iter_family_records, iter_family_values

    for fid in FamilyId:
        values = list(iter_family_values(p1, fid))
        assert values == [r.value for r in iter_family_records(p1, fid)]


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


def test_family_f4_empty_at_size_one(p1):
    assert enumerate_family(p1, FamilyId.F4) == []


def test_family_f6_two_records(p1):
    recs = enumerate_family(p1, FamilyId.F6)
    assert [r.value for r in recs] == [108, 164]


def test_family_f1_contains_one(p1):
    first = enumerate_family(p1, FamilyId.F1)[0]
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


def test_gap_bitset_guards(p1):
    limit = 2 * p1.genus
    assert np.flatnonzero(_mark_gaps([np.array([5]), np.array([7])], limit)).tolist() == [5, 7]
    with pytest.raises(DuplicateGap, match="^value 5 produced twice$"):
        _mark_gaps([np.array([5, 6]), np.array([7, 5])], limit)
    with pytest.raises(RuntimeError):
        _mark_gaps([np.array([0])], limit)
    with pytest.raises(RuntimeError):
        _mark_gaps([np.array([limit])], limit)
    with pytest.raises(UnsupportedS):
        generic_semigroup(make_params(4))


def test_duplicated_row_names_first_repeat(p2, monkeypatch):
    # one F2 progression row listed twice in a row: the first repeated
    # value, in enumeration order, is where the copy starts
    import dataclasses

    import skabelund.families as fam

    real = fam._family_rows
    row = 5

    def doubled(p, fid):
        rows = real(p, fid)
        if fid is not FamilyId.F2:
            return rows
        idx = np.insert(np.arange(len(rows.length)), row, row)
        return dataclasses.replace(rows, start=rows.start[:, idx],
                                   length=rows.length[idx], value=rows.value[idx])

    monkeypatch.setattr(fam, "_family_rows", doubled)
    first = int(real(p2, FamilyId.F2).value[row])
    for enumerate_ in (fam.enumerate_values, fam.enumerate_all):
        with pytest.raises(DuplicateGap, match=f"^value {first} produced twice$"):
            enumerate_(p2)


def test_binom_sum_check():
    assert binom_sum_check(0)
    assert binom_sum_check(1)  # 1 + 5 == C(6,5)
    assert binom_sum_check(100)
    with pytest.raises(ValueError):
        binom_sum_check(-1)
    with pytest.raises(Overflow):
        binom_sum_check(10_001)


def test_binom_polynomial_expansion():
    # expanded form of C(n+5,5): (n^5 + 15n^4 + 85n^3 + 225n^2 + 274n)/120 + 1
    from math import comb

    for n in (0, 1, 2, 7, 50):
        assert comb(n + 5, 5) == n * (n**4 + 15 * n**3 + 85 * n**2 + 225 * n + 274) // 120 + 1


def test_generic_semigroup_size_one(p1):
    prof = generic_semigroup(p1)
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
        prof = generic_semigroup(p)
        assert gaps_of(prof).gaps == gap_set.gaps
        assert gaps_of(prof).bound == prof.conductor


def test_enumerate_family_sorted_partition(p1, records_s1):
    _, records = records_s1
    seen = []
    for fid in FamilyId:
        fam = enumerate_family(p1, fid)
        values = [r.value for r in fam]
        assert values == sorted(values)
        seen.extend(values)
    assert sorted(seen) == [r.value for r in records]


def test_generic_minimal_generators_regenerate(p1, p2, p3):
    # the reported minimal generators must reproduce the same semigroup
    for p, count in ((p1, 19), (p2, 88), (p3, 368)):
        prof = generic_semigroup(p)
        mingens = minimal_generators(prof)
        assert len(mingens) == count
        again = profile_from_generators(normalize_generators(mingens))
        assert again == prof


def test_closure_violation_detected(p1, monkeypatch):
    import skabelund.families as fam

    real = fam.enumerate_values

    def corrupted(p, *a, **k):
        gap_set, counts = real(p)
        # swap gap 108 for the indecomposable member 62: the per-residue
        # least-member structure still adds up to the genus, but the
        # complement elements 60 and 108 now sum to the gap 168
        gaps = tuple(sorted(set(gap_set.gaps) - {108} | {62}))
        return type(gap_set)(gaps, gap_set.bound), counts

    monkeypatch.setattr(fam, "enumerate_values", corrupted)
    with pytest.raises(NotClosed):
        fam.generic_semigroup(p1)


@pytest.mark.parametrize("s", [1, 3])
def test_hole_in_complement_detected(s, request, monkeypatch):
    import skabelund.families as fam

    p = request.getfixturevalue(f"p{s}")
    m = fam.generic_semigroup(p).multiplicity
    real = fam.enumerate_values

    def with_hole(p, *a, **k):
        # 2m joins the gaps: the Apery set and its genus are unchanged, but
        # the complement no longer holds m + m
        gap_set, counts = real(p)
        gaps = tuple(sorted(gap_set.gaps + (2 * m,)))
        return type(gap_set)(gaps, gap_set.bound), counts

    monkeypatch.setattr(fam, "enumerate_values", with_hole)
    with pytest.raises(NotClosed):
        fam.generic_semigroup(p)
