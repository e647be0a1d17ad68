import pytest

from skabelund import (
    FamilyId,
    GapRecord,
    NoWitness,
    enumerate_family,
    gap_witness,
    pole_order_table,
    witness_pole_cost,
    witness_valuation,
)
from skabelund.families import _params


def checked(p, record):
    w = gap_witness(p, record)
    assert witness_valuation(p, w) == record.value - 1
    assert witness_pole_cost(p, w) <= p.two_g_minus_2
    return w


def test_monomial_witness_for_value_two(p1):
    rec = next(r for r in enumerate_family(p1, FamilyId.F1) if r.value == 2)
    w = checked(p1, rec)
    assert (w.a1, w.a2, w.a3, w.a4, w.f, w.c, w.d) == (1, 0, 0, 0, 0, 0, 0)
    assert not any(w.b) and not any(w.e)
    assert witness_pole_cost(p1, w) == 40  # one factor of the degree-q block


def test_f2_seed_uses_matching_block(p1):
    table = pole_order_table(p1)
    rec = next(
        r for r in enumerate_family(p1, FamilyId.F2)
        if r.params.n == 1 and (r.params.a1, r.params.a2, r.params.a3, r.params.a4) == (0, 0, 0, 0)
    )
    w = checked(p1, rec)
    assert w.b[0] == 1
    assert table.h[0][0] == 2 * p1.q0 * p1.q == 32
    assert w.f == rec.params.f


def test_f5_seed_copies_c_d(p1):
    for rec in enumerate_family(p1, FamilyId.F5):
        w = checked(p1, rec)
        assert (w.c, w.d) == (rec.params.c, rec.params.d)


def test_all_witnesses_size_one(p1, records_s1):
    _, records = records_s1
    for rec in records:
        checked(p1, rec)


def test_f4_paired_block_seed(p2):
    # the F4 offset is supplied by two g-block factors with indices
    # summing to the family index
    records = enumerate_family(p2, FamilyId.F4)
    assert len(records) == 96
    for rec in records:
        w = checked(p2, rec)
        assert w.e[0] >= 1 and sum(w.e) == 2


def test_f6_product_seed(p1):
    for rec in enumerate_family(p1, FamilyId.F6):
        w = checked(p1, rec)
        assert w.c == 1 and w.e[rec.params.n] == 1


def test_no_witness_beyond_weierstrass_bound(p1):
    fake = GapRecord(2 * p1.genus, FamilyId.F1, _params(p1, 0, 0, 0, 0, 0))
    with pytest.raises(NoWitness):
        gap_witness(p1, fake)
