import dataclasses
import tracemalloc

import numpy as np
import pytest

import skabelund.families as fam
from oracles import family_seed, witness_cost, witness_fields
from skabelund import (
    FamilyId,
    FamilyParams,
    GapRecord,
    NoWitness,
    gap_witness,
    make_params,
    pole_order_table,
    witness_table,
)


def checked(p, record):
    w = gap_witness(p, record)
    valuation, pole = witness_cost(p, w)
    assert valuation == record.value - 1
    assert pole <= p.two_g_minus_2
    return w


def family(records, fid):
    return [r for r in records[1] if r.family is fid]


def test_monomial_witness_for_value_two(p1, records_s1):
    rec = next(r for r in family(records_s1, FamilyId.F1) if r.value == 2)
    w = checked(p1, rec)
    assert (w.a1, w.a2, w.a3, w.a4, w.f, w.c, w.d) == (1, 0, 0, 0, 0, 0, 0)
    assert not any(w.b) and not any(w.e)
    assert witness_cost(p1, w)[1] == 40  # one factor of the degree-q block


def test_f2_seed_uses_matching_block(p1, records_s1):
    table = pole_order_table(p1)
    rec = next(
        r for r in family(records_s1, FamilyId.F2)
        if r.params.n == 1 and (r.params.a1, r.params.a2, r.params.a3, r.params.a4) == (0, 0, 0, 0)
    )
    w = checked(p1, rec)
    assert w.b[0] == 1
    assert table.h[0][0] == 2 * p1.q0 * p1.q == 32
    assert w.f == rec.params.f


def test_f5_seed_copies_c_d(p1, records_s1):
    for rec in family(records_s1, FamilyId.F5):
        w = checked(p1, rec)
        assert (w.c, w.d) == (rec.params.c, rec.params.d)
    # c is the exponent of f1: at c = 1, d = 0 the valuation is nu plus
    # f1's valuation q0*q + q0
    rec = next(r for r in family(records_s1, FamilyId.F5) if (r.params.c, r.params.d) == (1, 0))
    f1 = p1.q0 * p1.q + p1.q0
    assert pole_order_table(p1).f1[0] == f1
    assert witness_cost(p1, checked(p1, rec))[0] == rec.params.nu + f1


def test_all_witnesses_size_one(p1, records_s1):
    _, records = records_s1
    for rec in records:
        checked(p1, rec)


def test_f4_paired_block_seed(p2, records_s2):
    # the F4 offset is supplied by two g-block factors with indices
    # summing to the family index
    records = family(records_s2, FamilyId.F4)
    assert len(records) == 96
    for rec in records:
        w = checked(p2, rec)
        assert w.e[0] >= 1 and sum(w.e) == 2


def test_f6_product_seed(p1, records_s1):
    for rec in family(records_s1, FamilyId.F6):
        w = checked(p1, rec)
        assert w.c == 1 and w.e[rec.params.n] == 1


def test_no_witness_beyond_weierstrass_bound(p1):
    fake = GapRecord(2 * p1.genus, FamilyId.F1, FamilyParams(0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(NoWitness):
        gap_witness(p1, fake)


@pytest.mark.parametrize("s", [1, 2])
def test_seeds_match_oracle(s, request):
    # the columnar seed rule, read per record and per table column, equals
    # the per-record oracle on every gap
    p = request.getfixturevalue(f"p{s}")
    _, records = request.getfixturevalue(f"records_s{s}")
    table = witness_table(p)
    assert table.valid.all()
    assert table.columns[0].tolist() == [r.value for r in records]
    assert table.columns[1].tolist() == [r.family.value for r in records]
    expected = [witness_fields(family_seed(p, r)) for r in records]
    assert table.columns[12:].T.tolist() == expected
    assert [witness_fields(gap_witness(p, r)) for r in records] == expected


def test_pole_bound_is_inclusive(p2, records_s2):
    # a budget equal to the largest seed pole cost passes every gap; one less
    # fails exactly the gaps at that cost, in the table and in gap_witness
    _, records = records_s2
    poles = [witness_cost(p2, gap_witness(p2, r))[1] for r in records]
    top = max(poles)
    assert witness_table(dataclasses.replace(p2, two_g_minus_2=top)).valid.all()
    tight = dataclasses.replace(p2, two_g_minus_2=top - 1)
    table = witness_table(tight)
    failing = [i for i, cost in enumerate(poles) if cost == top]
    assert np.flatnonzero(~table.valid).tolist() == failing
    first = records[failing[0]].value
    with pytest.raises(NoWitness, match=f"^no witness for value {first} within pole budget {top - 1}$"):
        table.require_valid()
    with pytest.raises(NoWitness):
        gap_witness(tight, records[failing[0]])


def test_witness_table_peak_memory(p2):
    # the per-family blocks are freed once joined, and the value sort copies
    # one row at a time, not the table: the peak is the join, about twice
    # the table
    witness_table(p2)
    tracemalloc.start()
    try:
        table = witness_table(p2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * table.columns.nbytes


@pytest.mark.parametrize("s", [1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_witness_certificate_per_family_tuple(s):
    # every gap of an outer tuple is nu + offset, witnessed by
    # x^a1 y^a2 z^a3 w^a4 pi^f times the tuple's block monomial, so the
    # monomial's valuation must be offset - 1.  w and pi share one pole
    # order, so the pole cost grows with a4 + f and peaks at
    # a4 + f = sigma - a1 - a2 - a3, where it must stay within 2g - 2.  The
    # monomial is read term by term against pole_order_table.
    p = make_params(s)
    t = pole_order_table(p)
    assert t.w[1] == t.pi[1]
    blocks = np.array([*t.h, t.f1, t.f2, *t.g]).T  # rows h_1.., f1, f2, g_0..
    for fid in FamilyId:
        grid, sigma, _, offset, mono = fam._family(p, fid)
        size = len(grid["a3"])
        valuation, pole = np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.int64)
        for row, power in mono:
            valuation += blocks[0][row] * power
            pole += blocks[1][row] * power
        assert np.array_equal(valuation, np.broadcast_to(offset - 1, size)), fid
        a1, a2, a3 = (grid.get(k, 0) for k in ("a1", "a2", "a3"))
        budget = sigma - a1 - a2 - a3
        top = a1 * t.x[1] + a2 * t.y[1] + a3 * t.z[1] + budget * t.w[1] + pole
        assert (top[budget >= 0] <= p.two_g_minus_2).all(), fid
