import tracemalloc

import numpy as np
import pytest

import skabelund.families as fam
import skabelund.witness as wit
from oracles import family_seed, witness_cost, witness_fields
from skabelund import (
    FamilyId,
    FamilyParams,
    GapRecord,
    NoWitness,
    WitnessVector,
    gap_witness,
    make_params,
    pole_order_table,
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
    # the columnar witnesses, read per record and per window column, equal
    # the per-record oracle on every gap
    p = request.getfixturevalue(f"p{s}")
    _, records = request.getfixturevalue(f"records_s{s}")
    columns = np.concatenate(list(wit.witness_windows(p)), axis=1)
    assert wit.witness_faults(p) == (0, None)
    assert columns[0].tolist() == [r.value for r in records]
    assert columns[1].tolist() == [r.family.value for r in records]
    assert columns[2:12].T.tolist() == [list(r.params) for r in records]
    expected = [witness_fields(family_seed(p, r)) for r in records]
    assert columns[12:].T.tolist() == expected
    assert [witness_fields(gap_witness(p, r)) for r in records] == expected


@pytest.mark.parametrize("width", [1, 7, 1000, 10**6])
def test_windows_of_any_width_give_the_same_records(width, p2, monkeypatch):
    # rows cross window edges at every width; empty windows yield no record
    every = np.concatenate(list(wit.witness_windows(p2)), axis=1)
    monkeypatch.setattr(wit, "_WINDOW", width)
    assert np.array_equal(np.concatenate(list(wit.witness_windows(p2)), axis=1), every)


def test_pole_bound_is_inclusive(p2, records_s2, monkeypatch):
    # a budget equal to the largest witness pole cost passes every gap; one
    # less fails exactly the gaps at that cost, in the certificate, in the
    # dump (before its records are built) and in gap_witness
    from skabelund import params
    from skabelund.cli import cmd_semigroup

    _, records = records_s2
    poles = [witness_cost(p2, gap_witness(p2, r))[1] for r in records]
    top = max(poles)
    assert wit.witness_faults(p2._replace(two_g_minus_2=top)) == (0, None)
    tight = p2._replace(two_g_minus_2=top - 1)
    failing = [r for r, cost in zip(records, poles) if cost == top]
    assert wit.witness_faults(tight) == (len(failing), failing[0].value)
    monkeypatch.setattr(params, "make_params", lambda s: tight)
    message = f"^no witness for value {failing[0].value} within pole budget {top - 1}$"
    with pytest.raises(NoWitness, match=message):
        cmd_semigroup(2, "generic", "gaps", witnesses=True)
    with pytest.raises(NoWitness, match=message):
        gap_witness(tight, failing[0])


def test_gap_witness_reads_the_tuple_of_every_key(p2, records_s2, monkeypatch):
    # the F4 monomial raised at the one tuple n = a1 = a2 = a3 = 0 only:
    # gap_witness refuses that tuple's 4 gaps, those witness_faults counts,
    # and not the 64 gaps of F4 at n = 0
    real = fam._family

    def raised(p, fid):
        grid, sigma, a4cap, offset, mono = real(p, fid)
        if fid is FamilyId.F4:
            first = (grid["n"] == 0) & (grid["a1"] == 0) & (grid["a2"] == 0) & (grid["a3"] == 0)
            (row, power), *rest = mono
            mono = [(row, power + first), *rest]
        return grid, sigma, a4cap, offset, mono

    monkeypatch.setattr(fam, "_family", raised)
    refused = []
    for r in (r for r in records_s2[1] if r.family is FamilyId.F4):
        try:
            gap_witness(p2, r)
        except NoWitness:
            refused.append(r)
    assert len(refused) == 4
    assert wit.witness_faults(p2) == (4, refused[0].value)
    assert {(r.params.n, r.params.a1, r.params.a2, r.params.a3) for r in refused} == {(0, 0, 0, 0)}


def test_f1_pole_fault_names_a4_t_f_0(p2, monkeypatch):
    # F1 tuple a1 = a2 = a3 = 0 given the block h_1, with its offset raised
    # by h_1's valuation so that the valuations hold: its pole cost passes
    # 2g - 2 from some a4 + f = T on, and exactly those gaps fail, the least
    # at a4 = T and f = 0.  The gaps and costs here are read off by name.
    real = fam._family
    h1 = pole_order_table(p2).h[0]

    def faulted(p, fid):
        grid, sigma, a4cap, offset, mono = real(p, fid)
        if fid is FamilyId.F1:
            first = (np.arange(len(grid["a3"])) == 0).astype(np.int64)
            offset, mono = offset + h1[0] * first, [(0 * first, first)]  # row 0: h_1
        return grid, sigma, a4cap, offset, mono

    monkeypatch.setattr(fam, "_family", faulted)
    q0, q, budget = p2.q0, p2.q, p2.q - 2
    b = (1,) + (0,) * (2 * q0 - 3)
    failing = []
    for a4 in range(budget + 1):
        for f in range(budget - a4 + 1):
            witness = WitnessVector(0, 0, 0, a4, f, b, 0, 0, (0,) * (q0 - 1))
            valuation, pole = witness_cost(p2, witness)
            if pole > p2.two_g_minus_2:
                failing.append((valuation + 1, a4, f))
    value, a4, f = min(failing)
    assert (a4, f) == (min(a + g for _, a, g in failing), 0)  # (T, 0)
    assert 0 < len(failing) < (budget + 1) * (budget + 2) // 2
    assert wit.witness_faults(p2) == (len(failing), value)


def test_witness_window_peak_memory(p3):
    # past the rows' first records, each window is built on its own: one
    # gather of the window's columns, sorted by value before the gather, so
    # one step's peak stays below twice the widest window (1.3 MB at s = 3;
    # all records at once were 330 MB)
    windows = wit.witness_windows(p3)
    window = next(windows)
    steps = []
    tracemalloc.start()
    try:
        for _ in range(2 * p3.genus // wit._WINDOW):
            del window
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            window = next(windows)
            steps.append((tracemalloc.get_traced_memory()[1] - before, window.nbytes))
    finally:
        tracemalloc.stop()
    widest = max(size for _, size in steps)
    assert widest <= 40 * wit._WINDOW * 8
    assert max(peak for peak, _ in steps) < 2 * widest


@pytest.mark.parametrize("s", [1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_witness_certificate_per_family_tuple(s):
    # the certificate of witness.witness_faults, restated term by term:
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
    assert wit.witness_faults(p) == (0, None)
