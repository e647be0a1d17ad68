import tracemalloc
from collections import Counter

import numpy as np
import pytest

from skabelund import (
    DuplicateResidue,
    GeneratorSet,
    OutOfDomain,
    SemigroupStats,
    SumMismatch,
    UnsupportedS,
    contains,
    make_params,
    minimal_generators,
    phi,
    phi1,
    phi2,
    pole_order_table,
    profile_from_generators,
    quartic_apery,
    quartic_apery_stats,
    quartic_generators,
    quartic_multiplicity,
    rational_apery,
    rational_apery_stats,
    rational_generators,
)
from skabelund.curve import phi_values

from oracles import (cell_sums_oracle, cells_of_runs, phi_formula, quartic_cells, rational_cells,
                     sieve_minimal_generators)


def test_make_params_small():
    p = make_params(1)
    assert (p.s, p.q0, p.q, p.genus, p.two_g_minus_2) == (1, 2, 8, 196, 390)
    assert make_params(2).genus == 15376
    assert make_params(3).genus == 1032256  # 128 * 127^2 / 2


@pytest.mark.parametrize("bad", [0, 7, -1, "2", 2.0, True])
def test_make_params_rejects(bad):
    with pytest.raises(UnsupportedS):
        make_params(bad)


def test_genus_formula_all_sizes():
    for s in range(1, 7):
        p = make_params(s)
        assert p.q == 2 * p.q0**2 and p.q0 == 2**s
        assert 2 * p.genus == p.q**3 - 2 * p.q**2 + p.q
        assert p.two_g_minus_2 == 2 * p.genus - 2


def test_rational_generators():
    assert rational_generators(make_params(1)).gens == (40, 50, 60, 64, 65)
    assert rational_generators(make_params(2)).gens == (800, 900, 1000, 1024, 1025)
    for s in range(1, 7):
        p = make_params(s)
        gens = rational_generators(p).gens
        assert gens[-2:] == (p.q**2, p.q**2 + 1)
        assert len(gens) == 5


def test_rational_apery_size_one():
    p = make_params(1)
    ap = rational_apery(p)
    assert len(ap) == 40
    assert 0 in ap
    assert max(ap) == 50 + 60 + 4 * 64 + 65 == 431
    assert max(ap) - 40 == 2 * p.genus - 1


def test_rational_apery_size_two():
    p = make_params(2)
    ap = rational_apery(p)
    assert len(ap) == 800
    assert sum(a // 800 for a in ap) == 15376


def test_quartic_generators():
    p = make_params(1)
    gens = quartic_generators(p).gens
    assert gens == (57, 61, 63, 64, 65, 112, 113, 162, 211)
    assert len(gens) == 3 * p.q0 + 3
    p2 = make_params(2)
    g0 = quartic_multiplicity(p2)
    assert g0 == 993
    assert 4 * 993 - 1 == 3971 in quartic_generators(p2).gens
    for s in range(1, 5):
        pp = make_params(s)
        assert len(quartic_generators(pp).gens) == 3 * pp.q0 + 3


def test_phi1_values():
    p = make_params(1)
    assert phi1(p, 0) == 0
    assert phi1(p, 1) == 5
    assert phi1(p, 2) == 3
    prof = profile_from_generators(quartic_generators(p))
    assert contains(prof, 5 * 57 + 1)   # 286 = 113 + 112 + 61
    assert contains(prof, 3 * 57 + 2)   # 173 = 112 + 61


def test_phi2_values():
    p = make_params(1)
    assert phi2(p, 56) == 1
    assert 1 * 57 + 56 == 113  # a generator
    assert phi2(p, 49) == 7
    assert 7 * 57 + 49 == p.q**2 * (p.q - 1) == 2 * p.genus - 1 + 57
    prof = profile_from_generators(quartic_generators(p))
    assert contains(prof, phi2(p, 25) * 57 + 25)


def test_phi_domains():
    p = make_params(1)
    split = p.q * (p.q - 2) // 2
    g0 = quartic_multiplicity(p)
    with pytest.raises(OutOfDomain):
        phi1(p, split + 1)
    with pytest.raises(OutOfDomain):
        phi1(p, -1)
    with pytest.raises(OutOfDomain):
        phi2(p, split)
    with pytest.raises(OutOfDomain):
        phi2(p, g0)
    with pytest.raises(OutOfDomain):
        phi(p, g0)
    for bad in (-1, g0):
        with pytest.raises(OutOfDomain, match=f"phi index {bad} outside 0..{g0 - 1}"):
            phi_values(p, np.array([0, bad]))
    assert phi(p, split) == phi1(p, split)
    assert phi(p, split + 1) == phi2(p, split + 1)


def test_phi_antisymmetry_small():
    for s in (1, 2, 3):
        p = make_params(s)
        top = (p.q - 1) ** 2
        assert all(phi(p, i) + phi(p, top - i) == p.q - 1 for i in range(top + 1))


def test_quartic_apery():
    p = make_params(1)
    ap = quartic_apery(p)
    assert len(ap) == 57
    assert 0 in ap
    assert sum(phi(p, i) for i in range(57)) == 196
    p2 = make_params(2)
    assert len(quartic_apery(p2)) == 993


def test_apery_sets_match_engine():
    for s in (1, 2, 3, 4):
        p = make_params(s)
        assert rational_apery(p) == frozenset(profile_from_generators(rational_generators(p)).apery)
        assert quartic_apery(p) == frozenset(profile_from_generators(quartic_generators(p)).apery)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_paper_generator_lists_are_minimal(s):
    p = make_params(s)
    for gens in (rational_generators(p), quartic_generators(p)):
        assert minimal_generators(profile_from_generators(gens)) == gens.gens
        if s <= 2:
            assert list(gens.gens) == sieve_minimal_generators(list(gens.gens))
    assert len(quartic_generators(p).gens) == 3 * p.q0 + 3


def test_pole_order_table_identities():
    for s in range(1, 7):
        p = make_params(s)
        q0, q = p.q0, p.q
        t = pole_order_table(p)
        ram = q - 2 * q0 + 1  # ramification degree of the cyclic cover
        assert t.x == (1, q * ram)
        assert t.y == (q0, (q + q0) * ram)
        assert t.z == (2 * q0, (q + 2 * q0) * ram)
        assert t.w == (q, (q + 2 * q0 + 1) * ram)
        assert t.w[1] == q * q + 1 == t.pi[1]
        assert t.pi[0] == q * q
        assert len(t.h) == 2 * q0 - 2
        assert len(t.g) == q0 - 1
        big = q * q + 1
        for n, (val, pole) in enumerate(t.h, start=1):
            assert val == (n + 1) * q0 * q
            assert pole == ((n + 1) * q0 - n) * big
            assert pole <= (q - 2) * big
        assert t.f1 == (q0 * q + q0, q0 * big)
        assert t.f2 == (2 * q0 * q + 2 * q0 + 1, 2 * q0 * big)
        for n, (val, pole) in enumerate(t.g):
            assert val == (2 * n + 1) * q0 * q + n + 1
            assert pole == ((2 * n + 1) * q0 - n) * big
            assert pole <= (q - 2) * big


def test_phi_vectorised_matches_scalar():
    for s in (1, 2, 3):
        p = make_params(s)
        g0 = quartic_multiplicity(p)
        idx = np.arange(g0, dtype=np.int64)
        scalar = np.array([phi(p, int(i)) for i in range(g0)])
        assert (phi_values(p, idx) == scalar).all()
        assert (phi_formula(p, idx) == scalar).all()


def test_chunked_stats_match_engine():
    for s in (1, 2, 3):
        p = make_params(s)
        pr = profile_from_generators(rational_generators(p))
        pq = profile_from_generators(quartic_generators(p))
        sr = rational_apery_stats(p)
        sq = quartic_apery_stats(p)
        # `semigroup --emit stats` reads the closed forms at every s
        assert sr == SemigroupStats.from_profile(pr)
        assert sq == SemigroupStats.from_profile(pq)
        assert sr.symmetric and sq.symmetric


@pytest.mark.parametrize("s", [4, 5])
def test_quartic_stats_match_brute_phi(s):
    p = make_params(s)
    g0 = quartic_multiplicity(p)
    idx = np.arange(g0, dtype=np.int64)
    offs = phi_formula(p, idx)  # not phi_values, which expands the same runs as the stats
    stats = quartic_apery_stats(p)
    assert stats.genus == int(offs.sum())
    assert stats.conductor == 1 + int((offs * g0 + idx).max()) - g0


def test_rational_apery_names_first_duplicate(monkeypatch):
    import skabelund.curve as curve

    # (40, 50, 60, 63, 80): g4 = 2 * g0, so k = 1 repeats the residues of
    # k = 0; the first repeat in box order is h = i = j = 0, k = 1, in row 0.
    # (40, 41, 42, 43, 44): row 0 holds eight residues; row 1 starts with
    # 43, the residue of g1 + g2 in row 0.  Blocks of 8 hold one row each.
    for gens, message in (((40, 50, 60, 63, 80), "residue 0 hit twice at value 80"),
                          ((40, 41, 42, 43, 44), "residue 3 hit twice at value 43")):
        monkeypatch.setattr(curve, "rational_generators", lambda p, gens=gens: GeneratorSet(gens))
        for block in (1 << 16, 8):
            monkeypatch.setattr(curve, "_BLOCK", block)
            with pytest.raises(DuplicateResidue, match=f"^{message}$"):
                rational_apery(make_params(1))


def _split(run, i):
    """A run as up to three runs, with its cell i a run of one between the
    cells before and after it."""
    e, de, n, *shape = run
    parts = [[e, de, i, *shape], [e + i * de, de, 1, *shape],
             [e + (i + 1) * de, de, n - i - 1, *shape]]
    return [part for part in parts if part[2]]


def _faulty(runs_of, fault):
    """The run table of runs_of with one fault, on a cell split off as a run
    of one: every row of its last cell raised by 1 or by the multiplicity m,
    or the last row of its first cell dropped."""
    def runs(p):
        table = [list(run) for run in runs_of(p)]
        m = sum(run[2] * run[7] for run in table)
        if fault == "drop":
            table[:1] = _split(table[0], 0)
            table[0][7] -= 1
        else:
            table[-1:] = _split(table[-1], table[-1][2] - 1)
            table[-1][0] += 1 if fault == "plus_one" else m
        return map(tuple, table)
    return runs


# (rational, quartic) at s = 1; the last cell has 5 rational or 4 quartic rows
_FAULT_MESSAGES = {
    "plus_one": (r"add up to \d+, not m\*genus \+ m\(m-1\)/2",) * 2,
    "plus_m": ("sum of offsets is 201, genus is 196", "sum of offsets is 200, genus is 196"),
    "drop": ("39 Apery elements for multiplicity 40", "56 Apery elements for multiplicity 57"),
}


@pytest.mark.parametrize("fault", list(_FAULT_MESSAGES))
@pytest.mark.parametrize("name", ["rational_apery_stats", "quartic_apery_stats",
                                  "rational_apery", "quartic_apery"])
def test_faulty_stream_raises(monkeypatch, name, fault):
    import skabelund.curve as curve

    rational = name.startswith("rational")
    table = "_rational_runs" if rational else "_quartic_runs"
    monkeypatch.setattr(curve, table, _faulty(getattr(curve, table), fault))
    error, message = SumMismatch, _FAULT_MESSAGES[fault][not rational]
    if fault == "plus_one" and not name.endswith("_stats"):
        # the raised elements share their new residues with other elements
        error, message = DuplicateResidue, "hit twice"
    with pytest.raises(error, match=message):
        getattr(curve, name)(make_params(1))


@pytest.mark.parametrize("s", range(1, 7))
def test_run_tables_are_o_q0(s):
    import skabelund.curve as curve

    p = make_params(s)
    assert len([*curve._rational_runs(p)]) == 2 * p.q0
    assert len([*curve._quartic_runs(p)]) <= 12 * p.q0


@pytest.mark.parametrize("s", range(1, 7))
def test_cell_sums_match_expanded_stream(s):
    # the stats never expand a table, so check their closed form element by element
    import skabelund.curve as curve

    p = make_params(s)
    for runs in (curve._rational_runs, curve._quartic_runs):
        count = total = top = 0
        for blk in curve._expand(runs(p)):
            count += blk.size
            total += int(blk.sum())
            top = max(top, int(blk.max()))
        assert curve._cell_sums(runs(p)) == (count, total, top)


@pytest.mark.parametrize("s", range(1, 7))
def test_cell_sums_match_numpy_oracle(s):
    # the runs, cell by cell, are the per-cell tables, and sum as they do
    import skabelund.curve as curve

    p = make_params(s)
    for runs, cells in ((curve._rational_runs, rational_cells),
                        (curve._quartic_runs, quartic_cells)):
        assert Counter(cells_of_runs(runs(p))) == Counter(cells(p))
        assert curve._cell_sums(runs(p)) == cell_sums_oracle(cells(p))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_cell_sums_match_each_run(s):
    # a quartic upper-range cell peaks at its kink a - b*l = 0, which the
    # maximum over a whole set may not show; a run's top is in its cell
    # with the largest start, the last if de > 0 and the first if de < 0
    import skabelund.curve as curve

    p = make_params(s)
    runs = [*curve._rational_runs(p), *curve._quartic_runs(p)]
    for run in runs:
        vals = np.concatenate(list(curve._expand([run])))
        assert curve._cell_sums([run]) == (vals.size, int(vals.sum()), int(vals.max()))
    # at s = 1 every quartic run holds one cell; the upper half steps down
    assert {run[1] > 0 for run in runs if run[2] > 1} == ({True} if s == 1 else {True, False})


@pytest.mark.parametrize("point", ["rational", "quartic"])
def test_special_profile_peak_memory(point):
    # each expanded block is scattered into k as it comes: k, the seen mask
    # and one block's temporaries, 2.2 times k at s = 4 (3.1 times when the
    # whole expansion was one array beside its residues)
    import skabelund.curve as curve

    tracemalloc.start()
    try:
        k = curve.special_profile(make_params(4), point).k
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * k.nbytes


@pytest.mark.parametrize("stats_of", [rational_apery_stats, quartic_apery_stats])
def test_special_stats_memory_at_s6(stats_of):
    # O(q0) runs of cells, not blocks of the 67M-element Apery set
    tracemalloc.start()
    try:
        stats = stats_of(make_params(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.symmetric
    assert peak < 3 * 2**20


def test_chunked_stats_large_sizes():
    for s in (4, 5):
        p = make_params(s)
        sr = rational_apery_stats(p)
        sq = quartic_apery_stats(p)
        assert sr.genus == p.genus == sq.genus
        assert sr.conductor == 2 * p.genus == sq.conductor
