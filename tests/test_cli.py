import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from skabelund import FamilyId, GeneratorSet, family_count_closed_form, make_params
from skabelund.semigroup import SemigroupProfile, gaps_of
from skabelund.cli import cmd_params, cmd_semigroup, cmd_verify, main


# pytest's pythonpath setting does not reach child interpreters
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_params_text(capsys):
    code, out, _ = run(capsys, "params", "--s", "1")
    assert code == 0
    assert "genus = 196" in out


def test_params_json_round_trip(capsys):
    code, out, _ = run(capsys, "params", "--s", "2", "--format", "json")
    assert code == 0
    payload, _ = cmd_params(2)
    assert json.loads(out) == payload == {"s": 2, "q0": 4, "q": 32, "genus": 15376}


def test_params_unsupported_s(capsys):
    code, _, err = run(capsys, "params", "--s", "7")
    assert code == 2
    assert "1..6" in err


def test_semigroup_stats_rational(capsys):
    code, out, _ = run(capsys, "semigroup", "--s", "1", "--point", "rational",
                       "--emit", "stats", "--format", "json")
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats == {"multiplicity": 40, "genus": 196, "conductor": 392,
                     "frobenius": 391, "symmetric": True}


def test_semigroup_generators_quartic(capsys):
    code, out, _ = run(capsys, "semigroup", "--s", "1", "--point", "quartic",
                       "--emit", "generators", "--format", "json")
    assert code == 0
    assert json.loads(out)["generators"] == [57, 61, 63, 64, 65, 112, 113, 162, 211]


def test_semigroup_generic_stats(capsys):
    code, out, _ = run(capsys, "semigroup", "--s", "1", "--point", "generic",
                       "--emit", "stats", "--format", "json")
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["genus"] == 196
    assert stats["symmetric"] is False


def test_semigroup_json_round_trip(capsys):
    code, out, _ = run(capsys, "semigroup", "--s", "1", "--point", "rational",
                       "--emit", "gaps", "--format", "json")
    payload, _ = cmd_semigroup(1, "rational", "gaps")
    assert code == 0
    assert json.loads(out) == _listed(payload)


def test_semigroup_caps(capsys):
    code, _, err = run(capsys, "semigroup", "--s", "4", "--point", "rational",
                       "--emit", "gaps")
    assert code == 2 and "s = 3" in err
    code, _, err = run(capsys, "semigroup", "--s", "5", "--point", "generic",
                       "--emit", "stats")
    assert (code, err) == (2, "error: --emit stats for generic points is supported up to s = 4\n")
    code, _, err = run(capsys, "semigroup", "--s", "4", "--point", "generic",
                       "--emit", "gaps")
    assert code == 2 and "s = 3" in err
    code, _, _ = run(capsys, "semigroup", "--s", "1", "--point", "rational",
                     "--emit", "stats", "--witnesses")
    assert code == 2


def test_semigroup_witnesses_payload(capsys):
    code, out, _ = run(capsys, "semigroup", "--s", "1", "--point", "generic",
                       "--emit", "gaps", "--witnesses", "--format", "json")
    assert code == 0
    items = json.loads(out)["gaps"]
    assert len(items) == 196
    assert [it["value"] for it in items] == sorted(it["value"] for it in items)
    families = {it["family"] for it in items}
    assert families == {"F1", "F2", "F3", "F5", "F6"}  # F4 empty here
    q0, q = 2, 8
    for it in items[:10]:
        w = it["witness"]
        val = (w["a1"] + w["a2"] * q0 + w["a3"] * 2 * q0 + w["a4"] * q + w["f"] * q * q
               + sum(b * (n + 2) * q0 * q for n, b in enumerate(w["b"]))
               + w["c"] * (q0 * q + q0) + w["d"] * (2 * q0 * q + 2 * q0 + 1)
               + sum(e * ((2 * n + 1) * q0 * q + n + 1) for n, e in enumerate(w["e"])))
        assert val == it["value"] - 1


def test_witnesses_have_no_csv_form(capsys):
    from skabelund.cli import render
    from skabelund.errors import UnsupportedCombination

    code, _, err = run(capsys, "semigroup", "--s", "1", "--point", "generic",
                       "--emit", "gaps", "--witnesses", "--format", "csv")
    assert code == 2 and "CSV" in err
    payload, _ = cmd_semigroup(1, "generic", "gaps", witnesses=True)
    with pytest.raises(UnsupportedCombination, match="CSV"):
        render("semigroup", payload, "csv", io.BytesIO())


def test_witnesses_csv_refused_before_the_table_is_built(capsys, monkeypatch):
    # the refusal costs nothing: neither the witness certificate nor the
    # record windows run
    import skabelund.families as fam

    def build(p):
        raise AssertionError("witnesses built for a refused request")

    monkeypatch.setattr(fam, "witness_faults", build)
    monkeypatch.setattr(fam, "witness_windows", build)
    code, out, err = run(capsys, "semigroup", "--s", "3", "--point", "generic",
                         "--emit", "gaps", "--witnesses", "--format", "csv")
    assert (code, out, err) == (2, "", "error: --witnesses payloads have no CSV form\n")


@pytest.mark.parametrize("existing", [False, True])
def test_failed_report_leaves_no_out_file(existing, capsys, monkeypatch, tmp_path):
    # a report that fails after its first block leaves no partial PATH behind
    import skabelund.cli as cli

    real_blocks = cli._witness_blocks

    def blocks(windows, q0, fmt, sep):
        yield next(real_blocks(windows, q0, fmt, sep))
        raise MemoryError("witness block")

    monkeypatch.setattr(cli, "_BLOCK", 50)
    monkeypatch.setattr(cli, "_witness_blocks", blocks)
    target = tmp_path / "dump.json"
    if existing:
        target.write_text("an older report\n", encoding="utf-8")
    code, out, err = run(capsys, "semigroup", "--s", "1", "--point", "generic", "--emit", "gaps",
                         "--witnesses", "--format", "json", "--out", str(target))
    assert (code, out, err) == (3, "", "internal error: MemoryError: witness block\n")
    assert not target.exists()


def test_closed_pipe_ends_quietly():
    # a reader that stops early (| head -2) gets no traceback and exit 0
    proc = subprocess.Popen(
        [sys.executable, "-m", "skabelund", "semigroup", "--s", "2", "--point", "generic",
         "--emit", "gaps"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_CHILD_ENV)
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert head == [b"s = 2\n", b"q0 = 4\n"]
    assert (proc.returncode, err) == (0, b"")


def test_table1_text_and_csv(capsys):
    code, out, _ = run(capsys, "table1", "--max-s", "2")
    assert code == 0
    code, csv_out, _ = run(capsys, "table1", "--max-s", "2", "--format", "csv")
    assert code == 0
    lines = csv_out.strip().splitlines()
    assert lines[0] == "s,F1,F2,F3,F4,F5,F6,F,g"
    assert lines[1] == "1,146,31,8,0,9,2,196,196"
    assert lines[2] == "2,12584,2393,192,96,87,24,15376,15376"


def test_table1_bad_max_s(capsys):
    code, _, err = run(capsys, "table1", "--max-s", "5")
    assert (code, err) == (2, "error: table rows are available for s in 1..4\n")


@pytest.mark.slow
def test_generic_size_four(capsys):
    # the generic class reaches s = 4 through its row counts and the exact sweep
    code, out, _ = run(capsys, "semigroup", "--s", "4", "--point", "generic",
                       "--emit", "stats", "--format", "json")
    assert code == 0
    assert json.loads(out)["stats"] == {"multiplicity": 262112, "genus": 66846976,
                                        "conductor": 133693442, "frobenius": 133693441,
                                        "symmetric": False}
    code, out, _ = run(capsys, "table1", "--max-s", "4", "--format", "csv")
    assert code == 0
    p = make_params(4)
    counts = [family_count_closed_form(p, fid) for fid in FamilyId]
    assert out.splitlines()[-1] == ",".join(map(str, [4, *counts, p.genus, p.genus]))


def test_table1_mismatch_exits_one(capsys, monkeypatch):
    import skabelund.cli as cli

    monkeypatch.setitem(cli.TABLE1, 1, (145, 31, 8, 0, 9, 2, 196, 196))
    code, out, err = run(capsys, "table1", "--max-s", "1")
    assert code == 1
    assert "145" in err and "146" in out


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--s", "1..2")
    assert code == 0
    assert "all_passed = True" in out


def test_verify_sampled_at_size_three(capsys):
    code, out, _ = run(capsys, "verify", "--s", "3..3")
    assert code == 0
    assert "generic_closure_sampled" in out
    assert "all_passed = True" in out


def test_verify_json_round_trip(capsys):
    code, out, _ = run(capsys, "verify", "--s", "1..1", "--format", "json")
    payload, rc = cmd_verify(1, 1)
    assert (code, rc) == (0, 0)
    assert json.loads(out) == payload


def test_verify_fault_injection(capsys, monkeypatch):
    import skabelund.curve as curve

    monkeypatch.setattr(curve, "rational_generators",
                        lambda p: GeneratorSet((40, 50, 60, 63, 65)))
    code, out, err = run(capsys, "verify", "--s", "1..1")
    assert code != 0


def test_internal_error_exits_three(capsys, monkeypatch):
    import skabelund.families as fam
    from skabelund import DuplicateGap

    def boom(p):
        raise DuplicateGap("value 7 produced twice")

    monkeypatch.setattr(fam, "kunz_counts", boom)
    code, _, err = run(capsys, "table1", "--max-s", "1")
    assert code == 3
    assert "DuplicateGap" in err


def test_memory_error_exits_three(capsys, monkeypatch):
    import skabelund.families as fam

    def boom(p):
        raise MemoryError("bool array of 2g entries")

    monkeypatch.setattr(fam, "kunz_counts", boom)
    code, _, err = run(capsys, "table1", "--max-s", "1")
    assert code == 3
    assert err == "internal error: MemoryError: bool array of 2g entries\n"


@pytest.mark.parametrize("argv", [
    ("semigroup", "--s", "1", "--point", "generic", "--emit", "gaps"),
    ("semigroup", "--s", "1", "--point", "generic", "--emit", "stats"),
    ("table1", "--max-s", "1"),
], ids=["gaps", "stats", "table1"])
def test_genus_mismatch_exits_three(argv, capsys, monkeypatch):
    # one more F1 row, at residue 5's Apery element 125: the rows stay
    # distinct and residue 5's gaps still sum as they should, but the
    # profile's genus is 197, the curve's 196, and no report goes out
    import skabelund.families as fam

    real = fam._family_rows

    def raised(p, fid, params=False):
        rows = real(p, fid, params)
        if fid is not FamilyId.F1:
            return rows
        return rows._replace(length=np.append(rows.length, 1), value=np.append(rows.value, 125))

    monkeypatch.setattr(fam, "_family_rows", raised)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError: complement profile has genus 197, expected 196\n"


def test_row_range_error_exits_three(capsys, monkeypatch):
    # an F1 row at 2g = 392, past the last possible gap
    import skabelund.families as fam

    real = fam._family_rows

    def past_2g(p, fid, params=False):
        rows = real(p, fid, params)
        if fid is not FamilyId.F1:
            return rows
        return rows._replace(length=np.append(rows.length, 1),
                             value=np.append(rows.value, 2 * p.genus))

    monkeypatch.setattr(fam, "_family_rows", past_2g)
    code, out, err = run(capsys, "table1", "--max-s", "1")
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError: gap value 392 outside [1, 392)\n"


@pytest.mark.parametrize("argv", [
    ("semigroup", "--s", "1", "--point", "generic", "--emit", "gaps"),
    ("semigroup", "--s", "1", "--point", "generic", "--emit", "stats"),
    ("table1", "--max-s", "1"),
], ids=["gaps", "stats", "table1"])
def test_empty_residue_exits_three(argv, capsys, monkeypatch):
    # F2's one-value row {52} goes and 181 = 1 + 3*60 joins F1: the genus,
    # every residue's value sum and the families' distinctness still hold,
    # but residue 52 holds no gap, so the complement holds 52 < m = 60
    import skabelund.families as fam

    real = fam._family_rows

    def emptied(p, fid, params=False):
        rows = real(p, fid, params)
        if fid is FamilyId.F1:
            return rows._replace(length=np.append(rows.length, 1), value=np.append(rows.value, 181))
        if fid is FamilyId.F2:
            keep = (rows.value != 52) | (rows.length != 1)
            return rows._replace(length=rows.length[keep], value=rows.value[keep])
        return rows

    monkeypatch.setattr(fam, "_family_rows", emptied)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "internal error: NotClosed: residue 52 holds 52, not above m = 60\n"


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_internal_value_error_exits_three(to_file, capsys, monkeypatch, tmp_path):
    # a decreasing gap series trips _decimal's guard: an internal fault,
    # not a usage error, and no file at PATH
    def decreasing(self, size):
        yield np.array([5, 3], dtype=np.int64)

    monkeypatch.setattr(SemigroupProfile, "blocks", decreasing)
    target = tmp_path / "gaps.txt"
    argv = ["semigroup", "--s", "1", "--point", "rational", "--emit", "gaps"]
    code, _, err = run(capsys, *argv, *(["--out", str(target)] if to_file else []))
    assert code == 3
    assert err == "internal error: ValueError: a series must be nondecreasing and nonnegative\n"
    assert not target.exists()


def test_verify_builds_each_closed_form_once(monkeypatch):
    # the quartic profile feeds both its agreement check and phi
    import skabelund.curve as curve

    calls = []
    real = curve.special_profile

    def counted(p, point):
        calls.append((p.s, point))
        return real(p, point)

    monkeypatch.setattr(curve, "special_profile", counted)
    assert cmd_verify(1, 3)[1] == 0
    assert calls == [(s, point) for s in (1, 2, 3) for point in ("rational", "quartic")]


def test_unwritable_out_path_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, "params", "--s", "1", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def test_verify_bad_ranges(capsys):
    assert run(capsys, "verify", "--s", "2..1")[0] == 2
    assert run(capsys, "verify", "--s", "0..2")[0] == 2
    assert run(capsys, "verify", "--s", "1..9")[0] == 2
    assert run(capsys, "verify", "--s", "nope")[0] == 2


def test_unknown_command_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_output_determinism(capsys):
    a = run(capsys, "table1", "--max-s", "2", "--format", "json")
    b = run(capsys, "table1", "--max-s", "2", "--format", "json")
    assert a == b
    a = run(capsys, "semigroup", "--s", "2", "--point", "quartic", "--emit", "apery",
            "--format", "csv")
    b = run(capsys, "semigroup", "--s", "2", "--point", "quartic", "--emit", "apery",
            "--format", "csv")
    assert a == b


def test_out_file_matches_stdout(capsys, tmp_path):
    code, out, _ = run(capsys, "params", "--s", "3", "--format", "json")
    target = tmp_path / "report.json"
    code2 = main(["params", "--s", "3", "--format", "json", "--out", str(target)])
    assert code == code2 == 0
    assert target.read_text(encoding="utf-8") == out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "skabelund", "params", "--s", "1", "--format", "json"],
        capture_output=True, text=True, env=_CHILD_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["genus"] == 196


def test_stats_text_listing(capsys):
    code, out, _ = run(capsys, "semigroup", "--s", "1", "--point", "quartic",
                       "--emit", "stats")
    assert code == 0
    assert "multiplicity = 57" in out
    assert "symmetric = True" in out


def test_stats_closed_form_path(capsys):
    # s = 4 stats come from the closed-form Apery stream, not the engine
    code, out, _ = run(capsys, "semigroup", "--s", "4", "--point", "rational",
                       "--emit", "stats", "--format", "json")
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["genus"] == 66846976 and stats["symmetric"] is True


def test_generic_apery_emit(capsys):
    code, out, _ = run(capsys, "semigroup", "--s", "1", "--point", "generic",
                       "--emit", "apery", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    apery = payload["apery"]
    assert len(apery) == 60  # generic multiplicity at s = 1
    assert apery == sorted(apery)
    assert apery[0] == 0


def _corrupt_monomial(monkeypatch, fid: FamilyId) -> None:
    """Raise by one the power of the first term of the block monomial of F4
    or F6 at family index n = 0."""
    import skabelund.families as fam

    real = fam._family

    def corrupted(p, f):
        grid, sigma, a4cap, offset, mono = real(p, f)
        if f is fid:
            (row, power), *rest = mono
            mono = [(row, power + (grid["n"] == 0)), *rest]
        return grid, sigma, a4cap, offset, mono

    monkeypatch.setattr(fam, "_family", corrupted)


def _n0_gaps(p, fid: FamilyId) -> list[int]:
    """The gaps of F4 or F6 at n = 0, in value order, from the family's
    displayed expression: a1 < q0 - 2 (F4; F6 has a1 = a2 = a3 = 0),
    a4 = 0..min(q0 - 1, b) and f = b - a4, b = q - 2q0 - 2 - a1 - a2 - a3."""
    from skabelund import FamilyParams
    from oracles import family_value

    outer = [(0, 0, 0)]
    if fid is FamilyId.F4:
        outer = [(a1, a2, a3) for a1 in range(p.q0 - 2) for a2 in range(2) for a3 in range(p.q0)]
    sigma, gaps = p.q - 2 * p.q0 - 2, []
    for a1, a2, a3 in outer:
        budget = sigma - a1 - a2 - a3
        for a4 in range(min(p.q0 - 1, budget) + 1):
            f = budget - a4
            nu = a1 + a2 * p.q0 + a3 * 2 * p.q0 + a4 * p.q + f * p.q * p.q
            gaps.append(family_value(p, fid, FamilyParams(a1, a2, a3, a4, f, 0, 0, 0, sigma, nu)))
    return sorted(gaps)


def test_bad_witness_seed_fails_verify(capsys, monkeypatch, records_s2):
    # a wrong F4 or F6 monomial term at n = 0 fails every gap there: verify
    # counts them exactly, the gaps gap_witness refuses, and raises nothing
    from skabelund import NoWitness, gap_witness

    p = make_params(2)
    for fid in (FamilyId.F4, FamilyId.F6):
        with monkeypatch.context() as m:
            _corrupt_monomial(m, fid)
            code, out, _ = run(capsys, "verify", "--s", "2..2")
            refused = []
            for r in (r for r in records_s2[1] if r.family is fid):
                try:
                    gap_witness(p, r)
                except NoWitness:
                    refused.append(r.value)
        assert refused == _n0_gaps(p, fid)
        assert code == 1
        assert f"[FAIL] s=2 witnesses: observed={len(refused)} invalid expected=0 invalid\n" in out
        assert out.endswith("all_passed = False\n")


def test_bad_witness_seed_fails_dump(capsys, monkeypatch):
    # the dump raises NoWitness for the least gap of the corrupted n and writes nothing
    _corrupt_monomial(monkeypatch, FamilyId.F4)
    value = min(_n0_gaps(make_params(2), FamilyId.F4))
    code, out, err = run(capsys, "semigroup", "--s", "2", "--point", "generic",
                         "--emit", "gaps", "--witnesses", "--format", "json")
    assert (code, out) == (3, "")
    assert err == f"internal error: NoWitness: no witness for value {value} within pole budget 30750\n"


@pytest.mark.parametrize("fid", [FamilyId.F4, FamilyId.F6])
@pytest.mark.parametrize("s", [2, 3])
def test_bad_monomial_fails_dump_before_any_byte(fid, s, capsys, monkeypatch, tmp_path):
    # the certificate runs before the first byte: no output, and no --out file
    import skabelund.families as fam

    def windows(p):
        raise AssertionError("records built for an uncertified dump")

    _corrupt_monomial(monkeypatch, fid)
    monkeypatch.setattr(fam, "witness_windows", windows)
    p = make_params(s)
    value = min(_n0_gaps(p, fid))
    target = tmp_path / "dump.json"
    code, out, err = run(capsys, "semigroup", "--s", str(s), "--point", "generic", "--emit", "gaps",
                         "--witnesses", "--format", "json", "--out", str(target))
    assert (code, out) == (3, "")
    assert err == (f"internal error: NoWitness: no witness for value {value} "
                   f"within pole budget {p.two_g_minus_2}\n")
    assert not target.exists()


def test_corrupted_window_exits_3_and_leaves_no_out_file(capsys, monkeypatch, tmp_path):
    # the certificate passes, but the windows expand a wrong witness a4 for
    # one F3 row: an internal error, and no partial file
    import skabelund.families as fam

    real = fam._family_rows

    def corrupted(p, fid, params=False):
        rows = real(p, fid, params)
        if params and fid is FamilyId.F3:
            rows.start[15, 1] += 1  # the witness's a4 of the second row
        return rows

    monkeypatch.setattr(fam, "_family_rows", corrupted)
    first = real(make_params(2), FamilyId.F3)
    value = int(first.value[1] + (first.length[1] - 1) * first.step)  # read up from its far end
    target = tmp_path / "dump.txt"
    code, out, err = run(capsys, "semigroup", "--s", "2", "--point", "generic", "--emit", "gaps",
                         "--witnesses", "--out", str(target))
    assert (code, out) == (3, "")
    assert err == f"internal error: RuntimeError: a witness window misses the witness of {value}\n"
    assert not target.exists()


@functools.lru_cache(maxsize=None)
def _dict_witness_dump(s: int, fmt: str) -> str:
    """The --witnesses dump rendered from one dict per gap, built from
    enumerate_all and gap_witness."""
    from skabelund import enumerate_all, gap_witness

    p = make_params(s)
    head = {"s": p.s, "q0": p.q0, "q": p.q, "genus": p.genus, "point": "generic", "emit": "gaps"}
    items = []
    for r in enumerate_all(p)[1]:
        w = gap_witness(p, r)
        items.append({"value": r.value, "family": r.family.name, "params": r.params._asdict(),
                      "witness": {**w._asdict(), "b": list(w.b), "e": list(w.e)}})
    if fmt == "json":
        return json.dumps({**head, "gaps": items}, indent=2) + "\n"
    lines = [f"{k} = {v}" for k, v in head.items()]
    for it in items:
        w = it["witness"]
        lines.append(f"gap {it['value']} family={it['family']} "
                     f"witness a=({w['a1']},{w['a2']},{w['a3']},{w['a4']}) "
                     f"b={w['b']} c={w['c']} d={w['d']} e={w['e']} f={w['f']}")
    return "\n".join(lines) + "\n"


# records go out in sub-blocks of _BLOCK // 32 within each window of 4,096
# values: 2,048 at 65,536, one record at 8, and 31 at 1000, whose edges fall
# inside the families
@pytest.mark.parametrize("s, fmt, block", [(s, fmt, block) for s in (1, 2)
                                           for block in (65536, 1000, 8)
                                           for fmt in ("json", "text")])
def test_witness_dump_matches_dict_render(s, fmt, block, capsys, monkeypatch, tmp_path):
    # the columnar render is byte-identical to rendering the record dicts,
    # across block and sub-block boundaries too, and --out writes the same bytes
    import skabelund.cli as cli

    monkeypatch.setattr(cli, "_BLOCK", block)
    argv = ["semigroup", "--s", str(s), "--point", "generic", "--emit", "gaps",
            "--witnesses", "--format", fmt]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == _dict_witness_dump(s, fmt)
    target = tmp_path / "dump.txt"
    assert main([*argv, "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("fmt, bound", [("json", 8_000_000), ("text", 2_500_000)])
def test_witness_render_peak_memory(fmt, bound):
    # the s = 2 records are built one window of 4,096 values at a time and
    # written a sub-block of 512 at a time, with no Python int per field:
    # about 2.6 MB for JSON and 2.1 MB for text, window building included
    from skabelund.cli import render

    payload, _ = cmd_semigroup(2, "generic", "gaps", witnesses=True)
    tracemalloc.start()
    try:
        with open(os.devnull, "wb") as out:
            render("semigroup", payload, fmt, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


class _Sha256Stream(io.RawIOBase):
    """A binary stream that keeps only the sha256 of the bytes written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def writable(self):
        return True

    def write(self, data):
        self.hash.update(data)
        return len(data)


@pytest.mark.slow
def test_witness_dump_s3_bytes():
    # the 1,032,256 records at s = 3, 752 MB of JSON and 128 MB of text, by
    # their sha256; the windows of a payload are rendered once
    from skabelund.cli import render

    digests = {}
    for fmt in ("text", "json"):
        payload, _ = cmd_semigroup(3, "generic", "gaps", witnesses=True)
        out = _Sha256Stream()
        render("semigroup", payload, fmt, out=out)
        digests[fmt] = out.hash.hexdigest()
    assert digests == {
        "text": "a30a5fdb52e96e94f4c2d8d9b82f48744cd2eb3160edcd9f7ae77293dc48bc0f",
        "json": "0f67e80adf9bd8fac0276dd35f698a619bc72c76bce378b4806aa625e8c11716",
    }


def _child_peak_kb(argv: list[str]) -> int:
    """main(argv) in a fresh process, stdout to /dev/null; its exit code must
    be 0.  The child reads its own VmHWM: its ru_maxrss would count the peak
    of the address space it was spawned from, this test process's."""
    child = f"""
import re, sys
from skabelund.cli import main
code = main({argv!r})
with open("/proc/self/status") as fh:
    print(code, re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1), file=sys.stderr)
"""
    result = subprocess.run([sys.executable, "-c", child], stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, env=_CHILD_ENV, text=True, timeout=300)
    code, peak_kb = map(int, result.stderr.split())
    assert code == 0
    return peak_kb


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_witness_dump_s3_peak_rss():
    # the s = 3 JSON dump (752 MB) in a fresh process, one window at a time:
    # about 45 MB resident on a 2-core machine, 678 MB with the whole table
    argv = ["semigroup", "--s", "3", "--point", "generic", "--emit", "gaps", "--witnesses",
            "--format", "json"]
    assert _child_peak_kb(argv) < 120 * 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_special_stats_s6_peak_rss():
    # quartic stats at s = 6 sum 16,384 cells in Python ints and never import
    # numpy: 15.4 MiB resident on a 2-core machine, 31.6 MiB with numpy.
    # The bound is that peak plus 30%.
    argv = ["semigroup", "--s", "6", "--point", "quartic", "--emit", "stats"]
    assert _child_peak_kb(argv) < 20 * 1024


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
@pytest.mark.parametrize("point", ["generic", "quartic"])
def test_gap_dump_s3_peak_rss(point):
    # the plain s = 3 JSON gap dump (12.5 MB generic, 1,032,256 gaps) in a
    # fresh process, streamed 16,384 gaps at a block: 32.2-32.4 MiB resident
    # generic and 31.0-31.2 MiB quartic on a 2-core machine.  The bound is
    # the generic peak plus 14%; holding the dump's text whole adds 12 MiB.
    argv = ["semigroup", "--s", "3", "--point", point, "--emit", "gaps", "--format", "json"]
    assert _child_peak_kb(argv) < 37 * 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's thread count")
@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "set"])
def test_openblas_pool_capped_unless_set(preset):
    # a generic run loads numpy; main caps OpenBLAS's unused thread pool at
    # one thread first, and leaves a number the caller chose as it was
    child = """
import os, re
from skabelund.cli import main
assert main(["semigroup", "--s", "1", "--point", "generic", "--emit", "stats", "--out", os.devnull]) == 0
with open("/proc/self/status") as fh:
    print(os.environ["OPENBLAS_NUM_THREADS"], re.search(r"Threads:\\s*(\\d+)", fh.read()).group(1))
"""
    env = {k: v for k, v in _CHILD_ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run([sys.executable, "-c", child], capture_output=True, env=env,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    value, threads = result.stdout.split()
    assert value == (preset or "1")
    assert preset or threads == "1"


@pytest.mark.parametrize("argv", [
    ("verify", "--s", "1..1"),
    ("semigroup", "--s", "1", "--point", "generic", "--emit", "generators"),
])
def test_one_generic_build_per_request(argv, capsys, monkeypatch):
    # the families are counted once and the Apery set swept once per s
    import skabelund.families as fam
    import skabelund.semigroup as sg

    calls = []
    real_count, real_sweep = fam.kunz_counts, sg.minimal_generators

    def count(p):
        calls.append("count")
        return real_count(p)

    def sweep(profile):
        calls.append("sweep")
        return real_sweep(profile)

    monkeypatch.setattr(fam, "kunz_counts", count)
    for module in (fam, sg):
        monkeypatch.setattr(module, "minimal_generators", sweep)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls == ["count", "sweep"]


def _values(series):
    """A series as one array: gaps streamed from Kunz coordinates are
    gathered, lists and arrays kept."""
    return np.array(gaps_of(series).gaps) if isinstance(series, SemigroupProfile) else series


def _listed(payload: dict) -> dict:
    """The payload with its array series as a list, as json.dumps takes it."""
    return {k: _values(v).tolist() if isinstance(v, (np.ndarray, SemigroupProfile)) else v
            for k, v in payload.items()}


def test_json_render_matches_json_dumps(monkeypatch):
    # series are joined block by block; the bytes must stay those of json.dumps,
    # also at the benchmark's sizes and with block edges inside a run of one width
    import skabelund.cli as cli

    payloads = [_semigroup_payload(1, point, emit) for point in ("rational", "quartic", "generic")
                for emit in ("generators", "apery", "gaps", "stats")]
    payloads += [_semigroup_payload(*case) for case in _LARGE_SERIES]
    payloads += [{"s": 9, "gaps": list(range(1, 200_000, 3))}, {"s": 9, "gaps": [7]},
                 {"s": 9, "gaps": []}, cmd_verify(1, 1)[0]]
    for payload in payloads:
        expected = json.dumps(_listed(payload), indent=2) + "\n"
        for block in (65536, 1000):
            monkeypatch.setattr(cli, "_BLOCK", block)
            out = io.BytesIO()
            cli.render("semigroup", payload, "json", out)
            assert out.getvalue().decode() == expected


@functools.lru_cache(maxsize=None)
def _semigroup_payload(s: int, point: str, emit: str) -> dict:
    return cmd_semigroup(s, point, emit)[0]


# the series of the benchmark's dumps: about a million gaps each at s = 3,
# and the 261,633 values of the quartic Apery set at s = 4
_LARGE_SERIES = [(3, "quartic", "gaps"), (3, "generic", "gaps"), (4, "quartic", "apery")]


def _per_item_render(payload: dict, fmt: str) -> str:
    """A semigroup report written one string per series item, as the text
    and CSV writers once wrote it."""
    stats = payload.get("stats")
    if fmt == "csv":
        if stats:
            lines = ["multiplicity,genus,conductor,frobenius,symmetric",
                     ",".join(str(stats[k]) for k in
                              ("multiplicity", "genus", "conductor", "frobenius", "symmetric"))]
        else:
            lines = ["value", *(str(v) for v in _values(payload[payload["emit"]]))]
        return "\n".join(lines) + "\n"
    lines = [f"{k} = {payload[k]}" for k in ("s", "q0", "q", "genus", "point", "emit")]
    if stats:
        lines.extend(f"{k} = {v}" for k, v in stats.items())
    elif "generators" in payload:
        lines.append("generators = " + " ".join(map(str, payload["generators"])))
    else:
        key = payload["emit"]
        lines.append(f"{key} ({len(_values(payload[key]))} values):")
        lines.extend(str(v) for v in _values(payload[key]))
    return "\n".join(lines) + "\n"


# every point and emit at s = 1 and 2 in blocks of 65,536; the series longer than
# 1,000 items (the s = 2 gaps and generic Apery set) again in blocks of 1,000,
# and the large series also in the writer's own blocks of 16,384
_SERIES_CASES = [(s, point, emit, 65536) for s in (1, 2)
                 for point in ("rational", "quartic", "generic")
                 for emit in ("generators", "apery", "gaps", "stats")]
_SERIES_CASES += [(2, point, "gaps", 1000) for point in ("rational", "quartic", "generic")]
_SERIES_CASES += [(2, "generic", "apery", 1000)]
_SERIES_CASES += [(*case, block) for case in _LARGE_SERIES for block in (65536, 1000)]
_SERIES_CASES += [(*case, 16384) for case in _LARGE_SERIES]


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("s, point, emit, block", _SERIES_CASES)
def test_text_and_csv_series_match_per_item_render(s, point, emit, fmt, block, capsys,
                                                   monkeypatch, tmp_path):
    # series written in blocks give the per-item bytes, across block boundaries
    # too; render() writes what main writes, and --out writes the same bytes
    import skabelund.cli as cli

    monkeypatch.setattr(cli, "_BLOCK", block)
    argv = ["semigroup", "--s", str(s), "--point", point, "--emit", emit, "--format", fmt]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = _semigroup_payload(s, point, emit)
    assert out == _per_item_render(payload, fmt)
    rendered = io.BytesIO()
    cli.render("semigroup", payload, fmt, rendered)
    assert rendered.getvalue().decode() == out
    target = tmp_path / "report.txt"
    assert main([*argv, "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == out


_BOUNDARIES = [v for k in range(1, 19) for v in (10**k - 1, 10**k)] + [2**63 - 1]


@pytest.mark.parametrize("sep", ["", " ", "\n", ",\n    "])
def test_decimal_matches_str_join(sep):
    # every width from 1 to 19 digits, alone, together and at random
    from skabelund.cli import _decimal

    rng = np.random.default_rng(12)
    cases = [[0], [7], [10**18], [2**63 - 1], [0, 0, 5], _BOUNDARIES, [0, *_BOUNDARIES]]
    cases += [[b] for b in _BOUNDARIES]
    cases += [np.sort(rng.integers(0, high, size)).tolist()
              for high in (10, 1000, 2**31, 2**63 - 1) for size in (1, 17, 5000)]
    for values in cases:
        expected = sep.join(map(str, values)).encode()
        assert _decimal(np.asarray(values, dtype=np.int64), sep) == expected
    assert _decimal(np.empty(0, dtype=np.int64), sep) == b""


@pytest.mark.parametrize("sep", ["", " ", "\n", ",\n    "])
def test_decimal_matches_records(sep):
    # the series writer and the record writer, which share no code, give one
    # answer on the cases of test_decimal_matches_str_join
    from skabelund.cli import _decimal, _records

    rng = np.random.default_rng(12)
    cases = [[0], [7], [10**18], [2**63 - 1], [0, 0, 5], _BOUNDARIES, [0, *_BOUNDARIES], []]
    cases += [[b] for b in _BOUNDARIES]
    cases += [np.sort(rng.integers(0, high, size)).tolist()
              for high in (10, 1000, 2**31, 2**63 - 1) for size in (1, 17, 5000)]
    for values in cases:
        v = np.asarray(values, dtype=np.int64)
        assert _records(v[None, :], ["", ""], sep) == _decimal(v, sep)


@pytest.mark.parametrize("values", [[-1], [-5, 3], [3, 2], [10**18, 9], [0, 5, 4, 6]])
def test_decimal_rejects_decreasing_or_negative(values):
    from skabelund.cli import _decimal

    with pytest.raises(ValueError, match="nondecreasing and nonnegative"):
        _decimal(np.asarray(values, dtype=np.int64), "\n")


@pytest.mark.parametrize("sep", ["", "\n", ",\n    "])
def test_records_match_template(sep):
    # every width from 1 to 19 digits, mixed in one column and across columns,
    # at random, in a one-record block and in an empty one; the template opens
    # with a hole and has two holes side by side
    from skabelund.cli import _records

    literals = ["", "{a: ", "", " b=(", ")}"]
    template = "%d".join(literals)
    rng = np.random.default_rng(20)
    edges = np.array([0, *_BOUNDARIES], dtype=np.int64)
    cases = [np.stack([rng.permutation(edges) for _ in range(4)]),
             np.array([[0], [9], [10], [2**63 - 1]]), np.array([[7], [0], [0], [0]]),
             np.empty((4, 0), dtype=np.int64)]
    cases += [rng.integers(0, high, (4, n)) for high in (10, 1000, 2**31, 2**63 - 1)
              for n in (1, 17, 5000)]
    for x in cases:
        expected = sep.join(template % tuple(r) for r in x.T.tolist())
        assert _records(np.asarray(x, dtype=np.int64), literals, sep) == expected.encode()


@pytest.mark.parametrize("values", [[[-1]], [[3, -5]], [[0, 1], [2, -(2**63)]]])
def test_records_reject_negative(values):
    from skabelund.cli import _records

    x = np.asarray(values, dtype=np.int64)
    with pytest.raises(ValueError, match="nonnegative"):
        _records(x, ["<"] + [","] * (x.shape[0] - 1) + [">"], "\n")


@pytest.mark.parametrize("point", ["generic", "quartic"])
def test_gap_dump_peak_memory(point):
    # a million gaps stream from their Kunz coordinates in int64 blocks of
    # 16,384, never one array or a million Python ints: the generic dump
    # peaks at 4.0 MiB (its row counts), the quartic one, read off its
    # closed form, at 1.6 MiB
    from skabelund.cli import render

    tracemalloc.start()
    try:
        payload, _ = cmd_semigroup(3, point, "gaps")
        with open(os.devnull, "wb") as out:
            render("semigroup", payload, "json", out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payload["gaps"].genus == 1_032_256
    assert peak < 5 * 2**20
