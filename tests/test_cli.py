import json
import subprocess
import sys

from skabelund import GeneratorSet
from skabelund.cli import cmd_params, cmd_semigroup, cmd_verify, main


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
    assert json.loads(out) == payload


def test_semigroup_caps(capsys):
    code, _, err = run(capsys, "semigroup", "--s", "4", "--point", "rational",
                       "--emit", "gaps")
    assert code == 2 and "s = 3" in err
    code, _, _ = run(capsys, "semigroup", "--s", "4", "--point", "generic",
                     "--emit", "stats")
    assert code == 2
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
    code, _, err = run(capsys, "semigroup", "--s", "1", "--point", "generic",
                       "--emit", "gaps", "--witnesses", "--format", "csv")
    assert code == 2 and "CSV" in err


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
    code, _, _ = run(capsys, "table1", "--max-s", "4")
    assert code == 2


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
    import skabelund.cli as cli
    from skabelund import DuplicateGap

    def boom(p):
        raise DuplicateGap("value 7 produced twice")

    monkeypatch.setattr(cli.families, "enumerate_values", boom)
    code, _, err = run(capsys, "table1", "--max-s", "1")
    assert code == 3
    assert "DuplicateGap" in err


def test_memory_error_exits_three(capsys, monkeypatch):
    import skabelund.cli as cli

    def boom(p):
        raise MemoryError("bool array of 2g entries")

    monkeypatch.setattr(cli.families, "enumerate_values", boom)
    code, _, err = run(capsys, "table1", "--max-s", "1")
    assert code == 3
    assert err == "internal error: MemoryError: bool array of 2g entries\n"


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
        capture_output=True, text=True,
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
    # s = 4 stats come from the chunked closed-form data, not the engine
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
