import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import skabelund

# pytest's pythonpath setting does not reach child interpreters
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_every_exported_name_resolves():
    assert len(set(skabelund.__all__)) == len(skabelund.__all__)
    missing = [name for name in skabelund.__all__ if not hasattr(skabelund, name)]
    assert missing == []
    namespace = {}
    exec("from skabelund import *", namespace)
    assert set(skabelund.__all__) <= namespace.keys()


def test_generic_names_listed_before_first_use():
    names = {"FamilyId", "FamilyParams", "GapRecord", "GenericSemigroup", "WitnessVector",
             "enumerate_all", "enumerate_values", "family_count_closed_form", "gap_witness",
             "generic_semigroup"}
    assert names <= set(dir(skabelund)) & set(skabelund.__all__)
    assert {"WitnessTable", "witness_table"}.isdisjoint(dir(skabelund))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        skabelund.no_such_name


def test_exported_names_are_their_modules_own(monkeypatch):
    # each name is the object its defining module binds, read there on every
    # use: none is cached in the package, so a name rebound in its module is
    # the one the package gives
    for name in skabelund.__all__:
        obj = getattr(skabelund, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert set(skabelund.__all__).isdisjoint(vars(skabelund))
    monkeypatch.setattr(skabelund.curve, "phi", len)
    assert skabelund.phi is len


def test_special_class_runs_never_import_families():
    # the special classes and the engine stand alone; the generic names
    # load skabelund.families on first use.  numpy loads on the first array:
    # the package, params and the special-class stats run without it.  No
    # run imports dataclasses, and only JSON reports import json, so the
    # text and CSV runs go first
    child = """
import os
import sys
import skabelund as sk
assert not {"numpy", "json", "dataclasses"} & sys.modules.keys()
from skabelund.cli import main
assert not {"numpy", "json", "dataclasses"} & sys.modules.keys()
assert main(["params", "--s", "6"]) == 0 and not {"numpy", "json"} & sys.modules.keys()
for fmt in ("text", "csv", "json"):
    for s in ("1", "6"):
        for point in ("rational", "quartic"):
            argv = ["semigroup", "--s", s, "--point", point, "--emit", "stats", "--format", fmt]
            assert main(argv) == 0 and "numpy" not in sys.modules, argv
            assert fmt == "json" or "json" not in sys.modules, argv
p = sk.make_params(2)
assert frozenset(sk.profile_from_generators(sk.quartic_generators(p)).apery) == sk.quartic_apery(p)
assert "numpy" in sys.modules
assert "skabelund.families" not in sys.modules
assert sk.FamilyId.F1.value == 1 and "skabelund.families" in sys.modules
argv = ["semigroup", "--s", "1", "--point", "generic", "--emit", "stats", "--out", os.devnull]
assert main(argv) == 0 and "dataclasses" not in sys.modules
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", child], capture_output=True, env=env, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("    s = 6\n   q0 = 64\n")


_EVERY = ("skabelund.params", "skabelund.errors", "skabelund.semigroup", "skabelund.curve",
          "skabelund.families", "skabelund.witness", "skabelund.cli", "numpy")
_GENERIC, _CURVE, _WITNESS = ("skabelund.families", "numpy"), ("skabelund.curve",), ("skabelund.witness",)


# one command per fresh process: the modules it must load and those it must not
@pytest.mark.parametrize("argv, loads, skips", [
    ((), (), _EVERY),
    (("semigroup", "--point", "generic", "--emit", "stats"), _GENERIC, _CURVE + _WITNESS),
    (("semigroup", "--point", "generic", "--emit", "generators"), _GENERIC, _CURVE + _WITNESS),
    (("semigroup", "--point", "generic", "--emit", "gaps"), _GENERIC, _CURVE + _WITNESS),
    (("table1", "--max-s", "1"), _GENERIC, _CURVE + _WITNESS),
    (("semigroup", "--point", "rational", "--emit", "stats"), _CURVE, _GENERIC + _WITNESS),
    (("semigroup", "--point", "quartic", "--emit", "stats"), _CURVE, _GENERIC + _WITNESS),
    (("verify", "--s", "1..1"), _GENERIC + _CURVE + _WITNESS, ()),
    (("semigroup", "--point", "generic", "--emit", "gaps", "--witnesses"),
     _GENERIC + _WITNESS, _CURVE),
], ids=["import", "generic-stats", "generic-generators", "generic-gaps", "table1",
        "rational-stats", "quartic-stats", "verify", "witnesses"])
def test_each_command_loads_only_its_modules(argv, loads, skips):
    # a generic run never compiles the special closed forms or the witness
    # path, and a special-class run never the families, witnesses or numpy
    child = """
import os
import sys
import skabelund
argv = sys.argv[1:]
if argv:
    from skabelund.cli import main
    if argv[0] == "semigroup":
        argv += ["--s", "1"]
    assert main(argv + ["--out", os.devnull]) == 0, argv
print(" ".join(sorted(sys.modules)))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, env=env,
                            text=True)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert set(loads) <= loaded and not set(skips) & loaded, sorted(loaded)


# each record of the package, built from a fresh CurveParams at s = 1, and
# its fields in order
_RECORDS = {
    "CurveParams": (lambda p: p, ("s", "q0", "q", "genus", "two_g_minus_2")),
    "PoleOrderTable": (skabelund.pole_order_table,
                       ("x", "y", "z", "w", "pi", "h", "f1", "f2", "g")),
    "SemigroupStats": (skabelund.quartic_apery_stats,
                       ("multiplicity", "genus", "conductor", "frobenius", "symmetric")),
    "GeneratorSet": (skabelund.rational_generators, ("gens",)),
    "GapSet": (lambda p: skabelund.GapSet((1, 2, 4, 7), 8), ("gaps", "bound")),
    "SemigroupProfile": (lambda p: skabelund.SemigroupProfile([0, 2, 1]),
                         ("k", "multiplicity", "genus", "conductor", "frobenius")),
    "FamilyParams": (lambda p: skabelund.enumerate_all(p)[1][0].params,
                     ("a1", "a2", "a3", "a4", "f", "n", "c", "d", "sigma", "nu")),
    "GapRecord": (lambda p: skabelund.enumerate_all(p)[1][0], ("value", "family", "params")),
    "GenericSemigroup": (skabelund.generic_semigroup, ("profile", "counts", "generators")),
    "WitnessVector": (lambda p: skabelund.gap_witness(p, skabelund.enumerate_all(p)[1][0]),
                      ("a1", "a2", "a3", "a4", "f", "b", "c", "d", "e")),
    "_Rows": (lambda p: skabelund.families._family_rows(p, skabelund.FamilyId.F1),
              ("length", "value", "da4", "df", "step", "start")),
}


@pytest.mark.parametrize("name", _RECORDS)
def test_record_contract(name):
    # fields in their order, read-only, and shown as Name(field=value, ...)
    build, fields = _RECORDS[name]
    record = build(skabelund.make_params(1))
    assert type(record).__name__ == name
    assert (getattr(type(record), "_fields", None) or type(record).__slots__) == fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{name}({shown})"


@pytest.mark.parametrize("build, error, message", [
    (lambda: skabelund.GeneratorSet(()), skabelund.EmptyInput, "generator set is empty"),
    (lambda: skabelund.GeneratorSet((0, 1)), ValueError, "generators must be positive, got 0"),
    (lambda: skabelund.GeneratorSet(gens=(3, 3, 5)), ValueError,
     "generators must be strictly increasing"),
    (lambda: skabelund.GeneratorSet((4, 6)), skabelund.NonCoprime, "gcd(4, 6) != 1"),
    (lambda: skabelund.GeneratorSet((3, 5))._replace(gens=(6, 9)), skabelund.NonCoprime,
     "gcd(6, 9) != 1"),
    (lambda: skabelund.GapSet((2, 1), 5), ValueError, "gaps must be strictly increasing"),
    (lambda: skabelund.GapSet((0, 1), 5), ValueError, "0 cannot be a gap"),
    (lambda: skabelund.GapSet(gaps=(1, 7), bound=5), ValueError,
     "all gaps must lie below the bound"),
    (lambda: skabelund.GapSet((1, 2), 5)._replace(bound=2), ValueError,
     "all gaps must lie below the bound"),
    (lambda: skabelund.FamilyParams(0, 0, 0, 0, 0, 0, 0, -1, 0, 0), ValueError,
     "family parameters must be non-negative"),
    (lambda: skabelund.FamilyParams(-1, 0, 0, 0, 0, 0, 0, 0, 2, 0), ValueError,
     "family parameters must be non-negative"),
    (lambda: skabelund.FamilyParams(1, 0, 0, 0, 1, 0, 0, 0, 3, 0), ValueError,
     "stored sigma 3 disagrees with components"),
    (lambda: skabelund.FamilyParams(*[0] * 10)._replace(sigma=1), ValueError,
     "stored sigma 1 disagrees with components"),
    (lambda: skabelund.GeneratorSet((True, 3)), ValueError,
     "generators must be ints, got True of type bool"),
    (lambda: skabelund.GeneratorSet((2, 3.0)), ValueError,
     "generators must be ints, got 3.0 of type float"),
    (lambda: skabelund.GeneratorSet((np.int64(2), 3)), ValueError,
     "generators must be ints, got np.int64(2) of type int64"),
    (lambda: skabelund.GeneratorSet((2, 3))._replace(gens=(2, 3.0)), ValueError,
     "generators must be ints, got 3.0 of type float"),
], ids=["empty", "nonpositive", "repeated", "noncoprime", "replaced-noncoprime",
        "unsorted", "zero", "bound", "replaced-bound",
        "negative", "negative-first", "sigma", "replaced-sigma",
        "bool", "float", "numpy-int", "replaced-float"])
def test_record_checks(build, error, message):
    # the checked records refuse bad fields on construction and on _replace,
    # with the exception type and text they always had
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


def test_normalize_generators_reads_each_value_as_an_index():
    # numpy integers become Python ints, so the checked GeneratorSet takes
    # them; a float has no index and fails there, not deep in the engine
    gens = skabelund.normalize_generators([np.int64(5), 3, np.int32(3)])
    assert gens == skabelund.GeneratorSet((3, 5)) and {type(g) for g in gens.gens} == {int}
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        skabelund.normalize_generators([2, 3.0])
