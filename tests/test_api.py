import os
import subprocess
import sys

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


def test_special_class_runs_never_import_families():
    # the special classes and the engine stand alone; the generic names
    # load skabelund.families on first use.  numpy loads on the first array:
    # the package, params and the special-class stats run without it
    child = """
import sys
import skabelund as sk
assert "numpy" not in sys.modules
from skabelund.cli import main
assert "numpy" not in sys.modules
assert main(["params", "--s", "6"]) == 0 and "numpy" not in sys.modules
for s in ("1", "6"):
    for point in ("rational", "quartic"):
        for fmt in ("text", "json", "csv"):
            argv = ["semigroup", "--s", s, "--point", point, "--emit", "stats", "--format", fmt]
            assert main(argv) == 0 and "numpy" not in sys.modules, argv
p = sk.make_params(2)
assert frozenset(sk.profile_from_generators(sk.quartic_generators(p)).apery) == sk.quartic_apery(p)
assert "numpy" in sys.modules
assert "skabelund.families" not in sys.modules
assert sk.FamilyId.F1.value == 1 and "skabelund.families" in sys.modules
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", child], capture_output=True, env=env, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("    s = 6\n   q0 = 64\n")
