"""Weierstrass semigroups at every point class of the Skabelund curve.

The curve is the cyclic cover of the Suzuki curve that is maximal over
F_{q^4}, with q0 = 2^s and q = 2*q0^2.  This package computes the
semigroup at each of the three point classes (rational, quartic,
generic), cross-verifies the closed-form descriptions against a general
shortest-path Apery engine, and reproduces the per-family gap counts.

Every public name resolves on use, from the module that defines it
(PEP 562), so ``import skabelund`` loads no submodule and a run compiles
only the modules it reaches: the special classes never load
:mod:`skabelund.families`, the generic value path never loads
:mod:`skabelund.curve` or :mod:`skabelund.witness`, and numpy loads on the
first array.  Nothing is cached here, so a name rebound in its module is
the one the package gives.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module and the public names it defines
_MODULES = {
    "params": ("CurveParams", "PoleOrderTable", "make_params", "pole_order_table"),
    "curve": ("phi", "phi1", "phi2", "quartic_apery", "quartic_apery_stats",
              "quartic_generators", "quartic_multiplicity", "rational_apery",
              "rational_apery_stats", "rational_generators"),
    "errors": ("DuplicateGap", "DuplicateResidue", "EmptyInput", "NoWitness",
               "NonCoprime", "NonIntegerResult", "NotClosed", "OutOfDomain", "Overflow",
               "SkabelundError", "SumMismatch", "TableMismatch",
               "UnsupportedCombination", "UnsupportedS"),
    "families": ("FamilyId", "FamilyParams", "GapRecord", "GenericSemigroup",
                 "WitnessVector", "enumerate_all", "enumerate_values",
                 "family_count_closed_form", "gap_witness", "generic_semigroup"),
    "semigroup": ("GapSet", "GeneratorSet", "SemigroupProfile", "SemigroupStats",
                  "contains", "gaps_of", "is_symmetric", "minimal_generators",
                  "normalize_generators", "profile_from_generators",
                  "verify_cofinite_complement"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """A public name, read from its defining module on every use (PEP 562)."""
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
