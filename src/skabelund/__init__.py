"""Weierstrass semigroups at every point class of the Skabelund curve.

The curve is the cyclic cover of the Suzuki curve that is maximal over
F_{q^4}, with q0 = 2^s and q = 2*q0^2.  This package computes the
semigroup at each of the three point classes (rational, quartic,
generic), cross-verifies the closed-form descriptions against a general
shortest-path Apery engine, and reproduces the per-family gap counts.

The generic-class names of :mod:`skabelund.families` resolve on first
use, so a run that stays with the special classes never imports it, and
numpy loads on the first array: the package import, the parameters
and the special-class statistics run without it.
"""

from .curve import (
    CurveParams,
    PoleOrderTable,
    make_params,
    phi,
    phi1,
    phi2,
    pole_order_table,
    quartic_apery,
    quartic_apery_stats,
    quartic_generators,
    quartic_multiplicity,
    rational_apery,
    rational_apery_stats,
    rational_generators,
)
from .errors import (
    DuplicateGap,
    DuplicateResidue,
    EmptyInput,
    NoWitness,
    NonCoprime,
    NonIntegerResult,
    NotClosed,
    OutOfDomain,
    Overflow,
    SkabelundError,
    SumMismatch,
    TableMismatch,
    UnsupportedCombination,
    UnsupportedS,
)
from .semigroup import (
    GapSet,
    GeneratorSet,
    SemigroupProfile,
    SemigroupStats,
    contains,
    gaps_of,
    is_symmetric,
    minimal_generators,
    normalize_generators,
    profile_from_generators,
    verify_cofinite_complement,
)

__version__ = "0.1.0"

_FAMILIES = (
    "FamilyId", "FamilyParams", "GapRecord", "GenericSemigroup", "WitnessVector",
    "enumerate_all", "enumerate_values", "family_count_closed_form", "gap_witness",
    "generic_semigroup",
)

__all__ = [
    "CurveParams", "PoleOrderTable", "make_params", "phi", "phi1", "phi2",
    "pole_order_table", "quartic_apery", "quartic_apery_stats",
    "quartic_generators", "quartic_multiplicity", "rational_apery",
    "rational_apery_stats", "rational_generators",
    "DuplicateGap", "DuplicateResidue", "EmptyInput", "NoWitness",
    "NonCoprime", "NonIntegerResult", "NotClosed", "OutOfDomain", "Overflow",
    "SkabelundError", "SumMismatch", "TableMismatch",
    "UnsupportedCombination", "UnsupportedS",
    *_FAMILIES,
    "GapSet", "GeneratorSet", "SemigroupProfile", "SemigroupStats",
    "contains", "gaps_of", "is_symmetric", "minimal_generators",
    "normalize_generators", "profile_from_generators",
    "verify_cofinite_complement",
]


def __getattr__(name: str):
    """The generic-class names, read from :mod:`skabelund.families` (PEP 562)."""
    if name in _FAMILIES:
        from . import families

        return getattr(families, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_FAMILIES})
