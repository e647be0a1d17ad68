"""Exception types shared across the package."""


class SkabelundError(Exception):
    """Base class for every error raised by this package."""


class EmptyInput(SkabelundError):
    """A generator list was empty."""


class NonCoprime(SkabelundError):
    """Generators have gcd > 1, so they generate no numerical semigroup."""


class Overflow(SkabelundError):
    """A computed value would leave the unsigned 64-bit range."""


class UnsupportedS(SkabelundError):
    """Curve exponent s outside the supported range."""


class DuplicateResidue(SkabelundError):
    """Two candidate Apery elements share a residue class (internal bug)."""


class OutOfDomain(SkabelundError):
    """Argument outside the domain of a piecewise map."""


class SumMismatch(SkabelundError):
    """Apery offsets do not add up to the genus (internal bug)."""


class DuplicateGap(SkabelundError):
    """The same gap value was produced twice (internal bug)."""


class NonIntegerResult(SkabelundError):
    """A closed-form count with fractional coefficients failed to divide out."""


class NotClosed(SkabelundError):
    """A claimed semigroup complement is not closed under addition (internal bug)."""


class NoWitness(SkabelundError):
    """A gap's family seed is no witness vector (internal bug)."""


class UnsupportedCombination(SkabelundError):
    """Requested point class / output combination is not available at this size."""


class TableMismatch(SkabelundError):
    """Recomputed table row disagrees with the reference constants."""
