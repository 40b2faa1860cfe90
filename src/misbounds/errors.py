"""Exception hierarchy for misbounds.

Every error raised by this package derives from :class:`MisboundsError`,
so callers can catch the whole family with one clause.  Errors that are
really argument-domain problems also derive from ``ValueError``.
"""


class MisboundsError(Exception):
    """Base class for all misbounds errors."""


class InvariantViolationError(MisboundsError):
    """An internal consistency check failed (a bound chain was violated)."""


# --- joint-model validation ---------------------------------------------


class NegativeEntryError(MisboundsError, ValueError):
    """A joint-probability matrix contains a negative entry."""


class MassNotOneError(MisboundsError, ValueError):
    """Total mass of a joint matrix deviates from 1 beyond tolerance."""


class TooFewClassesError(MisboundsError, ValueError):
    """A model needs at least two classes."""


class ParseError(MisboundsError, ValueError):
    """A model file could not be parsed; carries the offending location."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.row = row
        self.col = col


# --- work limits ---------------------------------------------------------


class TooLargeError(MisboundsError, ValueError):
    """An exhaustive enumeration would exceed its size guard."""


# --- bound evaluation ----------------------------------------------------


class OutOfRangeError(MisboundsError, ValueError):
    """A separation value or probability argument is outside its domain."""


class EntropyOutOfRangeError(MisboundsError, ValueError):
    """Conditional entropy outside [0, ln k] beyond tolerance."""


class NegativeEntropyError(MisboundsError, ValueError):
    """Entropy argument is negative beyond tolerance, or too large for exp."""


class BadBetaError(MisboundsError, ValueError):
    """Renyi order must be positive."""


# --- model families ------------------------------------------------------


class BadParamError(MisboundsError, ValueError):
    """A family parameter is outside its documented domain."""


class OutOfDomainError(MisboundsError, ValueError):
    """A (p, eps) pair is outside the three-class family domain."""


class BadWeightsError(MisboundsError, ValueError):
    """Observation weights must be positive and sum to 1."""


class BadPermutationError(MisboundsError, ValueError):
    """A column permutation must be a bijection on {1, ..., k}."""
