"""Exception taxonomy shared across the package.

Two families matter to callers: ``ValidationError`` for structurally bad
input (malformed configs, forms that are not polarizations) and
``NumericError`` for failures of the numerical machinery itself (series
caps, convention mismatches, unconverged quadrature).  The command line
maps the families to exit codes 1 and 2.  ``check_count`` and
``check_finite`` are the argument contract for counts and finite inputs.
"""

import cmath

import numpy as np


class ValidationError(Exception):
    """Input data violates a structural requirement."""


def check_count(value, least, what):
    """Raise ValidationError unless value is a (numpy) integer >= least, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValidationError(f"{what} must be an integer of at least {least}, got {value!r}")


def check_finite(values, what):
    """Raise ValidationError on NaN or inf among Python numbers (a silent NaN later)."""
    if not all(map(cmath.isfinite, values)):
        raise ValidationError(f"{what} must be finite, got {values}")


class ConfigParseError(ValidationError):
    """A config file is missing fields or has malformed entries."""


class NotPositiveDefinite(ValidationError):
    """The Hermitian form fails positive definiteness."""


class IntegralityViolation(ValidationError):
    """Im H is not integral on the lattice within tolerance."""


class DegenerateBasis(ValidationError):
    """The 2n given vectors do not span C^n over the reals."""


class NumericError(Exception):
    """A numerical routine could not meet its contract."""


class RadiusTooLarge(NumericError):
    """Lattice enumeration would exceed the configured term cap."""

    def __init__(self, msg, required_cap=None):
        super().__init__(msg)
        self.required_cap = required_cap


class StepCountTooSmall(NumericError):
    """Transport integration was requested with too few steps."""


class ModulusMismatch(NumericError):
    """Transported holonomy failed the unit-modulus cancellation check."""


class QuadratureUnconverged(NumericError):
    """Grid integral changed too much under resolution doubling."""


class CharacteristicSolveFailed(NumericError):
    """Theta basis does not satisfy its functional equation; convention bug."""


class CutoffTooSmall(NumericError):
    """Theta series cutoff leaves tails above tolerance."""


class SingularGram(NumericError):
    """Gram matrix of the theta basis is numerically singular."""


class FitResidualTooLarge(NumericError):
    """Pushforward profile fit left a residual above tolerance."""


class InconsistentSystem(NumericError):
    """Holonomy congruence system admits no solution."""
