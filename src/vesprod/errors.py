"""Exception hierarchy for the vesprod package.

All errors raised by this package derive from :class:`VesprodError`, so
callers can catch one type at an API boundary (the CLI maps any of them
to exit code 2).
"""

from __future__ import annotations

__all__ = [
    "VesprodError",
    "ParamError",
    "DomainError",
    "SingularError",
    "ShareError",
    "ParseError",
    "ValidationError",
    "MissingColumnError",
    "RankError",
]


class VesprodError(Exception):
    """Base class for all vesprod errors."""


class ParamError(VesprodError):
    """Parameter values violate a family invariant or a branch restriction."""


class DomainError(VesprodError):
    """Evaluation was requested outside a function's domain of definition.

    Raised for non-positive inputs, for points where a fractional power
    would need a non-positive base, and for capital-labor ratios outside
    a family's admissible range.
    """


class SingularError(VesprodError):
    """A closed form degenerates: a denominator vanishes, a parameter map
    has no image, or a calibration equation has no finite solution."""


class ShareError(VesprodError):
    """Factor-share inputs are inconsistent with a positive elasticity."""


class ParseError(VesprodError):
    """Malformed delimited-text input (bad header, field count, or number)."""


class ValidationError(VesprodError):
    """Parsed data violates dataset invariants (positivity, uniqueness, size)."""


class MissingColumnError(VesprodError):
    """The requested operation needs a column the dataset does not carry."""


class RankError(VesprodError):
    """The regressor matrix is rank deficient (collinear columns)."""
