"""Semantic exceptions and warnings shared across the package, and the count check."""

import operator


class ExtremeGibbsError(Exception):
    """Base class for all package errors."""


class DomainError(ExtremeGibbsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericError(ExtremeGibbsError, ArithmeticError):
    """A numerical routine failed to converge or produced unusable output."""


class RangeError(ExtremeGibbsError, ValueError):
    """Grid bounds are too tight: clipped tail mass exceeds tolerance."""


class ResourceError(ExtremeGibbsError, MemoryError):
    """A grid operation would exceed the memory guard; use a coarser step."""


class ConfigError(ExtremeGibbsError, ValueError):
    """A configuration file or flag is malformed."""


class RegimeWarning(UserWarning):
    """An approximation is being evaluated outside its nominal growth regime."""


def _count(name: str, value, least: int) -> int:
    """``value`` as an int of at least ``least``; DomainError otherwise."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be at least {least}, got {value}")
    return value
