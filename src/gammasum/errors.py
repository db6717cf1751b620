"""Exception hierarchy.

DomainError signals invalid mathematical input (parameters outside the
model's domain).  DegenerateTailError is the specific case of an exhausted
weight sequence, where sigma_M = 0 and the normalized tail is undefined;
SpecFormatError the case of a malformed spec document.
NumericalError signals that a numerical routine could not reach its stated
tolerance; it carries the achieved tolerance when known.
"""

from __future__ import annotations


class GammaSumError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GammaSumError, ValueError):
    """Input outside the mathematical domain of an operation."""


class DegenerateTailError(DomainError):
    """Tail sum beyond the end of an explicit weight list: sigma_M = 0."""


class SpecFormatError(DomainError):
    """Malformed spec JSON input (the serialized model format)."""


class NumericalError(GammaSumError, ArithmeticError):
    """A numerical routine failed to meet its accuracy contract."""

    def __init__(self, message: str, achieved_tol: float | None = None):
        super().__init__(message)
        self.achieved_tol = achieved_tol
