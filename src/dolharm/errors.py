"""Exception types shared across the package."""
from __future__ import annotations


class DolharmError(Exception):
    """Base class for all package errors."""


class FrameMismatchError(DolharmError):
    """Operands live in different coframes."""


class DegreeMismatchError(DolharmError):
    """Operands have incompatible degrees or an invalid degree was requested."""


class MixedBidegreeError(DolharmError):
    """A pure-bidegree operand was required but a mixed form was supplied."""


class SingularMatrixError(DolharmError):
    """A basis/frame matrix that must be invertible is singular."""


class MetricError(DolharmError):
    """Metric parameters violate positivity (r>0, s>0, r^2 s^2 > |u|^2)."""


class CatalogError(DolharmError):
    """Unknown catalog entry or parameter outside its documented domain."""


class SpecParseError(DolharmError):
    """A problem document failed to parse; carries a field location."""

    def __init__(self, location: str, message: str):
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}")


class InternalInvariantError(DolharmError):
    """A computed result failed its own re-verification: a bug, not bad input."""


class BackendDisagreementError(DolharmError):
    """Exact and floating backends returned different verdicts."""

    def __init__(self, exact_report, float_report):
        self.exact_report = exact_report
        self.float_report = float_report
        super().__init__(
            "backend disagreement: exact delta="
            f"{exact_report.delta}, float delta={float_report.delta}"
        )
