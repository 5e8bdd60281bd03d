"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` (used verbatim in the
CLI's JSON error objects) and an optional ``detail`` dict with structured
context such as the offending edge id.
"""

from __future__ import annotations


class GraphFieldsError(Exception):
    """Base class for all errors raised by this package."""

    code = "Error"

    def __init__(self, message: str, **detail):
        super().__init__(message)
        self.detail = detail


class InvalidGraphError(GraphFieldsError):
    code = "InvalidGraph"


class UnknownVertexError(GraphFieldsError):
    code = "UnknownVertex"


class UnknownEdgeError(GraphFieldsError):
    code = "UnknownEdge"


class MultiEdgeOrLoopError(GraphFieldsError):
    code = "MultiEdgeOrLoop"


class NotConnectedError(GraphFieldsError):
    code = "NotConnected"


class DistanceInconsistentError(GraphFieldsError):
    """An edge is longer than the shortest route between its endpoints."""

    code = "DistanceInconsistent"


class OffsetOutOfRangeError(GraphFieldsError):
    code = "OffsetOutOfRange"


class DuplicatePointsError(GraphFieldsError):
    code = "DuplicatePoints"


class FactorizationFailedError(GraphFieldsError):
    code = "FactorizationFailed"


class ParamOutOfRangeError(GraphFieldsError):
    """A kernel or certificate parameter violates its documented range."""

    code = "ParamOutOfRange"

    def __init__(self, field: str, allowed: str, message: str | None = None):
        super().__init__(
            message or f"parameter {field!r} outside allowed range {allowed}",
            field=field,
            allowed=allowed,
        )
        self.field = field
        self.allowed = allowed


class NonFiniteError(GraphFieldsError):
    code = "NonFinite"


class NotPSDError(GraphFieldsError):
    code = "NotPSD"


class TooFewSamplesError(GraphFieldsError):
    code = "TooFewSamples"


class NOutOfRangeError(GraphFieldsError):
    code = "NOutOfRange"
