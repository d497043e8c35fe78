"""Exception types shared across the package."""

from __future__ import annotations


class DanceGenError(Exception):
    """Base class for all package errors."""


class MalformedSequenceError(DanceGenError):
    """Motion data violates the frame-format contract (width, shape, ...)."""


class NumericInputError(DanceGenError):
    """NaN or inf found where finite values are required."""


class ArityError(DanceGenError):
    """An argument has the wrong element count."""


class DegenerateFitError(DanceGenError):
    """Least-squares system is rank deficient; carries the observed rank."""

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class ParameterError(DanceGenError):
    """A parameter value is outside its allowed range."""


class TooShortError(DanceGenError):
    """Input is shorter than the minimum the operation supports."""


class InvalidTokenError(DanceGenError):
    """A token index is outside the codebook range."""


class TrainingFailureError(DanceGenError):
    """Training diverged; carries the step at which it happened."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class PairingError(DanceGenError):
    """Music and motion inputs of a batch do not pair up."""


class VariantError(DanceGenError):
    """Motion width does not match the encoder variant (body vs whole)."""


class ShapeError(DanceGenError):
    """Array shapes are incompatible."""


class GraphReleasedError(DanceGenError):
    """A backward pass reached a graph that an earlier backward already released."""


class ComparabilityError(DanceGenError):
    """Feature sets come from different extractors and cannot be compared."""


class MissingCheckpointError(DanceGenError):
    """An operation needs a trained model that has not been provided."""


class DependencyError(DanceGenError):
    """A pipeline stage is missing a prerequisite artifact; carries the stage."""

    def __init__(self, message: str, stage: str):
        super().__init__(message)
        self.stage = stage
