"""Exception types shared across the package, the one reader of every config
section, and the clip-length check of the trainers that stack their clips."""

from __future__ import annotations

import dataclasses


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


def read_config(cls, section: str, doc: dict, base=None):
    """The config dataclass `cls` from a saved or given dict, starting from
    `base` (default `cls()`) so a missing key keeps its value there.

    A JSON list becomes a tuple, and a nested dataclass is read from its own
    dict as section `key`.  A key in `cls.RETIRED` (a removed field) is
    dropped when it holds the one value the code still runs, or any value
    where that table holds None; any other value raises ParameterError, and
    so does an unknown key, each named `section.key`."""
    base = cls() if base is None else base
    retired = getattr(cls, "RETIRED", {})
    known = {f.name for f in dataclasses.fields(cls)}
    kept = {}
    for key, value in doc.items():
        name = f"{section}.{key}"
        if isinstance(value, list):
            value = tuple(value)
        if key in retired:
            if retired[key] is not None and value != retired[key]:
                raise ParameterError(f"config key {name}={value!r} was removed; "
                                     f"only {retired[key]!r} is supported")
            continue
        if key not in known:
            raise ParameterError(f"unknown config key {name!r}")
        current = getattr(base, key)
        kept[key] = (read_config(type(current), key, value, current)
                     if dataclasses.is_dataclass(current) else value)
    return dataclasses.replace(base, **kept)


def check_same_length(what: str, clips) -> None:
    """Raise ShapeError naming the lengths when the arrays in `clips` differ in
    length along their first axis, so they cannot be stacked into one batch."""
    lengths = sorted({len(c) for c in clips})
    if len(lengths) > 1:
        raise ShapeError(f"{what} differ in length ({', '.join(map(str, lengths))}); "
                         f"training stacks them, so all must have one length")
