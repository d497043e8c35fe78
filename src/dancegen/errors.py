"""Exception types shared across the package, the one reader of every config
section, and the clip-length check of the trainers that stack their clips."""

from __future__ import annotations

import dataclasses
import numbers


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
    so does an unknown key, a section that is not a dict and a value whose
    type does not fit the field's (see `fits`), each named `section.key`."""
    if not isinstance(doc, dict):
        raise ParameterError(f"config section {section!r} must be a JSON object, "
                             f"got {type(doc).__name__}")
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
        if dataclasses.is_dataclass(current):
            kept[key] = read_config(type(current), key, value, current)
            continue
        if not fits(value, current):
            raise ParameterError(f"config key {name}={value!r} must be a "
                                 f"{type(current).__name__}")
        kept[key] = value
    return dataclasses.replace(base, **kept)


def fits(value, default) -> bool:
    """Whether `value` may stand in a field whose default is `default`: an
    integer for an int (a bool is not one), any real number, integers
    included, for a float and a tuple for a tuple.  numpy scalars count as
    numbers; other fields take any value."""
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, numbers.Integral):
        return isinstance(value, numbers.Integral)
    if isinstance(default, numbers.Real):
        return isinstance(value, numbers.Real)
    if isinstance(default, tuple):
        return isinstance(value, tuple)
    return True


def check_minimums(config, **floors) -> None:
    """Raise ParameterError naming the field when a field of `config` lies
    below its floor in `floors` or is NaN, which no comparison holds for."""
    for key, floor in floors.items():
        value = getattr(config, key)
        if not value >= floor:
            raise ParameterError(f"{type(config).__name__}.{key} must be >= {floor}, "
                                 f"got {value!r}")


def check_same_length(what: str, clips) -> None:
    """Raise ShapeError naming the lengths when the arrays in `clips` differ in
    length along their first axis, so they cannot be stacked into one batch."""
    lengths = sorted({len(c) for c in clips})
    if len(lengths) > 1:
        raise ShapeError(f"{what} differ in length ({', '.join(map(str, lengths))}); "
                         f"training stacks them, so all must have one length")
