"""Percentiles and spreads for the benchmark's reports."""

from __future__ import annotations

import math

MIN_BEYOND = 10  # samples that must lie above a reported percentile


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than MIN_BEYOND samples above it."""


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank q-th percentile (0 < q < 100).

    Refuses when fewer than `min_beyond` samples rank above the reported one,
    so a tail figure always rests on at least that many slower samples.
    Failed operations enter as +inf: they miss every latency.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile {q} outside (0, 100)")
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {n - rank} beyond it; need {min_beyond}")
    return xs[rank - 1]

