"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


class TooFewSamples(ValueError):
    """Raised when a percentile has fewer than ``MIN_TAIL`` samples beyond it."""


def percentile(values: list[float], q: float, min_tail: int = MIN_TAIL) -> float:
    """Nearest-rank ``q`` percentile (0 < q < 1) of ``values``.

    Refuses (raises :class:`TooFewSamples`) unless at least ``min_tail``
    samples lie strictly beyond the reported rank, so a p95 of 40 samples
    is never passed off as a tail measurement.
    """
    if not 0 < q < 1:
        raise ValueError("q must be in (0, 1)")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_tail:
        raise TooFewSamples(
            f"p{round(q * 100)} of {len(ordered)} samples has {beyond} beyond it; "
            f"need {min_tail}"
        )
    return ordered[rank - 1]


def geomean(values: list[float]) -> float:
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def class_geomean_of_medians(samples: dict[str, list[float]]) -> float:
    """Geometric mean over classes of each class's median."""
    return geomean([statistics.median(values) for values in samples.values() if values])


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
