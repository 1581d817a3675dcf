"""Percentiles, the sample-count rule and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: Percentiles a latency report may quote, lowest first, each with the N of
#: "one sample in N lies beyond it".
CANDIDATE_PERCENTILES = ((50.0, 2), (90.0, 10), (99.0, 100), (99.9, 1000))

#: A percentile is quoted only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    ``samples`` need not be sorted.  Raises ``ValueError`` when empty: a
    workload without a single good sample has no latency figure.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def midmean(samples: Sequence[float]) -> float:
    """Mean of the middle half of the samples: as deaf to outliers as the
    median, without the median's ties on a clock that counts whole
    nanoseconds."""
    if not samples:
        raise ValueError("midmean of no samples")
    ordered = sorted(samples)
    quarter = len(ordered) // 4
    middle = ordered[quarter : len(ordered) - quarter]
    return sum(middle) / len(middle)


def pooled(rounds: Iterable[Sequence[float]]) -> list[float]:
    """All rounds' samples as one list (percentiles are taken over the pool,
    so a long round weighs as much as the samples it holds)."""
    return [sample for samples in rounds for sample in samples]


def highest_supported_percentile(count: int) -> float | None:
    """The highest candidate percentile with at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it, or None below 20 samples."""
    supported = None
    for q, one_in in CANDIDATE_PERCENTILES:
        if count >= MIN_SAMPLES_BEYOND * one_in:
            supported = q
    return supported


def iqr_share(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median —
    the spread the benchmark's driver holds each bound against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worst_deviation_share(values: Sequence[float]) -> float:
    """Largest relative distance of any value from the median."""
    middle = statistics.median(values)
    return max(abs(value - middle) for value in values) / middle
