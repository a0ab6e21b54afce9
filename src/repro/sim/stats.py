"""Measurement utilities: latency recorders, CDFs, time series.

Everything the benchmark harness reports — Figure 3's CDFs, Table I's
avg/stdev/99th columns, Figure 5's latency-vs-time traces — is produced
by the classes in this module, so the harness code stays declarative.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "percentile",
    "harmonic_mean",
    "LatencyRecorder",
    "TimeSeries",
    "CounterSet",
    "Cdf",
]


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``samples``.

    Matches ``numpy.percentile``'s default ('linear') method.
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    interpolated = ordered[low] * (1.0 - frac) + ordered[high] * frac
    # Guard against float rounding drifting outside the bracket.
    return min(max(interpolated, ordered[low]), ordered[high])


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean, as Graph500 uses to aggregate TEPS across trials."""
    if not values:
        raise ValueError("harmonic mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("harmonic mean requires positive values")
    return len(values) / sum(1.0 / v for v in values)


class Cdf:
    """An empirical CDF over a sample set."""

    def __init__(self, samples: Sequence[float]) -> None:
        if not samples:
            raise ValueError("CDF of empty sample set")
        self._sorted = sorted(samples)

    def fraction_below(self, x: float) -> float:
        """Fraction of samples <= x."""
        lo, hi = 0, len(self._sorted)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._sorted[mid] <= x:
                lo = mid + 1
            else:
                hi = mid
        return lo / len(self._sorted)

    def quantile(self, fraction: float) -> float:
        """Smallest sample value with at least ``fraction`` mass below."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        index = min(
            len(self._sorted) - 1,
            max(0, math.ceil(fraction * len(self._sorted)) - 1),
        )
        return self._sorted[index]

    def points(self, count: int = 100) -> List[Tuple[float, float]]:
        """(value, fraction) pairs suitable for plotting, ``count`` of them."""
        if count < 2:
            raise ValueError("need at least 2 points")
        n = len(self._sorted)
        points = []
        for i in range(count):
            idx = round(i * (n - 1) / (count - 1))
            points.append((self._sorted[idx], (idx + 1) / n))
        return points


class LatencyRecorder:
    """Accumulates latency samples for one labelled measurement point.

    Keeps raw samples (bounded by ``max_samples`` with reservoir-free
    head-keep: summary stats stay exact via running accumulators even
    when raw-sample retention is capped).
    """

    __slots__ = (
        "name",
        "max_samples",
        "_samples",
        "_count",
        "_sum",
        "_welford_mean",
        "_welford_m2",
        "_min",
        "_max",
    )

    def __init__(self, name: str, max_samples: Optional[int] = None) -> None:
        self.name = name
        self.max_samples = max_samples
        self._samples: List[float] = []
        self._count = 0
        self._sum = 0.0
        # Welford running moments: numerically stable for near-constant
        # streams, unlike the sum-of-squares formula.
        self._welford_mean = 0.0
        self._welford_m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative latency {value} for {self.name!r}")
        count = self._count + 1
        self._count = count
        self._sum += value
        delta = value - self._welford_mean
        mean = self._welford_mean + delta / count
        self._welford_mean = mean
        self._welford_m2 += delta * (value - mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        samples = self._samples
        max_samples = self.max_samples
        if max_samples is None or len(samples) < max_samples:
            samples.append(value)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError(f"no samples recorded for {self.name!r}")
        return self._sum / self._count

    @property
    def stdev(self) -> float:
        if self._count < 2:
            return 0.0
        return math.sqrt(max(0.0, self._welford_m2 / (self._count - 1)))

    @property
    def minimum(self) -> float:
        if self._count == 0:
            raise ValueError(f"no samples recorded for {self.name!r}")
        return self._min

    @property
    def maximum(self) -> float:
        if self._count == 0:
            raise ValueError(f"no samples recorded for {self.name!r}")
        return self._max

    def percentile(self, q: float) -> float:
        return percentile(self._samples, q)

    def cdf(self) -> Cdf:
        return Cdf(self._samples)

    @property
    def samples(self) -> Sequence[float]:
        """Retained raw samples (all of them unless ``max_samples`` hit)."""
        return tuple(self._samples)

    def summary(self) -> Dict[str, float]:
        """Dict matching Table I's columns: avg, stdev, p99."""
        return {
            "count": float(self._count),
            "avg": self.mean,
            "stdev": self.stdev,
            "p99": self.percentile(99.0),
            "min": self.minimum,
            "max": self.maximum,
        }

    def __repr__(self) -> str:
        if self._count == 0:
            return f"<LatencyRecorder {self.name!r} empty>"
        return (
            f"<LatencyRecorder {self.name!r} n={self._count} "
            f"avg={self.mean:.2f}us>"
        )


class TimeSeries:
    """(time, value) pairs, e.g. Figure 5's latency-vs-runtime traces."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"time going backwards in series {self.name!r}: "
                f"{time} < {self._times[-1]}"
            )
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> Sequence[float]:
        return tuple(self._times)

    @property
    def values(self) -> Sequence[float]:
        return tuple(self._values)

    def mean(self) -> float:
        if not self._values:
            raise ValueError(f"empty series {self.name!r}")
        return sum(self._values) / len(self._values)

    def bucketed(self, bucket_width: float) -> List[Tuple[float, float]]:
        """Average values into fixed-width time buckets (for plotting)."""
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        if not self._times:
            return []
        buckets: Dict[int, List[float]] = {}
        for t, v in zip(self._times, self._values):
            buckets.setdefault(int(t // bucket_width), []).append(v)
        return [
            (index * bucket_width, sum(vals) / len(vals))
            for index, vals in sorted(buckets.items())
        ]


class CounterSet:
    """Named monotonic counters (fault counts, evictions, steals, ...)."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def incr(self, name: str, by: int = 1) -> None:
        if by < 0:
            raise ValueError("counters are monotonic; use a new counter")
        try:
            self._counts[name] += by
        except KeyError:
            self._counts[name] = by

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def __repr__(self) -> str:
        return f"<CounterSet {self._counts!r}>"
