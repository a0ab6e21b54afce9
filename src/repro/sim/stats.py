"""Measurement utilities: latency recorders, CDFs, time series.

Everything the benchmark harness reports — Figure 3's CDFs, Table I's
avg/stdev/99th columns, Figure 5's latency-vs-time traces — is produced
by the classes in this module, so the harness code stays declarative.
"""

from __future__ import annotations

import math
import sys
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

    Keeps raw samples, bounded by ``max_samples`` with head-keep (the
    first ``max_samples`` are retained).  The summary statistics stay
    exact past the cap, because they are folded from every sample.

    Fold on read (DESIGN.md §12): while retention is not capped,
    :meth:`record` only checks the sample and appends it.  Count, sum,
    the Welford moments, min and max are folded from the retained
    samples, in record order, when a statistic is first read; a later
    read folds only what was recorded since.  The first sample past the
    cap folds the retained samples that are still unfolded, and from
    then on each sample is folded as it is recorded.  Every sample goes
    through the one update in :meth:`_fold` exactly once and in record
    order, so the results are the same floats an update per record
    would give.

    Appending in place: a hot caller whose sample is non-negative by
    construction (a clamped draw, a clock difference) may append it to
    ``_samples`` itself while ``len(_samples) < _cap``, and calls
    :meth:`record` otherwise.  That is :meth:`record` without its
    negative-sample check and without a Python call, so the retained
    samples and every statistic stay the same.  A subclass whose
    :meth:`record` does anything else must keep its cap at 0, so that
    such callers always call it (the disabled registry's no-op
    histogram does).
    """

    __slots__ = (
        "name",
        "_cap",
        "_samples",
        "_folded",
        "_count",
        "_sum",
        "_welford_mean",
        "_welford_m2",
        "_min",
        "_max",
    )

    def __init__(self, name: str, max_samples: Optional[int] = None) -> None:
        self.name = name
        #: Retention bound as an int, so record() compares int to int.
        self._cap = sys.maxsize if max_samples is None else max_samples
        self._samples: List[float] = []
        #: How many of the retained samples the accumulators include.
        self._folded = 0
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
        samples = self._samples
        if len(samples) < self._cap:
            samples.append(value)
            return
        # Past the cap the sample is not retained: fold it now, after
        # every retained sample (record order).
        self._catch_up()
        self._fold((value,))

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    def _catch_up(self) -> None:
        """Fold the retained samples recorded since the last fold."""
        samples = self._samples
        if self._folded < len(samples):
            self._fold(samples[self._folded:])
            self._folded = len(samples)

    def _fold(self, values: Sequence[float]) -> None:
        """The one accumulator update, over ``values`` in order.

        A plain loop on purpose: builtin ``sum()`` compensates its
        rounding on Python >= 3.12 and would not give the same float.
        """
        count = self._count
        total = self._sum
        mean = self._welford_mean
        m2 = self._welford_m2
        low = self._min
        high = self._max
        for value in values:
            count += 1
            total += value
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            if value < low:
                low = value
            if value > high:
                high = value
        self._count = count
        self._sum = total
        self._welford_mean = mean
        self._welford_m2 = m2
        self._min = low
        self._max = high

    @property
    def max_samples(self) -> Optional[int]:
        """Retention cap (``None``: every sample is retained)."""
        return None if self._cap == sys.maxsize else self._cap

    @property
    def count(self) -> int:
        self._catch_up()
        return self._count

    @property
    def sum(self) -> float:
        """The in-order running sum of every sample (0.0 when empty)."""
        self._catch_up()
        return self._sum

    @property
    def mean(self) -> float:
        self._catch_up()
        if self._count == 0:
            raise ValueError(f"no samples recorded for {self.name!r}")
        return self._sum / self._count

    @property
    def stdev(self) -> float:
        self._catch_up()
        if self._count < 2:
            return 0.0
        return math.sqrt(max(0.0, self._welford_m2 / (self._count - 1)))

    @property
    def minimum(self) -> float:
        self._catch_up()
        if self._count == 0:
            raise ValueError(f"no samples recorded for {self.name!r}")
        return self._min

    @property
    def maximum(self) -> float:
        self._catch_up()
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
            "count": float(self.count),
            "avg": self.mean,
            "stdev": self.stdev,
            "p99": self.percentile(99.0),
            "min": self.minimum,
            "max": self.maximum,
        }

    def __repr__(self) -> str:
        kind = type(self).__name__
        if self.count == 0:
            return f"<{kind} {self.name!r} empty>"
        return f"<{kind} {self.name!r} n={self._count} avg={self.mean:.2f}us>"


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


class CounterSet(dict):
    """Named monotonic counters (fault counts, evictions, steals, ...).

    A plain ``dict`` of name -> count in which a missing name reads 0.
    Hot paths update it in place, ``counters[name] += 1``, which costs
    no Python call once the name is counted (its first increment goes
    through :meth:`__missing__`).  A name's first increment inserts it
    exactly where :meth:`incr` would, so :meth:`as_dict` keeps
    first-increment order.  Everywhere else :meth:`incr` also checks
    that counts only grow.
    """

    __slots__ = ()

    def __missing__(self, name: str) -> int:
        return 0

    def incr(self, name: str, by: int = 1) -> None:
        if by < 0:
            raise ValueError("counters are monotonic; use a new counter")
        self[name] = self.get(name, 0) + by

    def as_dict(self) -> Dict[str, int]:
        return dict(self)

    def __repr__(self) -> str:
        return f"<CounterSet {dict(self)!r}>"
