"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the one sink every instrumented code path reports to —
the monitor's fault paths, the write-back flusher, the LRU buffer, the
fault-injection wrappers, and the retry loops all register instruments
here, keyed by metric name plus sorted ``key=value`` labels (typically
``vm`` and ``path``).  A snapshot of the whole registry is the
machine-readable summary the bench CLI writes with ``--metrics``, and
the committed ``benchmarks/baselines/*.json`` files are exactly such
snapshots.

Disabled mode is near-free: a registry constructed with
``enabled=False`` hands out shared no-op instruments, so call sites pay
one method call on a singleton and allocate nothing.
"""

from __future__ import annotations

import json
from bisect import bisect_left as _bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import FluidMemError
from ..sim import CounterSet, LatencyRecorder

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_US",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MirroredCounters",
    "label_key",
]

#: Log-spaced latency bucket upper edges in µs (an implicit +inf bucket
#: follows the last edge).  Spans sub-µs list operations up to the
#: retry deadline scale.
DEFAULT_LATENCY_BUCKETS_US: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0, 100_000.0,
)


def label_key(name: str, labels: Dict[str, object]) -> str:
    """Canonical instrument key: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A named monotonic counter."""

    __slots__ = ("key", "_value", "_registry")

    def __init__(
        self, key: str, registry: Optional["MetricsRegistry"] = None
    ) -> None:
        self.key = key
        self._value = 0
        #: The registry this counter belongs to: reading :attr:`value`
        #: folds its :class:`MirroredCounters` in first.
        self._registry = registry

    def inc(self, by: int = 1) -> None:
        if by < 0:
            raise FluidMemError(f"counter {self.key!r} cannot decrease")
        self._value += by

    @property
    def value(self) -> int:
        if self._registry is not None:
            self._registry.fold_mirrors()
        return self._value


class Gauge:
    """A named point-in-time value (resident pages, capacity, ...)."""

    __slots__ = ("key", "_value")

    def __init__(self, key: str) -> None:
        self.key = key
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def add(self, delta: float) -> None:
        self._value += delta

    @property
    def value(self) -> float:
        return self._value


class Histogram(LatencyRecorder):
    """Fixed-bucket latency histogram with exact summary statistics.

    A :class:`~repro.sim.LatencyRecorder` plus bucket edges.  Edges are
    upper bounds; a sample lands in the first bucket whose edge is >=
    the sample, or the implicit overflow bucket past the last edge.
    :meth:`observe` is the recorder's ``record``: it checks the sample
    and retains it, and the bucket counts are folded with the moments
    when read (DESIGN.md §12).  Retained raw samples keep p50/p95/p99
    exact (not bucket-interpolated) as long as retention isn't capped —
    the bench's quick runs stay far below the cap.
    """

    __slots__ = ("edges", "_bucket_counts")

    def __init__(
        self,
        key: str,
        edges: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US,
        max_samples: Optional[int] = 100_000,
    ) -> None:
        if not edges:
            raise FluidMemError("histogram needs at least one bucket edge")
        ordered = tuple(float(e) for e in edges)
        if any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise FluidMemError(
                f"bucket edges must be strictly increasing: {ordered}"
            )
        super().__init__(key, max_samples=max_samples)
        self.edges = ordered
        self._bucket_counts = [0] * (len(ordered) + 1)

    observe = LatencyRecorder.record

    def _fold(self, values: Sequence[float]) -> None:
        super()._fold(values)
        counts = self._bucket_counts
        edges = self.edges
        for value in values:
            counts[_bisect_left(edges, value)] += 1

    # -- accessors ---------------------------------------------------------

    @property
    def key(self) -> str:
        return self.name

    @property
    def bucket_counts(self) -> Tuple[int, ...]:
        """Per-bucket counts; the last entry is the overflow bucket."""
        self._catch_up()
        return tuple(self._bucket_counts)

    def cumulative_counts(self) -> Tuple[int, ...]:
        out: List[int] = []
        running = 0
        for count in self.bucket_counts:
            running += count
            out.append(running)
        return tuple(out)

    def summary(self, ndigits: int = 4) -> Dict[str, object]:
        """The snapshot row: op count plus the tracked percentiles."""
        return {
            "count": self.count,
            "mean": round(self.mean, ndigits),
            "p50": round(self.percentile(50.0), ndigits),
            "p95": round(self.percentile(95.0), ndigits),
            "p99": round(self.percentile(99.0), ndigits),
            "min": round(self.minimum, ndigits),
            "max": round(self.maximum, ndigits),
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, by: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram(Histogram):
    """Drops every sample.

    Its retention cap is 0, so a caller that appends in place while a
    recorder is under its cap (:class:`~repro.sim.LatencyRecorder`)
    always reaches the no-op :meth:`record` instead.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null", edges=(1.0,), max_samples=0)

    def observe(self, value: float) -> None:
        pass

    record = observe


class MetricsRegistry:
    """All instruments of one observed run, keyed by name + labels."""

    def __init__(
        self,
        enabled: bool = True,
        max_samples_per_histogram: Optional[int] = 100_000,
    ) -> None:
        self.enabled = enabled
        self._max_samples = max_samples_per_histogram
        self._counters: Dict[str, Counter] = {}
        #: Component counter sets whose counts reach the counters above
        #: when the registry is read (:meth:`fold_mirrors`).
        self._mirrors: List["MirroredCounters"] = []
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # Shared no-op instruments handed out while disabled: call
        # sites keep working and allocate nothing.
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram()

    # -- instrument accessors (get-or-create) ------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        if not self.enabled:
            return self._null_counter
        key = label_key(name, labels)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter(key, self)
        return counter

    def gauge(self, name: str, **labels: object) -> Gauge:
        if not self.enabled:
            return self._null_gauge
        key = label_key(name, labels)
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge(key)
        return gauge

    def histogram(
        self,
        name: str,
        edges: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US,
        **labels: object,
    ) -> Histogram:
        if not self.enabled:
            return self._null_histogram
        key = label_key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(
                key, edges=edges, max_samples=self._max_samples
            )
        return histogram

    def fold_mirrors(self) -> None:
        """Add what every :class:`MirroredCounters` counted since the
        last fold to this registry's counters.

        Every read of a counter comes here first (:attr:`Counter.value`,
        :meth:`snapshot`), so a read sees every increment made so far,
        as if each had been mirrored when it was made.
        """
        for mirror in self._mirrors:
            mirror._fold()

    # -- export -------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Deterministic dict of everything recorded (sorted keys)."""
        self.fold_mirrors()
        return {
            "counters": {
                key: self._counters[key]._value
                for key in sorted(self._counters)
            },
            "gauges": {
                key: self._gauges[key].value
                for key in sorted(self._gauges)
            },
            "histograms": {
                key: self._histograms[key].summary()
                for key in sorted(self._histograms)
                if self._histograms[key].count
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


class MirroredCounters(CounterSet):
    """A :class:`~repro.sim.CounterSet` whose counts also reach a registry.

    The monitor, write-back queue, and store wrappers keep their
    existing ``counters`` attribute (tests and ``stats()`` read it);
    when observability is on, the same counts land in the shared
    registry under the component's labels.  They land when the
    registry is read, not on each increment (fold on read, DESIGN.md
    §12): the set is a plain mapping that hot paths update in place,
    and :meth:`MetricsRegistry.fold_mirrors` adds each name's growth
    since the last fold to ``registry.counter(name, **labels)``,
    creating that counter, at zero if need be, for every name counted.
    """

    __slots__ = ("_registry", "_labels", "_folded")

    def __init__(self, registry: MetricsRegistry, **labels: object) -> None:
        super().__init__()
        self._registry = registry
        self._labels = labels
        #: name -> how much of its count the registry already holds.
        self._folded: Dict[str, int] = {}
        registry._mirrors.append(self)

    def _fold(self) -> None:
        folded = self._folded
        for name, count in self.items():
            done = folded.get(name)
            if done != count:
                self._registry.counter(name, **self._labels).inc(
                    count - (done or 0)
                )
                folded[name] = count
