"""Per-code-path profiling (the built-in ability behind Table I).

"FluidMem has the built-in ability to profile individual components of
the page fault handling path" (§VI-C).  Every time the monitor charges
simulated time to one of its code paths, it reports the charge here;
:meth:`Profiler.table` then reproduces Table I's avg / stdev / 99th
columns.

The profiler is a thin facade over a
:class:`repro.obs.MetricsRegistry`: each code path becomes one
``codepath_latency_us`` histogram (labelled with the path and, when the
monitor is observed, its VM/monitor name), so the same samples that
print Table I also land in the ``--metrics`` snapshot and the CI
perf-regression gate.  A charge only appends its sample (the monitor's
fault path appends it directly while the histogram is under its
retention cap): the histogram folds moments and bucket counts when
Table I or the snapshot reads them (DESIGN.md §12).
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Tuple

from ..obs import Histogram, MetricsRegistry

__all__ = ["CodePath", "Profiler", "CODEPATH_METRIC"]

#: The registry histogram family every code-path charge lands in.
CODEPATH_METRIC = "codepath_latency_us"


class CodePath(enum.Enum):
    """The code paths Table I reports, plus monitor-internal ones."""

    UPDATE_PAGE_CACHE = "UPDATE_PAGE_CACHE"
    INSERT_PAGE_HASH_NODE = "INSERT_PAGE_HASH_NODE"
    INSERT_LRU_CACHE_NODE = "INSERT_LRU_CACHE_NODE"
    UFFD_ZEROPAGE = "UFFD_ZEROPAGE"
    UFFD_REMAP = "UFFD_REMAP"
    UFFD_COPY = "UFFD_COPY"
    READ_PAGE = "READ_PAGE"
    WRITE_PAGE = "WRITE_PAGE"
    # Not in Table I, but useful to see where the rest of a fault goes.
    EVENT_DISPATCH = "EVENT_DISPATCH"
    LOOKUP_PAGE_HASH = "LOOKUP_PAGE_HASH"
    WAKE = "WAKE"
    # Resilience paths: backoff spent retrying remote-store operations
    # (critical-path reads / sync eviction writes / write-back flushes).
    READ_RETRY = "READ_RETRY"
    WRITE_RETRY = "WRITE_RETRY"

    @classmethod
    def table1_paths(cls) -> List["CodePath"]:
        """The eight rows of Table I, in the paper's order."""
        return [
            cls.UPDATE_PAGE_CACHE,
            cls.INSERT_PAGE_HASH_NODE,
            cls.INSERT_LRU_CACHE_NODE,
            cls.UFFD_ZEROPAGE,
            cls.UFFD_REMAP,
            cls.UFFD_COPY,
            cls.READ_PAGE,
            cls.WRITE_PAGE,
        ]


class Profiler:
    """Latency recorder per code path, backed by a metrics registry."""

    def __init__(
        self,
        max_samples_per_path: int = 100_000,
        registry: Optional[MetricsRegistry] = None,
        **labels: object,
    ) -> None:
        """``registry``/``labels`` attach the profiler to a shared
        observability registry (labels typically carry ``vm=<name>``);
        with neither, it keeps a private always-on registry so Table I
        profiling works without any observability wiring."""
        self._private = registry is None
        self._max_samples = max_samples_per_path
        if registry is None:
            registry = MetricsRegistry(
                max_samples_per_histogram=max_samples_per_path
            )
        self._registry = registry
        self._labels = dict(labels)
        self._recorded: dict = {}
        #: Called by :meth:`reset`: an owner that holds histograms from
        #: :meth:`histogram` (the monitor) drops them here.
        self.on_reset: Optional[Callable[[], None]] = None

    def record(self, path: CodePath, latency_us: float) -> None:
        histogram = self._recorded.get(path)
        if histogram is None:
            histogram = self.histogram(path)
        histogram.observe(latency_us)

    def histogram(self, path: CodePath) -> Histogram:
        """The histogram for ``path``, created on first use.

        For the monitor's fault path, which records several samples
        per fault: holding the histogram skips the per-call path lookup
        that :meth:`record` pays, and lets a sample that is
        non-negative by construction be appended to the retained
        samples while they are under the cap (DESIGN.md §12).  A reset
        invalidates the histograms handed out: a holder re-fetches them
        after :meth:`reset` calls its :attr:`on_reset`.
        """
        try:
            return self._recorded[path]
        except KeyError:
            histogram = self._registry.histogram(
                CODEPATH_METRIC, path=path.value, **self._labels
            )
            self._recorded[path] = histogram
            return histogram

    def recorder(self, path: CodePath) -> Histogram:
        """The histogram for ``path`` (mean/stdev/percentile API)."""
        try:
            return self._recorded[path]
        except KeyError:
            raise KeyError(
                f"no samples recorded for code path {path.value}"
            ) from None

    def has_samples(self, path: CodePath) -> bool:
        return path in self._recorded

    def table(self) -> List[Tuple[str, float, float, float]]:
        """(path, avg, stdev, p99) rows in Table I's layout and order."""
        rows = []
        for path in CodePath.table1_paths():
            if path not in self._recorded:
                continue
            histogram = self._recorded[path]
            rows.append(
                (
                    path.value,
                    histogram.mean,
                    histogram.stdev,
                    histogram.percentile(99.0),
                )
            )
        return rows

    def reset(self) -> None:
        """Forget this profiler's view of its paths.

        With a private registry the samples are dropped entirely; on a
        shared registry the histograms stay exported (a registry is a
        run-scoped record) but this profiler starts fresh mappings.
        :attr:`on_reset` then runs, so a holder of the old histograms
        fetches the new ones on its next sample.
        """
        self._recorded.clear()
        if self._private:
            self._registry = MetricsRegistry(
                max_samples_per_histogram=self._max_samples
            )
        if self.on_reset is not None:
            self.on_reset()
