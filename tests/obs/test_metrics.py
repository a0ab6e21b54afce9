"""Metrics registry: instruments, bucket edges, disabled no-ops."""

import json

import pytest

from repro.errors import FluidMemError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_US,
    Histogram,
    MetricsRegistry,
    MirroredCounters,
    label_key,
)


def test_label_key_sorts_labels():
    assert label_key("m", {}) == "m"
    assert label_key("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"


def test_counter_is_monotonic():
    registry = MetricsRegistry()
    counter = registry.counter("ops", vm="vm0")
    counter.inc()
    counter.inc(by=4)
    assert counter.value == 5
    with pytest.raises(FluidMemError):
        counter.inc(by=-1)


def test_counter_get_or_create_shares_instances():
    registry = MetricsRegistry()
    a = registry.counter("ops", vm="vm0")
    b = registry.counter("ops", vm="vm0")
    c = registry.counter("ops", vm="vm1")
    assert a is b
    assert a is not c


def test_gauge_set_and_add():
    gauge = MetricsRegistry().gauge("pages")
    gauge.set(10)
    gauge.add(-3)
    assert gauge.value == 7


def test_histogram_bucket_edges_are_upper_bounds():
    hist = Histogram("h", edges=(1.0, 10.0, 100.0))
    # On-edge samples land in the bucket whose edge equals them.
    for value in (0.5, 1.0):
        hist.observe(value)
    for value in (1.1, 10.0):
        hist.observe(value)
    for value in (10.5, 100.0):
        hist.observe(value)
    hist.observe(100.1)  # overflow bucket
    assert hist.bucket_counts == (2, 2, 2, 1)
    assert hist.cumulative_counts() == (2, 4, 6, 7)
    assert hist.count == 7


def test_default_buckets_are_strictly_increasing():
    edges = DEFAULT_LATENCY_BUCKETS_US
    assert all(b > a for a, b in zip(edges, edges[1:]))
    assert edges[0] == 1.0 and edges[-1] == 100_000.0


def test_histogram_rejects_bad_edges():
    with pytest.raises(FluidMemError):
        Histogram("h", edges=())
    with pytest.raises(FluidMemError):
        Histogram("h", edges=(5.0, 5.0))
    with pytest.raises(FluidMemError):
        Histogram("h", edges=(5.0, 1.0))


def test_histogram_summary_percentiles_are_exact():
    hist = Histogram("h")
    for value in range(1, 101):
        hist.observe(float(value))
    summary = hist.summary()
    assert summary["count"] == 100
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["min"] == 1.0
    assert summary["max"] == 100.0
    assert summary["mean"] == pytest.approx(50.5)
    assert hist.sum == pytest.approx(5050.0)


def test_empty_histogram_sum_is_zero():
    assert Histogram("h").sum == 0.0


def test_snapshot_is_sorted_and_skips_empty_histograms():
    registry = MetricsRegistry()
    registry.counter("z_ops").inc()
    registry.counter("a_ops").inc()
    registry.gauge("pages", vm="vm0").set(3)
    registry.histogram("lat", vm="vm0").observe(2.5)
    registry.histogram("lat", vm="empty")  # created, never observed
    snap = registry.snapshot()
    assert list(snap["counters"]) == ["a_ops", "z_ops"]
    assert snap["gauges"] == {"pages{vm=vm0}": 3}
    assert list(snap["histograms"]) == ["lat{vm=vm0}"]
    # to_json round-trips and is deterministic.
    assert json.loads(registry.to_json()) == snap


def test_disabled_registry_hands_out_shared_noops():
    registry = MetricsRegistry(enabled=False)
    counter = registry.counter("ops", vm="vm0")
    counter.inc(1000)
    assert counter.value == 0
    assert counter is registry.counter("other", x=1)
    gauge = registry.gauge("pages")
    gauge.set(7)
    gauge.add(7)
    assert gauge.value == 0.0
    hist = registry.histogram("lat")
    hist.observe(5.0)
    assert hist.count == 0
    # Its cap is 0, so a caller appending in place under the cap
    # (LatencyRecorder's contract) reaches the no-op record() instead.
    if len(hist._samples) < hist._cap:
        hist._samples.append(5.0)
    else:
        hist.record(5.0)
    assert hist._samples == [] and hist.count == 0
    # Nothing was registered: the snapshot stays empty.
    assert registry.snapshot() == {
        "counters": {}, "gauges": {}, "histograms": {},
    }


def test_mirrored_counters_feed_both_sinks():
    registry = MetricsRegistry()
    counters = MirroredCounters(registry, vm="vm0")
    counters.incr("faults")
    counters.incr("faults", by=2)
    assert counters["faults"] == 3
    assert registry.counter("faults", vm="vm0").value == 3
