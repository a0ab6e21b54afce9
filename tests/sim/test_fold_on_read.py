"""Fold on read: recorder statistics equal the per-record update.

:class:`LatencyRecorder` and :class:`Histogram` defer the moment and
bucket updates to the first read (DESIGN.md §12).  ``EagerReference``
below is the update they replace, applied at every record; every
statistic must match it bit for bit, whatever the retention cap and
wherever the reads fall in the stream.
"""

import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import Histogram
from repro.sim import LatencyRecorder, percentile

EDGES = (1.0, 10.0, 100.0, 1_000.0)


class EagerReference:
    """The per-record update: Welford moments, running sum, min/max,
    bucket counts and head-keep retention, all at ``record`` time."""

    def __init__(self, max_samples, edges=EDGES):
        self.max_samples = max_samples
        self.edges = edges
        self.samples = []
        self.count = 0
        self.sum = 0.0
        self.welford_mean = 0.0
        self.welford_m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets = [0] * (len(edges) + 1)

    def record(self, value):
        if value < 0:
            raise ValueError(value)
        self.buckets[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        delta = value - self.welford_mean
        self.welford_mean = self.welford_mean + delta / self.count
        self.welford_m2 += delta * (value - self.welford_mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.max_samples is None or len(self.samples) < self.max_samples:
            self.samples.append(value)

    @property
    def mean(self):
        return self.sum / self.count

    @property
    def stdev(self):
        if self.count < 2:
            return 0.0
        return math.sqrt(max(0.0, self.welford_m2 / (self.count - 1)))


def same(a, b):
    """Bit-for-bit float equality (distinguishes 0.0 from -0.0)."""
    return float(a).hex() == float(b).hex()


def assert_matches(recorder, reference, histogram):
    assert recorder.count == reference.count
    assert same(recorder.sum, reference.sum)
    assert list(recorder.samples) == reference.samples
    if reference.count:
        assert same(recorder.mean, reference.mean)
        assert same(recorder.stdev, reference.stdev)
        assert same(recorder.minimum, reference.min)
        assert same(recorder.maximum, reference.max)
    if reference.samples:
        for q in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert same(recorder.percentile(q),
                        percentile(reference.samples, q))
    if histogram:
        assert recorder.bucket_counts == tuple(reference.buckets)


samples = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    stream=st.lists(samples, max_size=60),
    cap_offset=st.sampled_from([None, -7, -1, 0, 1, 5]),
    reads=st.sets(st.integers(min_value=0, max_value=60)),
    histogram=st.booleans(),
)
def test_fold_matches_eager_update_bit_for_bit(stream, cap_offset, reads,
                                               histogram):
    # The cap lands below, at or above the stream length.
    cap = None if cap_offset is None else max(0, len(stream) + cap_offset)
    if histogram:
        recorder = Histogram("h", edges=EDGES, max_samples=cap)
    else:
        recorder = LatencyRecorder("r", max_samples=cap)
    reference = EagerReference(cap)
    for index, value in enumerate(stream):
        if index in reads:
            assert_matches(recorder, reference, histogram)
        recorder.record(value)
        reference.record(value)
    assert_matches(recorder, reference, histogram)


@pytest.mark.parametrize("histogram", [False, True])
@pytest.mark.parametrize("cap", [None, 3])
def test_negative_sample_raises_at_record_and_changes_nothing(histogram,
                                                              cap):
    if histogram:
        recorder = Histogram("x", edges=EDGES, max_samples=cap)
    else:
        recorder = LatencyRecorder("x", max_samples=cap)
    reference = EagerReference(cap)
    for value in (2.0, 0.5, 40.0, 7.0, 3.25):  # crosses the cap of 3
        recorder.record(value)
        reference.record(value)

    def state():
        return (recorder._samples[:], recorder._folded, recorder._count,
                recorder._sum, recorder._welford_mean, recorder._welford_m2,
                recorder._min, recorder._max,
                list(getattr(recorder, "_bucket_counts", ())))

    before = state()
    with pytest.raises(ValueError):
        recorder.record(-1.0)
    assert state() == before
    assert_matches(recorder, reference, histogram)


def test_histogram_sum_is_the_in_order_running_sum():
    # mean x count would read 1.8499999999999996 here.
    histogram = Histogram("h")
    for value in (0.1, 0.1, 1.65):
        histogram.observe(value)
    assert same(histogram.sum, 1.8499999999999999)
