"""Unit tests for the pluggable prefetch policies."""

import pytest

from repro.errors import FluidMemError
from repro.mem import PAGE_SIZE
from repro.policy import (
    LeapPrefetcher,
    NoopPrefetcher,
    PolicyCombo,
    SequentialPrefetcher,
    resolve_prefetcher,
    validate_policy_names,
)


class Region:
    """Membership-only stand-in for a uffd region."""

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def __contains__(self, addr):
        return self.lo <= addr < self.hi


REGION = Region(0, 1024 * PAGE_SIZE)


def page(index):
    return index * PAGE_SIZE


# ------------------------------------------------------------------ noop

def test_noop_never_proposes():
    prefetcher = NoopPrefetcher()
    prefetcher.record_fault(1, page(5))
    assert prefetcher.candidates(1, page(5), REGION) == []


# ------------------------------------------------------------ sequential

def test_sequential_proposes_next_depth_pages():
    prefetcher = SequentialPrefetcher(depth=3)
    assert prefetcher.candidates(1, page(10), REGION) == [
        page(11), page(12), page(13)
    ]


def test_sequential_stops_at_region_boundary():
    """Same semantics as the loop previously hard-coded in the monitor:
    stop at the first out-of-region candidate, don't skip over it."""
    prefetcher = SequentialPrefetcher(depth=8)
    near_end = Region(0, 12 * PAGE_SIZE)
    assert prefetcher.candidates(1, page(9), near_end) == [
        page(10), page(11)
    ]
    assert prefetcher.candidates(1, page(11), near_end) == []


def test_sequential_depth_validation():
    with pytest.raises(FluidMemError):
        SequentialPrefetcher(depth=0)


# ------------------------------------------------------------------ leap

def test_leap_learns_a_stride_and_prefetches_along_it():
    prefetcher = LeapPrefetcher(depth=4)
    for i in range(0, 30, 3):  # stride-3 scan
        prefetcher.record_fault(1, page(i))
    assert prefetcher.trend(1) == 3 * PAGE_SIZE
    assert prefetcher.candidates(1, page(27), REGION) == [
        page(30), page(33), page(36), page(39)
    ]


def test_leap_learns_negative_strides():
    prefetcher = LeapPrefetcher(depth=2)
    for i in range(40, 20, -2):  # backward scan
        prefetcher.record_fault(1, page(i))
    assert prefetcher.trend(1) == -2 * PAGE_SIZE
    assert prefetcher.candidates(1, page(22), REGION) == [
        page(20), page(18)
    ]


def test_leap_no_majority_proposes_nothing():
    """Uniform-random deltas have no strict-majority element: the vote
    fails and random access stops polluting the LRU."""
    prefetcher = LeapPrefetcher(depth=4, window=8)
    for i in (0, 7, 2, 40, 11, 3, 99, 58):
        prefetcher.record_fault(1, page(i))
    assert prefetcher.trend(1) is None
    assert prefetcher.candidates(1, page(58), REGION) == []


def test_leap_zero_delta_is_not_a_trend():
    """Repeated faults on one page (write-protect churn) must not
    propose prefetching the faulting page itself."""
    prefetcher = LeapPrefetcher(depth=4)
    for _ in range(10):
        prefetcher.record_fault(1, page(5))
    assert prefetcher.trend(1) is None
    assert prefetcher.candidates(1, page(5), REGION) == []


def test_leap_needs_two_faults_before_voting():
    prefetcher = LeapPrefetcher(depth=4)
    assert prefetcher.candidates(1, page(0), REGION) == []
    prefetcher.record_fault(1, page(0))
    assert prefetcher.candidates(1, page(0), REGION) == []


def test_leap_window_evicts_stale_history():
    """Only the last ``window`` faults vote: an old phase's stride is
    forgotten once the window rolls past it."""
    prefetcher = LeapPrefetcher(depth=1, window=4)
    for i in range(0, 8, 1):  # stride-1 phase
        prefetcher.record_fault(1, page(i))
    for i in range(100, 120, 5):  # stride-5 phase fills the window
        prefetcher.record_fault(1, page(i))
    assert prefetcher.trend(1) == 5 * PAGE_SIZE


def test_leap_state_is_per_token():
    prefetcher = LeapPrefetcher(depth=1)
    for i in range(6):
        prefetcher.record_fault(1, page(i))        # VM 1: stride 1
        prefetcher.record_fault(2, page(i * 7))    # VM 2: stride 7
    assert prefetcher.trend(1) == PAGE_SIZE
    assert prefetcher.trend(2) == 7 * PAGE_SIZE


def test_leap_forget_drops_history():
    prefetcher = LeapPrefetcher(depth=1)
    for i in range(6):
        prefetcher.record_fault(1, page(i))
    prefetcher.forget(1)
    assert prefetcher.trend(1) is None
    prefetcher.forget(1)  # idempotent


def test_leap_respects_region_bounds():
    prefetcher = LeapPrefetcher(depth=8)
    small = Region(0, 10 * PAGE_SIZE)
    for i in range(0, 8):
        prefetcher.record_fault(1, page(i))
    assert prefetcher.candidates(1, page(7), small) == [
        page(8), page(9)
    ]


def test_leap_validation():
    with pytest.raises(FluidMemError):
        LeapPrefetcher(depth=0)
    with pytest.raises(FluidMemError):
        LeapPrefetcher(depth=1, window=1)


# --------------------------------------------------------------- resolve

def test_resolve_prefetcher_defaults_to_none():
    """The shipped default (depth 0) and the explicit 'none' policy
    both cost exactly one ``is None`` check per fault."""
    assert resolve_prefetcher("none", 4) is None
    assert resolve_prefetcher("sequential", 0) is None
    assert resolve_prefetcher("leap", 0) is None


def test_resolve_prefetcher_builds_named_policies():
    assert resolve_prefetcher("sequential", 4).name == "sequential"
    assert resolve_prefetcher("leap", 4).name == "leap"
    with pytest.raises(FluidMemError):
        resolve_prefetcher("oracle", 4)


# -------------------------------------------------------------- registry

def test_validate_policy_names():
    """The monitor's build-time check: ``resolve_prefetcher`` lets any
    name through at depth 0, so a misspelt policy fails here."""
    validate_policy_names("leap")
    assert resolve_prefetcher("nope", 0) is None
    with pytest.raises(FluidMemError):
        validate_policy_names("nope")


def test_policy_combo_label_and_validation():
    combo = PolicyCombo("leap", 4)
    assert combo.label == "leap+h4"
    with pytest.raises(FluidMemError):
        PolicyCombo("nope", 1)
    with pytest.raises(FluidMemError):
        PolicyCombo("leap", 0)
