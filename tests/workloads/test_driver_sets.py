"""``AccessDriver.try_hit_set`` against ``try_hits`` over lists.

Twin platforms are built alike and brought to the same state, each
behind a port that logs every ``note_hit_run`` call with the clock and
the marks of every page in the table at that moment.  One side offers
an access list to ``try_hit_set`` as numpy arrays, the other retires it
with ``try_hits`` over Python lists.  The set side must take the offer
exactly when every page of the rest is resident, and a decline must
change nothing; then it carries on as ``Graph500.bfs`` does (``access``
where a flush stops it, then the rest offered again; the lists once an
offer is declined), the other side as after ``try_hits``.  After each
step the returned index, every driver field (the pending hit time to
the bit, the hit, fault and flush counts, the current hit run), the
clock, every page's marks and the two logs must be equal: the log holds
the set side's marks to the instants the per-access run sets them.  The
cases vary ``flush_every``, the hits pending and the current hit run at
the offer, a timeout already in the event heap (so a flush in mid-list
cannot advance in place), repeated pages and writes.  The last tests
cover every other decline: an address outside FluidMem's linear-RAM
window, a prefetched page awaiting its first hit, the LRU-reorder
ablation, a latency recorder and a port with no set body.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.platform import build_platform
from repro.mem import PAGE_SIZE
from repro.sim import LatencyRecorder
from repro.vm import MemoryPort
from repro.workloads import AccessDriver

from tests.core.test_port_runs import FAULTED, fluid_side, port_state

from .test_driver_runs import (
    BACKENDS,
    MEMORY_SCALE,
    PAGES,
    RESIDENT,
    SEED,
    driver_state,
    walk_with_runs,
)


class SnapshotPort(MemoryPort):
    """Passes every call through to ``inner`` and logs each
    ``note_hit_run`` call as (count, clock, every page's marks)."""

    def __init__(self, env, inner, table, base):
        self.env = env
        self.inner = inner
        self.table = table
        self.base = base
        self.log = []

    def marks(self):
        return sorted(
            (vaddr - self.base, pte.page.referenced, pte.page.dirty,
             pte.page.version)
            for vaddr, pte in self.table.items()
        )

    def is_resident(self, vaddr):
        return self.inner.is_resident(vaddr)

    def try_touch(self, vaddr, is_write=False):
        return self.inner.try_touch(vaddr, is_write)

    def touch_run(self, vaddrs, writes, start, stop):
        return self.inner.touch_run(vaddrs, writes, start, stop)

    def resident_set(self, vaddrs):
        return self.inner.resident_set(vaddrs)

    def touch(self, vaddr, is_write=False):
        self.inner.touch(vaddr, is_write)

    def try_access(self, vaddr, is_write=False, kind=None):
        return self.inner.try_access(vaddr, is_write)

    def fault(self, vaddr, is_write=False, kind=None):
        return (yield from self.inner.fault(vaddr, is_write))

    def note_hit_run(self, count):
        self.log.append((count, self.env.now.hex(), self.marks()))
        self.inner.note_hit_run(count)

    @property
    def resident_capacity(self):
        return self.inner.resident_capacity

    @property
    def resident_pages(self):
        return self.inner.resident_pages


class NoSetPort(SnapshotPort):
    """A port without a set body: ``MemoryPort``'s default declines."""

    resident_set = MemoryPort.resident_set


def set_side(backend, flush_every, competing, prefix, extra_run,
             port_type=SnapshotPort, latency=None):
    """One twin: ``RESIDENT`` faulted in, ``prefix`` hits pending, the
    current hit run ``extra_run`` longer than them, and optionally a
    timeout ``competing`` µs ahead."""
    platform = build_platform(backend, memory_scale=MEMORY_SCALE, seed=SEED)
    if platform.monitor is not None:
        table, base = platform.qemu.page_table, platform.qemu.ram_base
    else:
        table, base = platform.mm.table, 0
    port = port_type(platform.env, platform.port, table, base)
    driver = AccessDriver(
        platform.env, port, flush_every=flush_every,
        rng=random.Random(SEED), latency=latency,
    )
    workload = platform.workload_base

    def fault_in():
        for page in RESIDENT:
            yield from driver.access(workload + page * PAGE_SIZE,
                                     page % 4 == 0)
        yield from driver.flush()

    platform.run(fault_in())
    for hit in range(prefix):
        page = RESIDENT[hit % len(RESIDENT)]
        assert driver.try_hit(workload + page * PAGE_SIZE, hit % 3 == 0)
    driver._run_hits += extra_run
    if competing is not None:
        platform.env.timeout(competing)
    return platform, driver


def side_state(platform, driver):
    return driver_state(platform, driver), driver.port.log


def walk_with_sets(driver, pages, writes, index, done):
    """``Graph500.bfs``'s walk of a chunk after its first offer."""
    stop = len(pages)
    while done is not None and done < stop:
        yield from driver.access(int(pages[done]), bool(writes[done]))
        index = done + 1
        done = driver.try_hit_set(pages, writes, index)
    if done is None:
        vaddrs, flags = pages.tolist(), writes.tolist()
        yield from walk_with_runs(driver, vaddrs, flags,
                                  driver.try_hits(vaddrs, flags, index))
    else:
        yield from driver.flush()


def accesses_of(runs, workload):
    vaddrs, writes = [], []
    for page, flags in runs:
        vaddrs.extend([workload + page * PAGE_SIZE] * len(flags))
        writes.extend(flags)
    return vaddrs, writes


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(
    flush_every=st.sampled_from([1, 2, 7, 256]),
    competing=st.sampled_from([None, 0.0, 0.2, 1.0, 20.0, 50.0]),
    prefix=st.integers(0, 300),
    extra_run=st.integers(0, 3),
    data=st.data(),
)
def test_try_hit_set_equals_try_hits_over_lists(
    backend, flush_every, competing, prefix, extra_run, data
):
    # Mostly lists of resident pages, which the set body takes; runs of
    # one page with a write flag per access, up to 24 long, so a list
    # can span a few flush windows at every ``flush_every``.
    pool = data.draw(st.sampled_from(
        [st.sampled_from(list(RESIDENT))] * 3
        + [st.integers(0, PAGES - 1)]
    ), label="pool")
    runs = data.draw(st.lists(
        st.tuples(pool, st.lists(st.booleans(), min_size=1, max_size=24)),
        max_size=40,
    ), label="runs")
    sets = set_side(backend, flush_every, competing, prefix, extra_run)
    loop = set_side(backend, flush_every, competing, prefix, extra_run)
    workload = sets[0].workload_base
    assert loop[0].workload_base == workload
    vaddrs, writes = accesses_of(runs, workload)
    start = data.draw(st.integers(0, len(vaddrs)), label="start")
    pages = np.array(vaddrs, dtype=np.int64)
    flags = np.array(writes, dtype=bool)
    before = side_state(*sets)
    assert before == side_state(*loop)

    absent = any(not sets[1].port.is_resident(vaddr)
                 for vaddr in vaddrs[start:])
    done = sets[1].try_hit_set(pages, flags, start)
    want = loop[1].try_hits(vaddrs, writes, start)
    if done is None:
        assert absent
        assert side_state(*sets) == before
        got = sets[1].try_hits(vaddrs, writes, start)
    else:
        assert not absent
        got = done
    assert got == want
    assert side_state(*sets) == side_state(*loop)

    if done is None:
        sets[0].run(walk_with_runs(sets[1], vaddrs, writes, got))
    else:
        sets[0].run(walk_with_sets(sets[1], pages, flags, start, done))
    loop[0].run(walk_with_runs(loop[1], vaddrs, writes, want))
    assert side_state(*sets) == side_state(*loop)


def offer_changes_nothing(platform, driver, vaddrs, writes):
    before = side_state(platform, driver)
    assert driver.try_hit_set(
        np.array(vaddrs, dtype=np.int64), np.array(writes, dtype=bool)
    ) is None
    assert side_state(platform, driver) == before


def resident_chunk(platform):
    workload = platform.workload_base
    vaddrs = [workload + page * PAGE_SIZE for page in RESIDENT] * 3
    return vaddrs, [index % 5 == 0 for index in range(len(vaddrs))]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_resident_chunk_is_taken(backend):
    platform, driver = set_side(backend, 7, None, 3, 0)
    vaddrs, writes = resident_chunk(platform)
    assert driver.try_hit_set(
        np.array(vaddrs, dtype=np.int64), np.array(writes, dtype=bool)
    ) == len(vaddrs)
    assert driver.hits == 3 + len(vaddrs)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("position", [0, 5, -1])
def test_a_chunk_with_an_absent_page_is_declined(backend, position):
    platform, driver = set_side(backend, 7, None, 3, 1)
    vaddrs, writes = resident_chunk(platform)
    vaddrs[position] = platform.workload_base + PAGE_SIZE
    assert not driver.port.is_resident(vaddrs[position])
    offer_changes_nothing(platform, driver, vaddrs, writes)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_driver_with_a_latency_recorder_declines(backend):
    platform, driver = set_side(backend, 7, None, 3, 0,
                                latency=LatencyRecorder("hits"))
    offer_changes_nothing(platform, driver, *resident_chunk(platform))


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_port_without_a_set_body_declines(backend):
    platform, driver = set_side(backend, 7, None, 3, 0, port_type=NoSetPort)
    offer_changes_nothing(platform, driver, *resident_chunk(platform))


def test_an_address_outside_the_linear_window_is_declined():
    """A resident page of a hotplugged region placed apart from the
    boot region is outside the window the set body marks through."""
    stack, qemu, port = fluid_side("plain", "apart")
    driver = AccessDriver(stack.env, port)
    apart = FAULTED[-1]
    assert port.is_resident(apart) and apart >= qemu.linear_ram_bytes
    resident = [vaddr for vaddr in FAULTED[:16] if port.is_resident(vaddr)]
    pages = np.array(resident + [apart], dtype=np.int64)
    writes = np.zeros(len(pages), dtype=bool)
    before = port_state(stack, qemu), driver.hits, driver._pending_us
    assert driver.try_hit_set(pages, writes) is None
    assert (port_state(stack, qemu), driver.hits,
            driver._pending_us) == before
    assert driver.try_hit_set(pages[:-1], writes[:-1]) == len(resident)


@pytest.mark.parametrize("state", ["prefetch", "reorder"])
def test_a_port_whose_hits_do_more_than_mark_declines(state):
    """With a prefetched page awaiting its first hit, or with the
    LRU-reorder ablation on, a hit also credits the prefetcher or moves
    the page in the LRU, so the FluidMem port has no set body."""
    stack, qemu, port = fluid_side(state)
    driver = AccessDriver(stack.env, port)
    resident = sorted(
        vaddr - qemu.ram_base for vaddr, _pte in qemu.page_table.items()
        if 0 <= vaddr - qemu.ram_base < qemu.linear_ram_bytes
    )
    assert resident
    pages = np.array(resident * 2, dtype=np.int64)
    writes = np.ones(len(pages), dtype=bool)
    before = port_state(stack, qemu), driver.hits, driver._pending_us
    assert driver.try_hit_set(pages, writes) is None
    assert (port_state(stack, qemu), driver.hits,
            driver._pending_us) == before
