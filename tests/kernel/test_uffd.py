"""Tests for the userfaultfd emulation."""

import random

import pytest

from repro.errors import UffdError, UffdRegionError
from repro.kernel import UffdLatency, UffdOps, Userfaultfd
from repro.mem import (
    PAGE_SIZE,
    FrameAllocator,
    MemoryRegion,
    PageKind,
    PageTable,
)
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def uffd(env):
    return Userfaultfd(env, UffdLatency(), random.Random(1))


@pytest.fixture
def ops(env):
    return UffdOps(env, UffdLatency(), random.Random(2),
                   FrameAllocator(1024))


def region(start=0x100000, pages=16):
    return MemoryRegion(start, pages * PAGE_SIZE)


def test_register_and_find(uffd):
    table = PageTable()
    handle = uffd.register(region(), pid=42, page_table=table)
    assert uffd.find_region(0x100000, pid=42) is handle
    assert uffd.find_region(0x100000, pid=7) is None
    assert uffd.find_region(0x100000 + 16 * PAGE_SIZE, pid=42) is None


def test_register_overlap_rejected(uffd):
    table = PageTable()
    uffd.register(region(), pid=42, page_table=table)
    with pytest.raises(UffdRegionError):
        uffd.register(region(start=0x100000 + PAGE_SIZE, pages=2),
                      pid=42, page_table=table)
    # A different process may overlap addresses freely.
    uffd.register(region(), pid=43, page_table=PageTable())


def test_unregister_invalidates(uffd):
    table = PageTable()
    handle = uffd.register(region(), pid=42, page_table=table)
    uffd.unregister(handle)
    assert uffd.find_region(0x100000, pid=42) is None
    assert handle not in uffd.registered_regions
    with pytest.raises(UffdRegionError):
        uffd.unregister(handle)


def test_unregister_cycles_keep_only_live_handles(env, uffd, ops):
    """Deregister and migration detach/attach cycles must not grow the
    registry that every fault and registration scans."""
    tables = {}
    stale = []
    for cycle in range(20):
        pid = 100 + cycle
        tables[pid] = PageTable()
        handle = uffd.register(region(), pid=pid, page_table=tables[pid])
        if cycle % 4:
            uffd.unregister(handle)
            stale.append(handle)
    live = uffd.registered_regions
    assert len(uffd._regions) == len(live) == 5
    assert all(handle.valid for handle in live)
    # Holders of a stale handle still see it invalid.
    assert not any(handle.valid for handle in stale)
    assert all(handle not in uffd._regions for handle in stale)
    with pytest.raises(UffdError):
        uffd.raise_fault(0x100000, pid=stale[0].pid, is_write=False)

    def vcpu(env, handle):
        fault = uffd.raise_fault(0x100000 + PAGE_SIZE, pid=handle.pid,
                                 is_write=True)
        assert fault.region is handle
        yield fault.resolved

    def monitor(env):
        for _ in live:
            fault = yield uffd.events.get()
            yield from ops.zeropage(fault.region.page_table, fault.addr)
            yield from ops.wake(fault)

    vcpus = [env.process(vcpu(env, handle)) for handle in live]
    env.process(monitor(env))
    env.run()
    assert all(proc.processed and proc.ok for proc in vcpus)
    assert all(tables[handle.pid].present_pages == 1 for handle in live)


def test_unregister_of_a_foreign_handle_rejected(env, uffd):
    other = Userfaultfd(env, UffdLatency(), random.Random(2))
    handle = other.register(region(), pid=42, page_table=PageTable())
    with pytest.raises(UffdRegionError):
        uffd.unregister(handle)
    assert handle.valid


def test_fault_outside_region_rejected(env, uffd):
    with pytest.raises(UffdError):
        uffd.raise_fault(0xDEAD000, pid=42, is_write=False)


def test_fault_unaligned_rejected(env, uffd):
    table = PageTable()
    uffd.register(region(), pid=42, page_table=table)
    with pytest.raises(UffdError):
        uffd.raise_fault(0x100001, pid=42, is_write=False)


def test_fault_event_reaches_monitor_and_wakes_vcpu(env, uffd, ops):
    """Full rendezvous: vCPU faults, monitor resolves, vCPU resumes."""
    table = PageTable()
    uffd.register(region(), pid=42, page_table=table)
    timeline = []

    def vcpu(env):
        fault = uffd.raise_fault(0x100000, pid=42, is_write=False)
        yield fault.resolved
        timeline.append(("vcpu-resumed", env.now))

    def monitor(env):
        fault = yield uffd.events.get()
        timeline.append(("monitor-got-event", env.now))
        yield from ops.zeropage(fault.region.page_table, fault.addr)
        yield from ops.wake(fault)

    env.process(vcpu(env))
    env.process(monitor(env))
    env.run()
    assert [name for name, _t in timeline] == \
        ["monitor-got-event", "vcpu-resumed"]
    # The vCPU was blocked for delivery + zeropage + wake.
    assert timeline[1][1] > timeline[0][1]
    assert table.present_pages == 1


def test_zeropage_maps_anonymous_zero(env, ops):
    table = PageTable()

    def run(env):
        page = yield from ops.zeropage(table, 0x5000)
        assert page.kind is PageKind.ANONYMOUS
        assert not page.dirty

    env.process(run(env))
    env.run()
    assert 0x5000 in table
    assert ops.counters["zeropage"] == 1


def test_copy_maps_existing_page(env, ops):
    from repro.mem import Page
    table = PageTable()
    page = Page(vaddr=0x5000)
    page.write()

    def run(env):
        yield from ops.copy(table, 0x5000, page)

    env.process(run(env))
    env.run()
    assert table.entry(0x5000).page is page


def test_remap_moves_between_tables_zero_copy(env, ops):
    vm_table = PageTable("vm")
    buffer_table = PageTable("monitor-buffer")

    def run(env):
        page_in = yield from ops.zeropage(vm_table, 0x5000)
        page_out = yield from ops.remap_out(
            vm_table, 0x5000, buffer_table, 0x900000
        )
        assert page_out is page_in  # zero copy

    env.process(run(env))
    env.run()
    assert 0x5000 not in vm_table
    assert 0x900000 in buffer_table


def test_remap_interleaved_cheaper_than_sync(env):
    """Paper V-B: interleaved REMAP ~2us vs 4-5us synchronous."""
    latency = UffdLatency()
    rng = random.Random(9)
    sync = sum(latency.sample_remap(rng, interleaved=False)
               for _ in range(3000)) / 3000
    inter = sum(latency.sample_remap(rng, interleaved=True)
                for _ in range(3000)) / 3000
    assert 3.5 <= sync <= 5.5
    assert 1.5 <= inter <= 2.6
    assert inter < sync


def test_remap_has_ipi_tail(env):
    """Table I: UFFD_REMAP p99 is ~18us due to TLB-shootdown IPIs."""
    latency = UffdLatency()
    rng = random.Random(10)
    samples = sorted(latency.sample_remap(rng, interleaved=False)
                     for _ in range(10_000))
    p99 = samples[int(len(samples) * 0.99)]
    median = samples[len(samples) // 2]
    assert p99 > 2 * median


def test_double_wake_rejected(env, uffd, ops):
    table = PageTable()
    uffd.register(region(), pid=42, page_table=table)

    def vcpu(env):
        fault = uffd.raise_fault(0x100000, pid=42, is_write=False)
        yield fault.resolved

    def monitor(env):
        fault = yield uffd.events.get()
        yield from ops.zeropage(fault.region.page_table, fault.addr)
        yield from ops.wake(fault)
        with pytest.raises(UffdError):
            yield from ops.wake(fault)

    env.process(vcpu(env))
    proc = env.process(monitor(env))
    env.run()
    assert proc.value is None  # monitor generator completed


def test_table_i_ioctl_costs(env):
    """UFFD_ZEROPAGE ~2.61us, UFFD_COPY ~3.89us on average (Table I)."""
    latency = UffdLatency()
    rng = random.Random(4)
    zero = sum(latency.sample_zeropage(rng) for _ in range(3000)) / 3000
    copy = sum(latency.sample_copy(rng) for _ in range(3000)) / 3000
    assert zero == pytest.approx(2.61, abs=0.25)
    assert copy == pytest.approx(3.89, abs=0.35)
