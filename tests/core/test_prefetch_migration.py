"""Tests for the extensions: monitor prefetching and VM migration."""

import pytest

from repro.core import FluidMemConfig, Monitor, migrate_vm
from repro.errors import FluidMemError
from repro.faults import FaultKind, FaultPlan, FaultWindow, FaultyStore
from repro.kernel import UffdLatency, UffdOps, Userfaultfd
from repro.kv import DramStore
from repro.mem import MIB, PAGE_SIZE, FrameAllocator
from repro.sim import RandomStreams

from tests.conftest import build_stack


# ---------------------------------------------------------------- prefetch

def make_prefetch_stack(prefetch_pages, lru=8):
    config = FluidMemConfig(
        lru_capacity_pages=lru,
        prefetch_pages=prefetch_pages,
        writeback_batch_pages=4,
    )
    return build_stack(config=config)


def run_sequential(stack, passes=2, pages=24):
    vm, qemu, port, _reg = stack.make_vm(store=stack.make_dram_store())
    base = vm.first_free_guest_addr()

    def gen(env):
        for _ in range(passes):
            for index in range(pages):
                yield from port.access(base + index * PAGE_SIZE,
                                       is_write=True)
        return env.now

    elapsed = stack.run(gen(stack.env))
    return elapsed, vm, port


def test_prefetch_off_by_default():
    stack = build_stack()
    assert stack.monitor.config.prefetch_pages == 0
    run_sequential(stack)
    assert stack.monitor.counters["prefetches_issued"] == 0


def test_prefetch_issues_and_completes():
    stack = make_prefetch_stack(prefetch_pages=4)
    run_sequential(stack, passes=3)
    counters = stack.monitor.counters
    assert counters["prefetches_issued"] > 0
    assert counters["prefetches_completed"] > 0


def test_prefetch_reduces_demand_faults_on_sequential_scan():
    plain = make_prefetch_stack(prefetch_pages=0)
    t_plain, _vm, _port = run_sequential(plain, passes=3)
    demand_plain = plain.monitor.counters["remote_reads"]

    fetching = make_prefetch_stack(prefetch_pages=4)
    t_fetch, _vm, _port = run_sequential(fetching, passes=3)
    demand_fetch = fetching.monitor.counters["remote_reads"]

    assert demand_fetch < demand_plain
    assert t_fetch < t_plain  # sequential scans get faster


def test_prefetch_respects_region_bounds():
    """Prefetching at the end of the region must not fault outside."""
    stack = make_prefetch_stack(prefetch_pages=8, lru=4)
    vm, qemu, port, _reg = stack.make_vm(memory_mib=1)
    base = vm.first_free_guest_addr()
    last_page = vm.memory_bytes - PAGE_SIZE

    def gen(env):
        for _ in range(2):
            for addr in (last_page - PAGE_SIZE, last_page):
                yield from port.access(addr, is_write=True)
            for index in range(8):
                yield from port.access(base + index * PAGE_SIZE, True)

    stack.run(gen(stack.env))  # must not raise


def test_prefetch_config_validation():
    with pytest.raises(FluidMemError):
        FluidMemConfig(prefetch_pages=-1)


def test_prefetch_data_integrity():
    stack = make_prefetch_stack(prefetch_pages=4, lru=6)
    vm, qemu, port, _reg = stack.make_vm(store=stack.make_dram_store())
    base = vm.first_free_guest_addr()

    def gen(env):
        for index in range(18):
            page = yield from port.access(base + index * PAGE_SIZE,
                                          is_write=True)
        versions = {}
        for index in range(18):
            yield from port.access(base + index * PAGE_SIZE)
            host = qemu.guest_to_host(base + index * PAGE_SIZE)
            versions[index] = qemu.page_table.entry(host).page.version
        assert all(v >= 1 for v in versions.values())

    stack.run(gen(stack.env))


# --------------------------------------------------------------- migration

def make_second_monitor(stack):
    streams = RandomStreams(seed=99)
    uffd = Userfaultfd(stack.env, UffdLatency(), streams.stream("uffd2"))
    ops = UffdOps(stack.env, UffdLatency(), streams.stream("ops2"),
                  FrameAllocator.for_bytes(128 * MIB))
    monitor = Monitor(stack.env, uffd, ops,
                      config=FluidMemConfig(lru_capacity_pages=64),
                      rng=streams.stream("monitor2"),
                      name="dest-monitor")
    monitor.start()
    return monitor


def migrate(stack, vm, registration, dest):
    def gen(env):
        report = yield from migrate_vm(
            vm, stack.monitor, registration, dest
        )
        return report

    return stack.run(gen(stack.env))


def test_migration_moves_residency():
    stack = build_stack()
    store = stack.make_ramcloud_store()
    vm, qemu, port, registration = stack.make_vm(store=store,
                                                 boot_pages=8)
    base = vm.first_free_guest_addr()

    def warm(env):
        for index in range(16):
            yield from vm.require_port().access(
                base + index * PAGE_SIZE, is_write=True
            )

    stack.run(warm(stack.env))
    resident_before = qemu.page_table.present_pages
    assert resident_before > 0

    dest = make_second_monitor(stack)
    report = migrate(stack, vm, registration, dest)

    # Source is clean: no pages, no registration.
    assert qemu.page_table.present_pages == 0
    assert len(stack.monitor.lru) == 0
    assert report.pages_pushed == resident_before
    assert report.blackout_us > 0
    # Everything is in the store, nothing resident at the dest yet
    # (post-copy: pages come back on demand).
    assert store.stored_keys() >= resident_before
    assert report.dest_qemu.page_table.present_pages == 0


def test_migrated_vm_faults_pages_back_with_data():
    stack = build_stack()
    store = stack.make_dram_store()
    vm, qemu, port, registration = stack.make_vm(store=store,
                                                 boot_pages=8)
    base = vm.first_free_guest_addr()
    versions = {}

    def warm(env):
        for index in range(12):
            page = yield from vm.require_port().access(
                base + index * PAGE_SIZE, is_write=True
            )
            host = qemu.guest_to_host(base + index * PAGE_SIZE)
            versions[index] = qemu.page_table.entry(host).page

    stack.run(warm(stack.env))
    dest = make_second_monitor(stack)
    report = migrate(stack, vm, registration, dest)

    def touch_after(env):
        port = vm.require_port()
        for index in range(12):
            yield from port.access(base + index * PAGE_SIZE)
            host = report.dest_qemu.guest_to_host(
                base + index * PAGE_SIZE
            )
            page = report.dest_qemu.page_table.entry(host).page
            # Identity preserved: the same Page object came back via
            # the shared store — no data was copied or lost.
            assert page is versions[index]

    stack.run(touch_after(stack.env))
    # The destination resolved them as store reads, not zero pages.
    assert dest.counters["remote_reads"] == 12
    assert dest.counters["zero_page_faults"] == 0


def test_migration_retries_transient_store_errors():
    """Pushing the resident pages out is a synchronous eviction write:
    a transient store error must be retried, never lose the page."""
    stack = build_stack()
    flaky_from, flaky_until = 1_000_000.0, 2_000_000.0
    plan = FaultPlan(
        [FaultWindow(FaultKind.FLAKY, "replica0", flaky_from, flaky_until,
                     param=0.3)],
        seed=0,
    )
    store = FaultyStore(stack.env, DramStore(stack.env), plan)
    vm, qemu, port, registration = stack.make_vm(store=store,
                                                 boot_pages=8)
    base = vm.first_free_guest_addr()
    pages = {}

    def warm(env):
        for index in range(16):
            yield from port.access(base + index * PAGE_SIZE, is_write=True)
            host = qemu.guest_to_host(base + index * PAGE_SIZE)
            pages[index] = qemu.page_table.entry(host).page

    stack.run(warm(stack.env))
    assert stack.env.now < flaky_from
    stack.env.run(until=flaky_from)
    resident_before = qemu.page_table.present_pages

    dest = make_second_monitor(stack)
    report = migrate(stack, vm, registration, dest)
    assert report.pages_pushed == resident_before
    assert stack.monitor.counters["write_retries"] > 0
    assert store.counters["transient_errors"] > 0
    assert stack.monitor.buffer_table.present_pages == 0

    # Read back once the store is healthy again: every page survived.
    assert stack.env.now < flaky_until
    stack.env.run(until=flaky_until)

    def touch_after(env):
        port = vm.require_port()
        for index in range(16):
            yield from port.access(base + index * PAGE_SIZE)
            host = report.dest_qemu.guest_to_host(base + index * PAGE_SIZE)
            assert report.dest_qemu.page_table.entry(host).page \
                is pages[index]

    stack.run(touch_after(stack.env))
    assert dest.counters["remote_reads"] == 16


def test_migration_rejects_same_monitor():
    stack = build_stack()
    vm, _qemu, _port, registration = stack.make_vm()

    def gen(env):
        yield from migrate_vm(vm, stack.monitor, registration,
                              stack.monitor)

    stack.env.process(gen(stack.env))
    with pytest.raises(FluidMemError):
        stack.env.run()


def test_migration_rejects_cross_store():
    stack = build_stack()
    vm, _qemu, _port, registration = stack.make_vm(
        store=stack.make_dram_store()
    )
    dest = make_second_monitor(stack)
    other_store = stack.make_dram_store()

    def gen(env):
        yield from migrate_vm(vm, stack.monitor, registration, dest,
                              dest_store=other_store)

    stack.env.process(gen(stack.env))
    with pytest.raises(FluidMemError):
        stack.env.run()


def test_double_detach_rejected():
    stack = build_stack()
    vm, _qemu, _port, registration = stack.make_vm()
    dest = make_second_monitor(stack)
    migrate(stack, vm, registration, dest)

    def gen(env):
        yield from stack.monitor.detach_vm(registration)

    stack.env.process(gen(stack.env))
    from repro.errors import MonitorStateError
    with pytest.raises(MonitorStateError):
        stack.env.run()


def test_migration_preserves_hotplug_layout():
    from repro.vm import MemoryHotplug

    stack = build_stack()
    store = stack.make_dram_store()
    vm, qemu, port, registration = stack.make_vm(store=store,
                                                 memory_mib=16)
    hotplug = MemoryHotplug(qemu)
    slot = hotplug.add_memory(16 * MIB)
    stack.monitor.register_region(registration, slot.host_region)
    hot_addr = slot.guest_phys_start + 3 * PAGE_SIZE

    def warm(env):
        yield from port.access(hot_addr, is_write=True)

    stack.run(warm(stack.env))
    dest = make_second_monitor(stack)
    report = migrate(stack, vm, registration, dest)

    def after(env):
        yield from vm.require_port().access(hot_addr)

    stack.run(after(stack.env))
    host = report.dest_qemu.guest_to_host(hot_addr)
    assert host in report.dest_qemu.page_table
