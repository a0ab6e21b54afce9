"""Tests for the swap subsystem, kswapd, and the guest memory manager."""

import random

import pytest

from repro.blockdev import PmemDisk
from repro.errors import KernelError, OutOfSwapError, SwapError
from repro.kernel import GuestMemoryManager, SwapPathLatency, SwapSubsystem
from repro.mem import PAGE_SIZE, FrameAllocator, Page, PageKind, PageTable
from repro.sim import Environment


def run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


@pytest.fixture
def env():
    return Environment()


def make_swap(env, mib=4):
    device = PmemDisk(env, mib * 1024 * 1024, random.Random(0))
    return SwapSubsystem(env, device, SwapPathLatency())


def make_mm(env, dram_pages=64, swap_mib=4, data_disk=False, **kw):
    swap_device = PmemDisk(env, swap_mib * 1024 * 1024, random.Random(1))
    disk = PmemDisk(env, 16 * 1024 * 1024, random.Random(2)) if data_disk \
        else None
    return GuestMemoryManager(
        env,
        random.Random(3),
        dram_bytes=dram_pages * PAGE_SIZE,
        swap_device=swap_device,
        data_disk=disk,
        swappiness=100,
        **kw,
    )


# ------------------------------------------------------------ SwapSubsystem

def test_swap_out_requires_swappable(env):
    swap = make_swap(env)
    table = PageTable()
    frames = FrameAllocator(16)
    for kind in (PageKind.FILE_BACKED, PageKind.KERNEL,
                 PageKind.UNEVICTABLE):
        page = Page(vaddr=0, kind=kind)
        with pytest.raises(SwapError):
            run(env, swap.swap_out_batch([page], table, frames))
    locked = Page(vaddr=0, mlocked=True)
    with pytest.raises(SwapError):
        run(env, swap.swap_out_batch([locked], table, frames))


def test_swap_out_in_roundtrip(env):
    swap = make_swap(env)
    table = PageTable()
    frames = FrameAllocator(16)
    frame = frames.allocate()
    page = Page(vaddr=0x4000)
    table.map(0x4000, frame, page)

    run(env, swap.swap_out_batch([page], table, frames))
    assert 0x4000 not in table
    assert swap.has_entry(0x4000)
    assert frames.free_frames == 16  # frame returned after writeback
    assert swap.counters["swapped_out"] == 1

    result = run(env, swap.swap_in(0x4000))
    restored, frame, prefetched = result
    assert frame is None            # device path: caller allocates
    assert prefetched == []         # nothing adjacent to read ahead
    assert restored.vaddr == 0x4000
    assert not swap.has_entry(0x4000)
    assert swap.counters["swapped_in"] == 1


def test_swap_cache_hit_during_writeback(env):
    """A fault racing the writeback gets the page without device I/O."""
    swap = make_swap(env)
    table = PageTable()
    frames = FrameAllocator(16)
    frame = frames.allocate()
    page = Page(vaddr=0x4000)
    table.map(0x4000, frame, page)

    results = {}

    def evictor(env):
        yield from swap.swap_out_batch([page], table, frames)

    def faulter(env):
        yield env.timeout(1.0)  # while the write is still in flight
        got, got_frame, _pf = yield from swap.swap_in(0x4000)
        results["page"] = got
        results["frame"] = got_frame
        results["time"] = env.now

    env.process(evictor(env))
    env.process(faulter(env))
    env.run()
    assert results["page"] is page       # same object, no device read
    assert results["frame"] == frame     # original frame came back
    assert swap.counters["swap_cache_hits"] == 1
    assert frames.free_frames == 15      # frame still owned by the page


def test_swap_device_fills_up(env):
    device = PmemDisk(env, 1024 * 1024, random.Random(0))  # 256 slots
    swap = SwapSubsystem(env, device, SwapPathLatency())
    table = PageTable()
    frames = FrameAllocator(300)

    def fill(env):
        for i in range(256):
            frame = frames.allocate()
            page = Page(vaddr=i * PAGE_SIZE)
            table.map(page.vaddr, frame, page)
            yield from swap.swap_out_batch([page], table, frames)

    run(env, fill(env))
    assert swap.slots.free_slots == 0
    overflow = Page(vaddr=0x7777000)
    table.map(overflow.vaddr, frames.allocate(), overflow)
    with pytest.raises(OutOfSwapError):
        run(env, swap.swap_out_batch([overflow], table, frames))


def test_swap_in_without_entry_rejected(env):
    swap = make_swap(env)
    with pytest.raises(SwapError):
        run(env, swap.swap_in(0x4000))


def test_drop_entry(env):
    swap = make_swap(env)
    table = PageTable()
    frames = FrameAllocator(4)
    page = Page(vaddr=0)
    table.map(0, frames.allocate(), page)
    run(env, swap.swap_out_batch([page], table, frames))
    swap.drop_entry(0)
    assert not swap.has_entry(0)
    with pytest.raises(SwapError):
        swap.drop_entry(0)


# ------------------------------------------------------- GuestMemoryManager

def test_first_touch_minor_fault(env):
    mm = make_mm(env)
    page = run(env, mm.access_fault(0x10000, is_write=True))
    assert mm.is_resident(0x10000)
    assert page.dirty
    assert mm.counters["minor_faults"] == 1


def test_touch_fast_path(env):
    mm = make_mm(env)
    run(env, mm.access_fault(0x10000, is_write=False))
    before = env.now
    mm.touch(0x10000, is_write=True)
    assert env.now == before  # no simulated time on the fast path
    assert mm.table.entry(0x10000).page.dirty


def test_pressure_triggers_reclaim_and_swap(env):
    """Filling DRAM twice over must swap out and faults must swap in."""
    mm = make_mm(env, dram_pages=32)

    def workload(env):
        for i in range(64):
            addr = 0x100000 + i * PAGE_SIZE
            yield from mm.access_fault(addr, is_write=True)
        # Touch an early page again: it was reclaimed, so this is a
        # major fault through swap.
        assert not mm.is_resident(0x100000)
        yield from mm.access_fault(0x100000, is_write=False)

    run(env, workload(env))
    assert mm.counters["major_faults"] >= 1
    assert mm.swap.counters["swapped_out"] >= 16
    assert mm.frames.used_frames <= 32


def test_unevictable_pages_pin_dram(env):
    """Kernel/unevictable pages never reach swap: partial disaggregation."""
    mm = make_mm(env, dram_pages=32)

    def workload(env):
        for i in range(8):
            mm.populate_resident(0x900000 + i * PAGE_SIZE,
                                 kind=PageKind.KERNEL)
        for i in range(64):
            yield from mm.access_fault(0x100000 + i * PAGE_SIZE, True)

    run(env, workload(env))
    # All 8 kernel pages are still resident.
    for i in range(8):
        assert mm.is_resident(0x900000 + i * PAGE_SIZE)
    assert mm.swap.counters["swapped_out"] > 0


def test_no_swap_means_anonymous_never_reclaimed(env):
    mm = GuestMemoryManager(
        env, random.Random(0), dram_bytes=32 * PAGE_SIZE, swap_device=None
    )

    def workload(env):
        for i in range(32):
            yield from mm.access_fault(0x100000 + i * PAGE_SIZE, True)

    run(env, workload(env))
    assert len(mm.lru) == 0  # nothing reclaimable was ever listed

    def one_more(env):
        yield from mm.access_fault(0x900000, True)

    env.process(one_more(env))
    with pytest.raises(KernelError):  # guest OOM
        env.run()


def test_file_page_cache_hit_miss(env):
    mm = make_mm(env, dram_pages=64, data_disk=True)
    hit = run(env, mm.read_file_page(file_id=1, page_index=0))
    assert hit is False
    assert mm.counters["pagecache_misses"] == 1
    hit = run(env, mm.read_file_page(file_id=1, page_index=0))
    assert hit is True
    assert mm.counters["pagecache_hits"] == 1


def test_file_pages_dropped_under_pressure_not_swapped(env):
    """File pages are dropped/written back to their file, never to swap."""
    mm = make_mm(env, dram_pages=32, data_disk=True)

    def workload(env):
        for i in range(24):
            yield from mm.read_file_page(file_id=1, page_index=i)
        for i in range(40):
            yield from mm.access_fault(0x100000 + i * PAGE_SIZE, True)

    run(env, workload(env))
    dropped = mm.counters["file_dropped"] + mm.counters["file_writeback"]
    assert dropped > 0
    # No file page ever got a swap slot.
    from repro.kernel.mm import FILE_REGION_BASE
    for vaddr in list(mm.swap._entries):
        assert vaddr < FILE_REGION_BASE


def test_major_fault_latency_exceeds_minor(env):
    mm = make_mm(env, dram_pages=16)

    def workload(env):
        for i in range(32):
            yield from mm.access_fault(0x100000 + i * PAGE_SIZE, True)
        yield from mm.access_fault(0x100000, False)

    run(env, workload(env))
    lat = mm.fault_latency
    assert lat.count == 33
    assert lat.maximum > lat.minimum


def test_swappiness_range_checked(env):
    with pytest.raises(KernelError):
        GuestMemoryManager(env, random.Random(0), dram_bytes=PAGE_SIZE * 8,
                           swappiness=101)


def test_file_vaddr_bounds():
    with pytest.raises(KernelError):
        GuestMemoryManager.file_vaddr(-1, 0)
    a = GuestMemoryManager.file_vaddr(0, 0)
    b = GuestMemoryManager.file_vaddr(1, 0)
    assert a != b
