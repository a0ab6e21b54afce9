"""The guest kernel's memory manager.

:class:`GuestMemoryManager` is what runs *inside* a swap-configured VM:
a frame pool the size of the VM's DRAM, a page table, active/inactive
LRU lists, the swap subsystem over a block device, kswapd, and a
file-page cache over a data disk.  The pmbench / Graph500 / MongoDB
drivers talk to it through three calls:

* ``try_touch(vaddr)`` — the fast path: one page-table probe that
  records a hit and reports a miss (a TLB/PT hit costs no simulation
  events),
* ``access_fault(vaddr, is_write, ...)`` — the fault path, a simulation
  generator,
* ``read_file_page(...)`` — file-backed I/O through the page cache.

A FluidMem-backed VM does **not** use this class's reclaim machinery:
its guest kernel sees abundant "physical" memory and the FluidMem
monitor on the host does the evicting.
"""

from __future__ import annotations

import random
from typing import Dict, Generator, Optional, Tuple

from ..blockdev import BlockDevice, SECTOR_BYTES
from ..errors import KernelError, PageTableError
from ..mem import (
    PAGE_SIZE,
    FrameAllocator,
    Page,
    PageKind,
    PageTable,
    check_page_address,
)
from ..sim import CounterSet, Environment, LatencyRecorder
from .kswapd import Kswapd
from .latency import SwapPathLatency
from .lru import ActiveInactiveLists
from .swap import SwapSubsystem

__all__ = ["GuestMemoryManager", "FILE_REGION_BASE"]

#: Synthetic virtual-address region where file-cache pages are mapped.
FILE_REGION_BASE = 1 << 44
#: Address stride separating files in the synthetic file region.
FILE_STRIDE = 1 << 36
#: Low address bits that must be clear on a page address (the inline
#: guard before :func:`~repro.mem.check_page_address`).
_OFFSET_MASK = PAGE_SIZE - 1


class GuestMemoryManager:
    """Guest-kernel MM: frames, page table, LRU, swap, page cache."""

    def __init__(
        self,
        env: Environment,
        rng: random.Random,
        dram_bytes: int,
        latency: Optional[SwapPathLatency] = None,
        swap_device: Optional[BlockDevice] = None,
        data_disk: Optional[BlockDevice] = None,
        swappiness: int = 60,
        kswapd_low: float = 0.04,
        kswapd_high: float = 0.08,
        kswapd_batch: int = 64,
    ) -> None:
        if not 0 <= swappiness <= 100:
            raise KernelError(f"swappiness must be in [0,100]: {swappiness}")
        self.env = env
        self._rng = rng
        self.latency = latency or SwapPathLatency()
        self.frames = FrameAllocator.for_bytes(dram_bytes)
        self.table = PageTable("guest")
        self.lru = ActiveInactiveLists()
        self.swap = (
            SwapSubsystem(env, swap_device, self.latency)
            if swap_device is not None
            else None
        )
        self.data_disk = data_disk
        self.swappiness = swappiness
        self.kswapd = Kswapd(
            env,
            self,
            low_watermark=kswapd_low,
            high_watermark=kswapd_high,
            batch_pages=kswapd_batch,
        )
        #: (file_id, page_index) of file pages currently in the cache.
        self._file_pages: Dict[int, Tuple[int, int]] = {}
        #: Workingset shadow entries: vaddr -> eviction counter at the
        #: time the page was reclaimed (mm/workingset.c).
        self._shadow: Dict[int, int] = {}
        self._eviction_counter = 0
        self.counters = CounterSet()
        self.fault_latency = LatencyRecorder("guest.fault", max_samples=200_000)
        self._reclaiming = False

    # -- fast-path queries ----------------------------------------------------

    @property
    def free_ratio(self) -> float:
        return self.frames.free_frames / self.frames.total_frames

    @property
    def resident_pages(self) -> int:
        return self.table.present_pages

    def is_resident(self, vaddr: int) -> bool:
        return vaddr in self.table

    def try_touch(self, vaddr: int, is_write: bool = False) -> bool:
        """Record an access iff the page is resident: one table probe.

        A hit sets what ``Page.read``/``Page.write`` set (referenced;
        dirty and a version bump on a write); a miss changes nothing.
        """
        pte = self.table.get(vaddr)
        if pte is None:
            return False
        page = pte.page
        page.referenced = True
        if is_write:
            page.dirty = True
            page.version += 1
        return True

    def touch(self, vaddr: int, is_write: bool = False) -> None:
        """Record an access to a resident page (sets referenced/dirty)."""
        if not self.try_touch(vaddr, is_write):
            raise PageTableError(
                f"{self.table.name}: {vaddr:#x} is not mapped"
            )

    # -- the fault path ----------------------------------------------------------

    def access_fault(
        self,
        vaddr: int,
        is_write: bool = False,
        kind: PageKind = PageKind.ANONYMOUS,
        mlocked: bool = False,
    ) -> Generator:
        """Handle a fault on a non-resident page; returns the Page.

        The guest kernel's only fault body, and the swap port's miss
        body: it does not probe the table, so the caller must know the
        page is not resident.  A misaligned or out-of-range address
        raises ``Page``'s ``ValueError`` before anything is charged.
        """
        if vaddr & _OFFSET_MASK or vaddr >> 64:
            check_page_address(vaddr)
        env = self.env
        start = env._now
        latency = self.latency
        entry_us = (
            latency.fault_entry_us + latency.virtualization_overhead_us
        )
        if not env.try_advance(entry_us):
            yield env.timeout(entry_us)

        frames = self.frames
        swap = self.swap
        if swap is not None and swap.has_entry(vaddr):
            page, frame, prefetched = yield from swap.swap_in(
                vaddr, page_cluster=latency.page_cluster
            )
            if frame is None:
                frame = frames.try_allocate()
                if frame is None:
                    frame = yield from self._reclaim_frame()
            if prefetched:
                self._map_prefetched(prefetched)
            self.counters["major_faults"] += 1
        else:
            # Anonymous (or first-touch) minor fault: zero-fill.
            minor_us = latency.minor_fault_us
            if not env.try_advance(minor_us):
                yield env.timeout(minor_us)
            frame = frames.try_allocate()
            if frame is None:
                frame = yield from self._reclaim_frame()
            page = Page(vaddr=vaddr, kind=kind, mlocked=mlocked)
            self.counters["minor_faults"] += 1

        self.table.map(vaddr, frame, page)
        if self._reclaimable(page):
            self._lru_insert_with_workingset(page)
        # What Page.write/Page.read set.
        page.referenced = True
        if is_write:
            page.dirty = True
            page.version += 1
        # Kswapd.should_wake's test, inline: the same floats.
        if frames.free_frames / frames.total_frames < \
                self.kswapd.low_watermark:
            self._wake_kswapd()
        # A clock difference: appended in place under the cap.
        latency = env._now - start
        recorder = self.fault_latency
        if len(recorder._samples) < recorder._cap:
            recorder._samples.append(latency)
        else:
            recorder.record(latency)
        return page

    def _lru_insert_with_workingset(self, page: Page) -> None:
        """Insert with Linux's workingset refault detection: a page
        whose refault distance is within the LRU's reach goes straight
        to the active list, protecting a thrashing hot set."""
        evicted_at = self._shadow.pop(page.vaddr, None)
        if evicted_at is not None:
            distance = self._eviction_counter - evicted_at
            if distance <= len(self.lru):
                self.lru.insert_active(page)
                self.counters["workingset_activations"] += 1
                return
        self.lru.insert(page)

    def _map_prefetched(self, prefetched) -> None:
        """Map readahead pages opportunistically (no reclaim on their
        behalf: a prefetch is dropped when no frame is free)."""
        for vaddr in prefetched:
            if self.is_resident(vaddr):
                continue
            # Throttle: never let speculative pages eat the emergency
            # reserve (the kernel scales its readahead window the same
            # way) — otherwise every fault ends in direct reclaim.
            if self.free_ratio <= self.kswapd.low_watermark:
                self._check_watermarks()
                return
            frame = self.frames.try_allocate()
            if frame is None:
                return
            page = self.swap.take_prefetched(vaddr)
            self.table.map(vaddr, frame, page)
            if self._reclaimable(page):
                self.lru.insert(page)
            self.counters.incr("prefetched_mapped")

    def _reclaimable(self, page: Page) -> bool:
        """Whether the page may appear on the reclaim LRU lists.

        Kernel and unevictable/mlocked pages never do.  Anonymous pages
        only do when swap is configured — without swap the kernel has
        nowhere to put them (paper §II).  File-backed pages always do
        (they can be dropped or written back to their file).
        """
        if page.kind in (PageKind.KERNEL, PageKind.UNEVICTABLE):
            return False
        if page.mlocked:
            return False
        if page.kind is PageKind.ANONYMOUS:
            return self.swap is not None
        return True  # FILE_BACKED

    def _reclaim_frame(self) -> Generator:
        """Direct reclaim until a frame is free; the caller found none."""
        frame = None
        attempts = 0
        while frame is None:
            attempts += 1
            if attempts > 50:
                raise KernelError(
                    "direct reclaim made no progress (guest OOM)"
                )
            self.counters.incr("direct_reclaims")
            self.kswapd.kick()
            yield self.env.timeout(self.latency.direct_reclaim_us)
            yield from self.reclaim_pages(32)
            frame = self.frames.try_allocate()
        return frame

    def _check_watermarks(self) -> None:
        if self.kswapd.should_wake():
            self._wake_kswapd()

    def _wake_kswapd(self) -> None:
        """Free memory is below the low watermark: start or kick kswapd."""
        kswapd = self.kswapd
        if not kswapd.running:
            kswapd.start()
        kswapd.kick()

    # -- reclaim ------------------------------------------------------------------

    def reclaim_pages(self, count: int) -> Generator:
        """Reclaim up to ``count`` pages; returns how many were freed."""
        victims = self.lru.select_victims(count)
        freed = 0
        write_batch = []
        for page in victims:
            if page.kind is PageKind.ANONYMOUS:
                if self.swappiness < 100 and self._rng.random() < (
                    (100 - self.swappiness) / 200.0
                ):
                    # Low swappiness: give anonymous pages extra grace.
                    self.lru.insert(page)
                    continue
                write_batch.append(page)
            else:
                freed += yield from self._reclaim_file_page(page)
        if write_batch:
            for page in write_batch:
                self._eviction_counter += 1
                self._shadow[page.vaddr] = self._eviction_counter
            yield from self.swap.swap_out_batch(
                write_batch, self.table, self.frames
            )
            freed += len(write_batch)
        self.counters.incr("reclaimed", by=freed)
        self._prune_shadow()
        return freed

    def _prune_shadow(self) -> None:
        """Bound the shadow table: stale entries can never activate."""
        limit = 8 * self.frames.total_frames
        if len(self._shadow) <= limit:
            return
        horizon = self._eviction_counter - 2 * self.frames.total_frames
        self._shadow = {
            vaddr: epoch
            for vaddr, epoch in self._shadow.items()
            if epoch >= horizon
        }

    def _reclaim_file_page(self, page: Page) -> Generator:
        """Drop (clean) or write back (dirty) a file-cache page."""
        self._eviction_counter += 1
        self._shadow[page.vaddr] = self._eviction_counter
        pte = self.table.unmap(page.vaddr)
        if page.dirty and self.data_disk is not None:
            sector = self._file_pages.get(page.vaddr, (0, 0))[1] \
                % self.data_disk.num_sectors
            yield from self.data_disk.write(sector, SECTOR_BYTES)
            self.counters.incr("file_writeback")
        else:
            self.counters.incr("file_dropped")
        self._file_pages.pop(page.vaddr, None)
        self.frames.free(pte.frame)
        return 1

    # -- file-backed pages (the page cache) ------------------------------------------

    @staticmethod
    def file_vaddr(file_id: int, page_index: int) -> int:
        """Synthetic mapping address for a file page."""
        if file_id < 0 or page_index < 0:
            raise KernelError("file_id and page_index must be >= 0")
        if page_index >= FILE_STRIDE // PAGE_SIZE:
            raise KernelError(f"page_index {page_index} too large")
        return FILE_REGION_BASE + file_id * FILE_STRIDE + page_index * PAGE_SIZE

    def is_file_page_cached(self, file_id: int, page_index: int) -> bool:
        return self.is_resident(self.file_vaddr(file_id, page_index))

    def read_file_page(
        self, file_id: int, page_index: int, is_write: bool = False
    ) -> Generator:
        """Read a file page through the cache; returns True on a hit."""
        if self.data_disk is None:
            raise KernelError("no data disk configured")
        vaddr = self.file_vaddr(file_id, page_index)
        if self.try_touch(vaddr, is_write):
            self.counters.incr("pagecache_hits")
            return True

        yield self.env.timeout(self.latency.fault_entry_us)
        frame = self.frames.try_allocate()
        if frame is None:
            frame = yield from self._reclaim_frame()
        sector = page_index % self.data_disk.num_sectors
        yield from self.data_disk.read(sector, SECTOR_BYTES)
        page = Page(vaddr=vaddr, kind=PageKind.FILE_BACKED)
        self.table.map(vaddr, frame, page)
        self._lru_insert_with_workingset(page)
        self._file_pages[vaddr] = (file_id, page_index)
        if is_write:
            page.write()
        else:
            page.read()
        self._check_watermarks()
        self.counters.incr("pagecache_misses")
        return False

    def read_file_extent(
        self, file_id: int, first_page: int, count: int
    ) -> Generator:
        """Read ``count`` contiguous file pages with one device request
        (a filesystem extent / WiredTiger leaf).  Returns True when the
        whole extent was already cached."""
        if self.data_disk is None:
            raise KernelError("no data disk configured")
        if count < 1:
            raise KernelError(f"extent must be >= 1 page, got {count}")
        missing = [
            index
            for index in range(first_page, first_page + count)
            if not self.is_resident(self.file_vaddr(file_id, index))
        ]
        for index in range(first_page, first_page + count):
            self.try_touch(self.file_vaddr(file_id, index))
        if not missing:
            self.counters.incr("pagecache_hits")
            return True

        yield self.env.timeout(self.latency.fault_entry_us)
        sector = missing[0] % self.data_disk.num_sectors
        nbytes = min(
            len(missing) * SECTOR_BYTES,
            (self.data_disk.num_sectors - sector) * SECTOR_BYTES,
        )
        yield from self.data_disk.read(sector, nbytes)
        for index in missing:
            vaddr = self.file_vaddr(file_id, index)
            frame = self.frames.try_allocate()
            if frame is None:
                frame = yield from self._reclaim_frame()
            page = Page(vaddr=vaddr, kind=PageKind.FILE_BACKED)
            self.table.map(vaddr, frame, page)
            self._lru_insert_with_workingset(page)
            self._file_pages[vaddr] = (file_id, index)
            page.read()
        self._check_watermarks()
        self.counters.incr("pagecache_misses")
        return False

    # -- instantaneous population (boot footprints, test setup) ------------------------

    def populate_resident(
        self,
        vaddr: int,
        kind: PageKind = PageKind.ANONYMOUS,
        mlocked: bool = False,
        dirty: bool = False,
    ) -> Page:
        """Map a page immediately, charging no simulated time.

        Used to construct a VM's boot footprint (Table III: ~81042 pages
        after startup) without simulating the whole boot.
        """
        frame = self.frames.try_allocate()
        if frame is None:
            raise KernelError("no free frames for populate_resident")
        page = Page(vaddr=vaddr, kind=kind, mlocked=mlocked)
        if dirty:
            page.dirty = True
        self.table.map(vaddr, frame, page)
        if self._reclaimable(page):
            self.lru.insert(page)
        return page

    def __repr__(self) -> str:
        return (
            f"<GuestMemoryManager resident={self.resident_pages}p "
            f"free={self.frames.free_frames}f "
            f"swap={'on' if self.swap else 'off'}>"
        )
