"""The guest swap subsystem.

Swap is the paper's foil: it provides *partial* disaggregation because
only anonymous, non-mlocked pages may use it (§II).  The model here
enforces exactly that restriction and reproduces the structure of the
swap-in/out paths:

* a slot map over a block device (the swap "device": pmem, NVMeoF, SSD),
* a swap cache so a page being written out — or recently read in — can
  satisfy a fault without device I/O (one of the fast plateaus in the
  swap CDFs of Fig. 3),
* swap-out that frees the frame only after the write completes.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from ..blockdev import BlockDevice, SECTOR_BYTES
from ..errors import OutOfSwapError, SwapError
from ..mem import FrameAllocator, Page, PageKind, PageTable
from ..sim import CounterSet, Environment
from .latency import SwapPathLatency

__all__ = ["SwapSlotMap", "SwapSubsystem"]


class SwapSlotMap:
    """Slot allocation over the swap block device."""

    def __init__(self, device: BlockDevice) -> None:
        self.device = device
        self.total_slots = device.num_sectors
        self._free: List[int] = list(range(self.total_slots - 1, -1, -1))
        self._used: set = set()

    @property
    def free_slots(self) -> int:
        return len(self._free)

    @property
    def used_slots(self) -> int:
        return len(self._used)

    def allocate(self) -> int:
        if not self._free:
            raise OutOfSwapError(
                f"swap device full ({self.total_slots} slots)"
            )
        slot = self._free.pop()
        self._used.add(slot)
        return slot

    def release(self, slot: int) -> None:
        try:
            self._used.remove(slot)
        except KeyError:
            raise SwapError(f"slot {slot} is not allocated") from None
        self._free.append(slot)


class SwapSubsystem:
    """Swap entries, swap cache, and the in/out I/O paths."""

    def __init__(
        self,
        env: Environment,
        device: BlockDevice,
        latency: SwapPathLatency,
    ) -> None:
        self.env = env
        self.slots = SwapSlotMap(device)
        self.device = device
        self.latency = latency
        #: vaddr -> slot, for pages currently swapped out.
        self._entries: Dict[int, int] = {}
        #: slot -> vaddr, for readahead over adjacent slots.
        self._slot_vaddr: Dict[int, int] = {}
        #: vaddr -> (Page, frame) for pages with a swap entry whose
        #: contents are still in memory: writeback in flight.  The frame
        #: is not freed until the write completes.
        self._swap_cache: Dict[int, tuple] = {}
        self.counters = CounterSet()

    # -- queries -----------------------------------------------------------

    def has_entry(self, vaddr: int) -> bool:
        return vaddr in self._entries

    def in_swap_cache(self, vaddr: int) -> bool:
        return vaddr in self._swap_cache

    @property
    def entries_count(self) -> int:
        return len(self._entries)

    # -- swap-out (called by kswapd / direct reclaim) -------------------------

    def swap_out_batch(
        self,
        pages: List[Page],
        table: PageTable,
        frames: FrameAllocator,
    ) -> Generator:
        """Write a batch of pages in one device request.

        kswapd submits reclaim writeback in batches; with sequential
        slot allocation the run is contiguous on the device, so the
        whole batch costs little more than a single write.  Keeping the
        queue clear of per-page writes is what lets concurrent swap-in
        reads proceed promptly.
        """
        if not pages:
            return
        entries = []
        first_slot = None
        swap_entries = self._entries
        slot_vaddr = self._slot_vaddr
        swap_cache = self._swap_cache
        allocate_slot = self.slots.allocate
        anonymous = PageKind.ANONYMOUS
        for page in pages:
            vaddr = page.vaddr
            # Linux swap moves only anonymous pages that are not
            # mlocked (paper §II).
            if page.kind is not anonymous or page.mlocked:
                raise SwapError(
                    f"{page!r} ({page.kind.value}) cannot be swapped out"
                )
            if vaddr in swap_entries:
                raise SwapError(f"{page!r} already has a swap entry")
            slot = allocate_slot()
            if first_slot is None:
                first_slot = slot
            frame = table.unmap(vaddr).frame
            swap_entries[vaddr] = slot
            slot_vaddr[slot] = vaddr
            swap_cache[vaddr] = (page, frame)
            entries.append((page, frame))
        # Slots are usually contiguous (sequential allocation); when
        # frees have scattered them, clamp the run so the single-request
        # cost model stays within device bounds.
        sector = min(
            first_slot, self.device.num_sectors - len(entries)
        )
        yield from self.device.write(sector, SECTOR_BYTES * len(entries))
        swapped_out = 0
        for page, frame in entries:
            cached = swap_cache.get(page.vaddr)
            if cached is not None and cached[0] is page:
                del swap_cache[page.vaddr]
                frames.free(frame)
                swapped_out += 1
            # else: stolen back by a racing fault mid-writeback.
        if swapped_out:
            # One count per batch, made where the first per-page count
            # was, so the counter key appears at the same point.
            self.counters.incr("swapped_out", by=swapped_out)

    # -- swap-in (the fault path) ------------------------------------------------

    def swap_in(self, vaddr: int, page_cluster: int = 1) -> Generator:
        """Resolve a fault on a swapped-out page.

        Returns ``(page, frame_or_none, prefetched)``: when the page was
        still in the swap cache (write-back in flight) its original
        frame comes back with it and no device I/O happens; otherwise
        the caller must allocate a frame for the freshly read page.

        ``page_cluster`` > 1 enables swap readahead (the kernel's
        vm.page-cluster): entries in the following adjacent slots ride
        along in the same device request and come back in
        ``prefetched`` as ``[(vaddr, Page), ...]``.  FluidMem has no
        equivalent — the paper lists prefetching as future work — and
        this is precisely the edge that lets swap-to-DRAM beat
        FluidMem-to-DRAM at large working sets (Fig. 4c/d).
        """
        if page_cluster < 1:
            raise SwapError(f"page_cluster must be >= 1: {page_cluster}")
        slot = self._entries.get(vaddr)
        if slot is None:
            raise SwapError(f"no swap entry for {vaddr:#x}")

        env = self.env
        lookup_us = self.latency.swap_cache_lookup_us
        if not env.try_advance(lookup_us):
            yield env.timeout(lookup_us)
        cached = self._swap_cache.pop(vaddr, None)
        if cached is not None:
            # The frame was never freed; just restore the mapping.
            hit_us = self.latency.swap_cache_hit_us
            if not env.try_advance(hit_us):
                yield env.timeout(hit_us)
            self._forget(vaddr, slot)
            self.counters["swap_cache_hits"] += 1
            page, frame = cached
            return page, frame, []

        # Build the readahead run: consecutive allocated slots whose
        # pages are on the device (not mid-writeback).
        run_vaddrs = [vaddr]
        for next_slot in range(slot + 1, slot + page_cluster):
            next_vaddr = self._slot_vaddr.get(next_slot)
            if next_vaddr is None or next_vaddr in self._swap_cache:
                break
            run_vaddrs.append(next_vaddr)

        submit_us = self.latency.block_submit_us
        if not env.try_advance(submit_us):
            yield env.timeout(submit_us)
        yield from self.device.read(slot, SECTOR_BYTES * len(run_vaddrs))
        completion_us = self.latency.completion_us
        if not env.try_advance(completion_us):
            yield env.timeout(completion_us)

        # _forget, inline: drop the entry and free its slot.
        del self._entries[vaddr]
        self._slot_vaddr.pop(slot, None)
        self.slots.release(slot)
        page = Page(vaddr=vaddr)
        page.dirty = True  # swapped-in anonymous pages are dirty again
        self.counters["swapped_in"] += 1
        if len(run_vaddrs) > 1:
            self.counters.incr("readahead_reads", by=len(run_vaddrs) - 1)
        # The trailing run entries were read but keep their swap
        # entries until the caller takes them (take_prefetched); an
        # untaken prefetch is simply a wasted read, never data loss.
        return page, None, run_vaddrs[1:]

    def take_prefetched(self, vaddr: int) -> Page:
        """Claim a page whose data a readahead just pulled in."""
        slot = self._entries.get(vaddr)
        if slot is None:
            raise SwapError(f"no swap entry for prefetched {vaddr:#x}")
        self._forget(vaddr, slot)
        page = Page(vaddr=vaddr)
        page.dirty = True
        self.counters.incr("prefetch_taken")
        return page

    def _forget(self, vaddr: int, slot: int) -> None:
        del self._entries[vaddr]
        self._slot_vaddr.pop(slot, None)
        self.slots.release(slot)

    def drop_entry(self, vaddr: int) -> None:
        """Discard a swap entry without reading it (process exit)."""
        slot = self._entries.pop(vaddr, None)
        if slot is None:
            raise SwapError(f"no swap entry for {vaddr:#x}")
        self._swap_cache.pop(vaddr, None)
        self._slot_vaddr.pop(slot, None)
        self.slots.release(slot)
