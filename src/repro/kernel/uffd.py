"""userfaultfd emulation.

The real mechanism (Linux >= 4.3, paper §III): a process registers
address ranges on a file descriptor; the kernel turns any fault on a
missing page in those ranges into an *event* readable from the fd while
the faulting thread sleeps; a user-space handler resolves the fault with
ioctls (``UFFDIO_ZEROPAGE``, ``UFFDIO_COPY``, the paper's proposed
``UFFDIO_REMAP``) and wakes the thread.

Here :class:`Userfaultfd` is the kernel side (region registry + event
queue) and :class:`UffdOps` is the ioctl surface the monitor calls.  The
faulting vCPU blocks on ``fault.resolved``; the monitor blocks on
``uffd.events.get()`` — the same rendezvous as the real fd.
"""

from __future__ import annotations

import random
from typing import Generator, List, Optional

from ..errors import UffdError, UffdRegionError
from ..mem import (
    PAGE_SIZE,
    FrameAllocator,
    MemoryRegion,
    Page,
    PageKind,
    PageTable,
    is_page_aligned,
)
from ..sim import CounterSet, Environment, Event, Store
from ..sim.core import PENDING
from .latency import UffdLatency

__all__ = [
    "UffdFault",
    "UffdRegion",
    "Userfaultfd",
    "UffdOps",
    "check_fault_address",
]


def check_fault_address(addr: int) -> None:
    """Raise the ``UffdError`` :meth:`Userfaultfd.raise_fault` raises
    for a misaligned ``addr`` (``ValueError`` beyond 64 bits).

    Callers test ``addr & (PAGE_SIZE - 1) or addr >> 64`` inline and
    call this only when that trips.
    """
    if not is_page_aligned(addr):
        raise UffdError(f"fault address {addr:#x} not page aligned")


class UffdFault:
    """One fault event: address + origin, plus the wake-up rendezvous."""

    __slots__ = ("addr", "pid", "is_write", "raised_at", "resolved", "region")

    def __init__(
        self,
        env: Environment,
        addr: int,
        pid: int,
        is_write: bool,
        region: "UffdRegion",
    ) -> None:
        self.addr = addr
        self.pid = pid
        self.is_write = is_write
        self.raised_at = env._now
        #: The faulting thread sleeps on this; UFFDIO_WAKE fires it.
        self.resolved: Event = Event(env)
        self.region = region

    def __repr__(self) -> str:
        rw = "W" if self.is_write else "R"
        return f"<UffdFault {self.addr:#x} pid={self.pid} {rw}>"


class UffdRegion:
    """A registered range belonging to one process (QEMU instance)."""

    def __init__(
        self,
        region: MemoryRegion,
        pid: int,
        page_table: PageTable,
    ) -> None:
        self.region = region
        self.pid = pid
        self.page_table = page_table
        self.valid = True

    def __contains__(self, addr: int) -> bool:
        return self.valid and addr in self.region

    def __repr__(self) -> str:
        state = "valid" if self.valid else "invalid"
        return f"<UffdRegion pid={self.pid} {self.region!r} {state}>"


class Userfaultfd:
    """Kernel side: registered regions and the event queue (the "fd")."""

    def __init__(
        self,
        env: Environment,
        latency: UffdLatency,
        rng: random.Random,
    ) -> None:
        self.env = env
        self.latency = latency
        self._rng = rng
        #: Monitor reads fault events from here (epoll on the fd).
        self.events: Store = Store(env)
        #: Live registrations only: unregister drops the handle.
        self._regions: List[UffdRegion] = []
        self.counters = CounterSet()

    # -- registration (paper §IV: done by the QEMU wrapper library) ---------

    def register(
        self, region: MemoryRegion, pid: int, page_table: PageTable
    ) -> UffdRegion:
        """Register a range; faults inside it become events."""
        for existing in self._regions:
            if existing.pid == pid and existing.region.overlaps(region):
                raise UffdRegionError(
                    f"range {region!r} overlaps {existing!r}"
                )
        handle = UffdRegion(region, pid, page_table)
        self._regions.append(handle)
        self.counters.incr("registrations")
        return handle

    def unregister(self, handle: UffdRegion) -> None:
        """Drop a region (VM shut down); its handle reads invalid."""
        if not handle.valid:
            raise UffdRegionError(f"{handle!r} already unregistered")
        try:
            self._regions.remove(handle)
        except ValueError:
            raise UffdRegionError(
                f"{handle!r} is not registered on this fd"
            ) from None
        handle.valid = False
        self.counters.incr("unregistrations")

    def find_region(self, addr: int, pid: int) -> Optional[UffdRegion]:
        """The live registration of ``pid`` that covers ``addr``."""
        for handle in self._regions:
            if handle.pid == pid:
                span = handle.region
                if span.start <= addr < span.start + span.length:
                    return handle
        return None

    @property
    def registered_regions(self) -> List[UffdRegion]:
        return list(self._regions)

    # -- fault side ---------------------------------------------------------

    def raise_fault(self, addr: int, pid: int, is_write: bool) -> UffdFault:
        """Kernel fault handler found a missing page in a registered range.

        Returns the fault object; the caller (vCPU model) must
        ``yield fault.resolved``.  Delivery to the monitor costs
        ``event_deliver_us`` and happens asynchronously, like the real
        fd write + epoll wake-up.
        """
        if addr & (PAGE_SIZE - 1) or addr >> 64:
            check_fault_address(addr)
        region = self.find_region(addr, pid)
        if region is None:
            raise UffdError(
                f"no registered region for {addr:#x} (pid {pid})"
            )
        fault = UffdFault(self.env, addr, pid, is_write, region)
        self.counters["faults"] += 1
        # Fast path: when the delivery delay settles as a pure clock
        # bump, enqueue synchronously — no delivery process, no put
        # event.  The caller parks on ``fault.resolved`` either way, so
        # the monitor still only sees the fault via the queue.
        if self.env.try_advance(self.latency.event_deliver_us):
            self.events.put_nowait(fault)
        else:
            self.env.process(self._deliver(fault))
        return fault

    def _deliver(self, fault: UffdFault) -> Generator:
        deliver_us = self.latency.event_deliver_us
        if not self.env.try_advance(deliver_us):
            yield self.env.timeout(deliver_us)
        yield self.events.put(fault)


class UffdOps:
    """The ioctl surface the monitor drives, with Table I costs."""

    def __init__(
        self,
        env: Environment,
        latency: UffdLatency,
        rng: random.Random,
        frames: FrameAllocator,
    ) -> None:
        self.env = env
        self.latency = latency
        self._rng = rng
        self.frames = frames
        self.counters = CounterSet()

    # Each ioctl is a latency draw (``latency.sample_*`` on this ops
    # stream), a charge, and a finish_* state mutation.  The generator
    # ioctls below run all three; the monitor's fault path makes the
    # same draw itself, pays it on its own clock (a batch-window
    # cohort, try_advance, or a timeout) and then calls finish_*
    # directly.  Both keep one draw per ioctl in call order: the RNG
    # stream is part of the determinism contract.

    def finish_zeropage(
        self, table: PageTable, addr: int, kind: PageKind = PageKind.ANONYMOUS
    ) -> Page:
        """Zeropage state mutation; the cost must already be paid."""
        frame = self.frames.allocate()
        page = Page(vaddr=addr, kind=kind)
        table.map(addr, frame, page)
        self.counters["zeropage"] += 1
        return page

    def finish_copy(
        self,
        table: PageTable,
        addr: int,
        page: Page,
        skip_if_present: bool = False,
    ) -> Page:
        """Copy state mutation; the cost must already be paid."""
        if skip_if_present:
            existing = table.lookup(addr)
            if existing is not None:
                self.counters["copy_eexist"] += 1
                return existing.page
        frame = self.frames.allocate()
        table.map(addr, frame, page)
        self.counters["copy"] += 1
        return page

    def finish_remap_out(
        self,
        table: PageTable,
        addr: int,
        dst_table: PageTable,
        dst_addr: int,
    ) -> Page:
        """Remap state mutation; the cost must already be paid."""
        pte = table.remap_to(addr, dst_table, dst_addr)
        self.counters["remap"] += 1
        return pte.page

    def zeropage(
        self,
        table: PageTable,
        addr: int,
        kind: PageKind = PageKind.ANONYMOUS,
    ) -> Generator:
        """UFFDIO_ZEROPAGE: resolve a first touch with the zero page.

        Simplification: we charge a frame immediately rather than
        modelling the shared copy-on-write zero page; FluidMem's LRU
        accounting counts the page as resident either way.
        """
        cost = self.latency.sample_zeropage(self._rng)
        if not self.env.try_advance(cost):
            yield self.env.timeout(cost)
        return self.finish_zeropage(table, addr, kind)

    def copy(
        self,
        table: PageTable,
        addr: int,
        page: Page,
        skip_if_present: bool = False,
    ) -> Generator:
        """UFFDIO_COPY: place ``page``'s contents at ``addr`` and map it.

        ``skip_if_present`` mirrors the real ioctl's -EEXIST handling:
        when a concurrent resolver (e.g. a prefetch completion) mapped
        the address first, return the winner's page instead of failing.
        """
        cost = self.latency.sample_copy(self._rng)
        if not self.env.try_advance(cost):
            yield self.env.timeout(cost)
        return self.finish_copy(table, addr, page, skip_if_present)

    def remap_out(
        self,
        table: PageTable,
        addr: int,
        dst_table: PageTable,
        dst_addr: int,
        interleaved: bool = False,
    ) -> Generator:
        """UFFDIO_REMAP: move the page out of the VM by PTE rewrite.

        Zero-copy — the frame and the :class:`Page` object move to the
        destination table.  ``interleaved=True`` models the §V-B
        optimization where the call runs while the vCPU is already
        suspended, avoiding most of the TLB-shootdown IPI cost.
        """
        cost = self.latency.sample_remap(self._rng, interleaved)
        if not self.env.try_advance(cost):
            yield self.env.timeout(cost)
        return self.finish_remap_out(table, addr, dst_table, dst_addr)

    def try_wake(self, fault: UffdFault) -> bool:
        """Fast UFFDIO_WAKE; False when the event machinery is needed."""
        if not self.env.try_advance(self.latency.wake_us):
            return False
        if fault.resolved._value is not PENDING:
            raise UffdError(f"{fault!r} already woken")
        fault.resolved.succeed()
        self.counters["wake"] += 1
        return True

    def wake(self, fault: UffdFault) -> Generator:
        """UFFDIO_WAKE: resume the faulting vCPU thread."""
        wake_us = self.latency.wake_us
        if not self.env.try_advance(wake_us):
            yield self.env.timeout(wake_us)
        if fault.resolved._value is not PENDING:
            raise UffdError(f"{fault!r} already woken")
        fault.resolved.succeed()
        self.counters["wake"] += 1
