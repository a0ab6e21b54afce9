"""The VM-side view of FluidMem: a :class:`~repro.vm.MemoryPort`.

Workloads and service probes talk to this port with guest-physical
addresses; it translates to the QEMU process's host virtual space,
checks residency against the host page table, and on a miss halts the
"vCPU" on a userfaultfd fault until the monitor resolves it.

It also owns the KVM quirk from Table III: with hardware-assisted
virtualization and a 1-page footprint, handling a page fault can itself
trigger page faults — a deadlock.  Full (software) emulation survives.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

from ..errors import PageTableError, VcpuDeadlockError
from ..kernel import check_fault_address
from ..mem import PAGE_SIZE, Page, PageKind
from ..sim import Environment
from ..vm import GuestVM, MemoryPort, QemuProcess, VirtMode
from .monitor import Monitor, VmRegistration

__all__ = ["FluidMemoryPort"]

#: Low address bits that must be clear on a page address.
_OFFSET_MASK = PAGE_SIZE - 1


class FluidMemoryPort(MemoryPort):
    """Guest memory access through the FluidMem fault machinery."""

    def __init__(
        self,
        env: Environment,
        vm: GuestVM,
        qemu: QemuProcess,
        monitor: Monitor,
        registration: VmRegistration,
    ) -> None:
        self.env = env
        self.vm = vm
        self.qemu = qemu
        self.monitor = monitor
        self.registration = registration
        #: Batching diagnostics (note_hit_run): how many coalesced hit
        #: runs retired and how many pages they covered.  Deliberately
        #: not wired into the metrics registry — benchmark output must
        #: be identical whether callers batch or not.
        self.hit_runs = 0
        self.hit_run_pages = 0

    # -- MemoryPort API ------------------------------------------------------------

    def is_resident(self, vaddr: int) -> bool:
        return self.qemu.guest_to_host(vaddr) in self.qemu.page_table

    def try_touch(self, vaddr: int, is_write: bool = False) -> bool:
        """The port's one-page hit body: translate once, probe once.

        A hit sets what ``Page.read``/``Page.write`` set, credits the
        prefetcher when it installed the page (``prefetch_hits``), and
        feeds the LRU-reordering ablation.  It never counts
        ``lru_hits``: that is :meth:`try_access`'s port-level count
        (and so :meth:`access`'s), which an access driver's hits do not
        enter.
        """
        host = self.qemu.guest_to_host(vaddr)
        pte = self.qemu.page_table.get(host)
        if pte is None:
            return False
        page = pte.page
        page.referenced = True
        if is_write:
            page.dirty = True
            page.version += 1
        monitor = self.monitor
        if monitor._prefetched_addrs:
            monitor.note_prefetch_hit(self.registration, host)
        lru = monitor.lru
        if lru.reorder_on_access:
            lru.note_access(host)
        return True

    def touch_run(
        self,
        vaddrs: Sequence[int],
        writes: Sequence[bool],
        start: int,
        stop: int,
    ) -> int:
        """The port's run body: :meth:`try_touch` on each access, in
        order, until one misses; returns that access's index.

        A hit here only marks the page unless a prefetched page awaits
        its first hit or the LRU-reorder ablation is on.  A run of hits
        can turn neither on, so when both are off at its start the QEMU
        page table marks the whole run itself.  Its window is the guest
        RAM that QEMU maps linearly (``linear_ram_bytes`` from
        ``ram_base``: the boot region and the hotplugged regions laid
        out after it), where a guest address translates by one
        addition.  An address outside it stops the run, and
        :meth:`try_touch` translates it or raises.  Otherwise each
        access goes through :meth:`try_touch`, stopping before any
        address outside that window as well.
        """
        qemu = self.qemu
        limit = qemu.linear_ram_bytes
        monitor = self.monitor
        if not (monitor._prefetched_addrs or monitor.lru.reorder_on_access):
            return qemu.page_table.touch_run(
                vaddrs, writes, start, stop, qemu.ram_base, limit
            )
        try_touch = self.try_touch
        for index in range(start, stop):
            vaddr = vaddrs[index]
            if not 0 <= vaddr < limit or not try_touch(vaddr, writes[index]):
                return index
        return stop

    def resident_set(self, vaddrs: Sequence[int]) -> Optional[List[Page]]:
        """The port's set body: the QEMU page table's, over the window
        :meth:`touch_run` marks through it.

        A hit here only marks the page while no prefetched page awaits
        its first hit and the LRU-reorder ablation is off, so it
        declines unless both hold; only a simulated process can change
        either, and none runs within a set.  An address outside the
        linear-RAM window declines too.
        """
        monitor = self.monitor
        if monitor._prefetched_addrs or monitor.lru.reorder_on_access:
            return None
        qemu = self.qemu
        return qemu.page_table.resident_set(
            vaddrs, qemu.ram_base, qemu.linear_ram_bytes
        )

    def touch(self, vaddr: int, is_write: bool = False) -> None:
        if not self.try_touch(vaddr, is_write):
            table = self.qemu.page_table
            raise PageTableError(
                f"{table.name}: {self.qemu.guest_to_host(vaddr):#x} "
                "is not mapped"
            )

    def try_access(
        self,
        vaddr: int,
        is_write: bool = False,
        kind: PageKind = PageKind.ANONYMOUS,
    ) -> bool:
        """:meth:`try_touch` plus the port-level ``lru_hits`` count.

        ``lru_hits`` counts the hits of this method only, which is also
        :meth:`access`'s hit branch; an access driver's hits go to
        :meth:`try_touch` directly and are not counted here.
        """
        if self.try_touch(vaddr, is_write):
            self.monitor.counters.incr("lru_hits")
            return True
        return False

    def note_hit_run(self, count: int) -> None:
        self.hit_runs += 1
        self.hit_run_pages += count

    def fault(
        self,
        vaddr: int,
        is_write: bool = False,
        kind: PageKind = PageKind.ANONYMOUS,
    ) -> Generator:
        """The port's one miss body: halt the vCPU on a userfaultfd fault.

        Translates the guest address once and does not probe the table:
        the caller found the page missing.  A misaligned host address
        raises ``raise_fault``'s ``UffdError`` before the VM exit is
        charged.  ``kind`` is accepted for interface parity with the
        swap port but deliberately ignored: FluidMem treats every page
        identically — that indifference *is* full memory
        disaggregation.  The access retires on the freshly mapped page.
        """
        host = self.qemu.guest_to_host(vaddr)
        if host & _OFFSET_MASK or host >> 64:
            check_fault_address(host)
        monitor = self.monitor
        if self.vm.virt_mode is VirtMode.KVM and monitor.lru._capacity < 2:
            # Table III, last row: KVM hardware-assisted virtualization
            # deadlocks at a 1-page footprint because resolving a fault
            # triggers further faults.
            raise VcpuDeadlockError(
                f"{self.vm.name}: KVM fault handling deadlocks with a "
                f"{monitor.lru.capacity}-page footprint"
            )

        # The VM exit + vCPU halt before the kernel sees the fault.
        env = self.env
        vm_exit_us = monitor.config.latency.vm_exit_overhead
        if not env.try_advance(vm_exit_us):
            yield env.timeout(vm_exit_us)
        fault = monitor.uffd.raise_fault(host, self.qemu.pid, is_write)
        yield fault.resolved
        page = self.qemu.page_table.entry(host).page
        # What Page.write/Page.read set.
        page.referenced = True
        if is_write:
            page.dirty = True
            page.version += 1
        return page

    @property
    def resident_capacity(self) -> Optional[int]:
        return self.monitor.lru.capacity

    @property
    def resident_pages(self) -> int:
        """Pages of *this* VM currently in DRAM."""
        return self.qemu.page_table.present_pages
