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

from typing import Generator, Optional

from ..errors import PageTableError, VcpuDeadlockError
from ..mem import PageKind
from ..sim import Environment
from ..vm import GuestVM, MemoryPort, QemuProcess, VirtMode
from .monitor import Monitor, VmRegistration

__all__ = ["FluidMemoryPort"]


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
        """The port's one hit body: translate once, probe the table once.

        A hit sets what ``Page.read``/``Page.write`` set, credits the
        prefetcher when it installed the page (``prefetch_hits``), and
        feeds the LRU-reordering ablation.  It never counts
        ``lru_hits``: that is :meth:`try_access`'s and :meth:`access`'s
        port-level count, which an access driver's hits do not enter.
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

        ``lru_hits`` counts the hits of this method and of
        :meth:`access` only; an access driver's hits go to
        :meth:`try_touch` directly and are not counted here.
        """
        if self.try_touch(vaddr, is_write):
            self.monitor.counters.incr("lru_hits")
            return True
        return False

    def note_hit_run(self, count: int) -> None:
        self.hit_runs += 1
        self.hit_run_pages += count

    def access(
        self,
        vaddr: int,
        is_write: bool = False,
        kind: PageKind = PageKind.ANONYMOUS,
    ) -> Generator:
        """Access a guest page; blocks through the fault path on a miss.

        ``kind`` is accepted for interface parity with the swap port but
        deliberately ignored: FluidMem treats every page identically —
        that indifference *is* full memory disaggregation.
        """
        host = self.qemu.guest_to_host(vaddr)
        if host in self.qemu.page_table:
            # Resident: the monitor never sees this access — the whole
            # point of keeping hot pages local (the "LRU hit" path).
            # The membership test only routes; the hit is retired by
            # the one hit body, so a miss translates the address once.
            self.try_access(vaddr, is_write)
            return None

        if (
            self.vm.virt_mode is VirtMode.KVM
            and self.monitor.lru._capacity < 2
        ):
            # Table III, last row: KVM hardware-assisted virtualization
            # deadlocks at a 1-page footprint because resolving a fault
            # triggers further faults.
            raise VcpuDeadlockError(
                f"{self.vm.name}: KVM fault handling deadlocks with a "
                f"{self.monitor.lru.capacity}-page footprint"
            )

        # The VM exit + vCPU halt before the kernel sees the fault.
        vm_exit_us = self.monitor.config.latency.vm_exit_overhead
        if not self.env.try_advance(vm_exit_us):
            yield self.env.timeout(vm_exit_us)
        fault = self.monitor.uffd.raise_fault(
            host, self.qemu.pid, is_write
        )
        yield fault.resolved
        # The access retires on the freshly mapped page.
        page = self.qemu.page_table.entry(host).page
        if is_write:
            page.write()
        else:
            page.read()
        return page

    @property
    def resident_capacity(self) -> Optional[int]:
        return self.monitor.lru.capacity

    @property
    def resident_pages(self) -> int:
        """Pages of *this* VM currently in DRAM."""
        return self.qemu.page_table.present_pages
