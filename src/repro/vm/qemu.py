"""The hypervisor emulator process (QEMU stand-in).

What FluidMem needs from QEMU (paper §IV) is small and specific: the
guest's RAM is one big allocation in the QEMU *process's* virtual
address space, and FluidMem wraps that allocation so the region is
registered with the user-space page fault handler.  Faults therefore
arrive at *host* virtual addresses belonging to the QEMU process, keyed
by its PID.

:class:`QemuProcess` models exactly that: a PID, an address space
holding guest-RAM regions (the boot region plus any hotplug slots), and
the guest-physical → host-virtual translation.
"""

from __future__ import annotations

import itertools
from typing import List

from ..errors import VmError
from ..mem import (
    AddressSpace,
    MemoryRegion,
    PAGE_SIZE,
    PageKind,
    PageTable,
)
from .guest import GuestVM

__all__ = ["QemuProcess"]

#: Where QEMU's mmap of guest RAM typically lands (host virtual).
GUEST_RAM_BASE = 0x7F00_0000_0000
#: Spacing between the RAM areas of different QEMU processes.  Real
#: processes get distinct mmap addresses (ASLR); keeping them distinct
#: here too means host vaddrs — and therefore FluidMem's page keys and
#: LRU entries — never collide across VMs.
PROCESS_STRIDE = 8 << 30  # 8 GiB per process slot

_pids = itertools.count(1000)


class QemuProcess:
    """One QEMU instance: PID, host address space, guest-RAM regions."""

    def __init__(self, vm: GuestVM, ram_base: int = 0) -> None:
        """``ram_base`` pins the guest-RAM mapping address — migration
        tooling uses this so a destination QEMU reproduces the source's
        layout (and therefore its FluidMem page keys)."""
        self.vm = vm
        self.pid = next(_pids)
        self.address_space = AddressSpace(f"qemu-{self.pid}")
        #: Host-side page table for the QEMU process (what uffd works on).
        self.page_table = PageTable(f"qemu-{self.pid}")
        self._ram_regions: List[MemoryRegion] = []
        self.ram_base = ram_base or (
            GUEST_RAM_BASE + (self.pid % 4096) * PROCESS_STRIDE
        )
        base_region = MemoryRegion(
            self.ram_base,
            vm.memory_pages * PAGE_SIZE,
            kind=PageKind.ANONYMOUS,
            name="guest-ram",
        )
        self.address_space.add(base_region)
        self._ram_regions.append(base_region)
        #: Bytes of guest RAM, from guest address 0, whose host address
        #: is ``ram_base`` plus the guest address: the boot region and
        #: every later region placed right after the one before it
        #: (which :meth:`add_ram_region` does while nothing else takes
        #: that space).
        self.linear_ram_bytes = base_region.length

    @property
    def ram_regions(self) -> List[MemoryRegion]:
        return list(self._ram_regions)

    @property
    def total_ram_pages(self) -> int:
        return sum(region.num_pages for region in self._ram_regions)

    def guest_to_host(self, guest_paddr: int) -> int:
        """Translate a guest-physical address to QEMU's virtual space.

        Guest physical memory is laid out contiguously across the RAM
        regions in creation order (boot RAM first, hotplug slots after).
        """
        if guest_paddr < 0:
            raise VmError(f"negative guest address {guest_paddr:#x}")
        offset = guest_paddr
        for region in self._ram_regions:
            if offset < region.length:
                return region.start + offset
            offset -= region.length
        raise VmError(
            f"guest address {guest_paddr:#x} beyond "
            f"{self.total_ram_pages} RAM pages"
        )

    def host_to_guest(self, host_vaddr: int) -> int:
        """Inverse of :meth:`guest_to_host`."""
        base = 0
        for region in self._ram_regions:
            if region.start <= host_vaddr < region.end:
                return base + (host_vaddr - region.start)
            base += region.length
        raise VmError(f"{host_vaddr:#x} is not in any guest-RAM region")

    def add_ram_region(self, length_bytes: int, name: str) -> MemoryRegion:
        """Attach another RAM mapping (memory hotplug's host side)."""
        if length_bytes <= 0 or length_bytes % PAGE_SIZE:
            raise VmError(
                f"hotplug size must be a positive page multiple, "
                f"got {length_bytes}"
            )
        start = self.address_space.allocate_gap(
            length_bytes, align=self.ram_base
        )
        region = MemoryRegion(
            start, length_bytes, kind=PageKind.ANONYMOUS, name=name
        )
        self.address_space.add(region)
        linear = self.linear_ram_bytes
        if linear == self.total_ram_pages * PAGE_SIZE and \
                start == self.ram_base + linear:
            self.linear_ram_bytes = linear + length_bytes
        self._ram_regions.append(region)
        return region

    def __repr__(self) -> str:
        return (
            f"<QemuProcess pid={self.pid} vm={self.vm.name!r} "
            f"ram={self.total_ram_pages}p in {len(self._ram_regions)} "
            f"regions>"
        )
