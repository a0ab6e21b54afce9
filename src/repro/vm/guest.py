"""Guest VM model: memory ports, boot footprints, virtualization modes.

The evaluation compares two ways of backing the *same* guest:

* **swap mode** — the guest kernel owns reclaim
  (:class:`~repro.kernel.GuestMemoryManager` behind a
  :class:`SwapMemoryPort`),
* **FluidMem mode** — the host monitor owns reclaim (the port lives in
  :mod:`repro.core`).

Workloads and services talk to a :class:`MemoryPort`, so they are
byte-for-byte identical across the two worlds — which is the property
that makes the comparison fair.

The boot footprint matters enormously here: Table III reports a VM
consumes 81 042 pages (316.57 MB) "just from booting to a command
prompt", and Figure 4b's FluidMem win comes from evicting exactly those
OS pages, which swap cannot move.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Generator, Iterator, List, Optional, Sequence, Tuple

from ..errors import VmError
from ..kernel import GuestMemoryManager
from ..mem import GIB, PAGE_SIZE, Page, PageKind, pages_for_bytes
from ..sim import Environment

__all__ = [
    "VirtMode",
    "MemoryPort",
    "SwapMemoryPort",
    "BootProfile",
    "GuestVM",
    "PAPER_BOOT_PAGES",
]

#: Table III, "After startup": resident pages of a freshly booted VM.
PAPER_BOOT_PAGES = 81042


class VirtMode(enum.Enum):
    """How the hypervisor executes the guest (Table III's last rows).

    KVM hardware-assisted virtualization deadlocks when the footprint
    drops to 1 page (handling a page fault can trigger more page
    faults); full (software) emulation survives it.
    """

    KVM = "kvm"
    FULL_EMULATION = "full-emulation"


class MemoryPort(abc.ABC):
    """What a guest workload needs from its memory backend."""

    @abc.abstractmethod
    def is_resident(self, vaddr: int) -> bool:
        """Fast-path residency check (no simulated time)."""

    def try_touch(self, vaddr: int, is_write: bool = False) -> bool:
        """Record an access iff the page is resident (no simulated time).

        The port's one-page hit body: a single page-table probe that
        marks the page on a hit and changes nothing on a miss.
        :meth:`touch`, :meth:`try_access` (and so :meth:`access`'s hit
        branch) and the hits an :class:`~repro.workloads.AccessDriver`
        retires one at a time go through it; the hits its ``try_hits``
        retires as a run go through :meth:`touch_run`, which marks each
        page as this method would, and the driver marks the hits its
        ``try_hit_set`` retires as a set itself, on the pages
        :meth:`resident_set` returns.  It keeps no port-level hit count:
        FluidMem's ``lru_hits`` counts only the hits of
        :meth:`try_access` and :meth:`access`, never a driver's hits.
        Every port provides it (``SwapMemoryPort`` binds the guest
        kernel's own).
        """
        raise NotImplementedError

    def touch_run(
        self,
        vaddrs: Sequence[int],
        writes: Sequence[bool],
        start: int,
        stop: int,
    ) -> int:
        """Record ``vaddrs[start:stop]`` as hits, in order, while they hit.

        The port's run body: the same marks, in the same order, as
        :meth:`try_touch` on each access (``writes[i]`` is its
        ``is_write``) until the first one that returns False.  It
        returns the index of the first access it did not record, or
        ``stop``.  It may stop before an access that :meth:`try_touch`
        would record or would reject with an error, and leaves that
        access to the caller's one-page path; so it never raises for
        an address.  No simulated time passes.  Every port provides it
        (``SwapMemoryPort`` binds the guest page table's
        :meth:`~repro.mem.PageTable.touch_run`).
        """
        raise NotImplementedError

    def resident_set(self, vaddrs: Sequence[int]) -> Optional[List[Page]]:
        """The page object of each of ``vaddrs`` if all of them hit.

        The port's set body, for a run whose pages are all resident:
        it returns the pages in the order of ``vaddrs``, or None as soon
        as one is absent or one :meth:`touch_run` would stop before.  It
        marks nothing.  Returning the pages promises that, while no
        simulated process runs, :meth:`try_touch` on an access to one of
        them would only set what ``Page.read``/``Page.write`` set on
        that page, so a caller may set those marks itself, each distinct
        page once per stretch of simulated time (an
        :class:`~repro.workloads.AccessDriver` flush window).  The
        default declines: a port without a set body returns None, and
        its callers use :meth:`touch_run`.  ``SwapMemoryPort`` binds the
        guest page table's :meth:`~repro.mem.PageTable.resident_set`.
        """
        return None

    @abc.abstractmethod
    def touch(self, vaddr: int, is_write: bool = False) -> None:
        """:meth:`try_touch` on a page that must be resident; raises
        ``PageTableError`` when it is not."""

    def fault(
        self,
        vaddr: int,
        is_write: bool = False,
        kind: PageKind = PageKind.ANONYMOUS,
    ) -> Generator:
        """The port's one miss body: fault the page in without a probe.

        The caller must know the page is not resident: it calls this
        at the simulated instant its own :meth:`try_access` or
        :meth:`try_touch` missed, as :meth:`access` and an
        :class:`~repro.workloads.AccessDriver` do.  It returns the
        installed page.  A
        misaligned or out-of-range address raises before anything is
        charged, with the exception the port always raised for it
        (``ValueError`` from ``Page`` on swap, ``UffdError`` on
        FluidMem).  Every port provides it (``SwapMemoryPort`` binds
        the guest kernel's ``access_fault``).
        """
        raise NotImplementedError

    def access(
        self,
        vaddr: int,
        is_write: bool = False,
        kind: PageKind = PageKind.ANONYMOUS,
    ) -> Generator:
        """Full access path: :meth:`try_access`, else :meth:`fault`.

        Returns None on a hit and the installed page on a fault.
        """
        if self.try_access(vaddr, is_write, kind):
            return None
        page = yield from self.fault(vaddr, is_write, kind)
        return page

    def try_access(
        self,
        vaddr: int,
        is_write: bool = False,
        kind: PageKind = PageKind.ANONYMOUS,
    ) -> bool:
        """Non-generator fast path for the resident case.

        Returns True iff the access completed (the page was resident),
        counting any port-level hit (FluidMem's ``lru_hits``;
        :meth:`try_touch` keeps none); :meth:`access`'s hit branch is
        this method.  On False nothing happened — the caller falls back
        to ``yield from fault(...)`` at once, or to ``yield from
        access(...)``.  ``kind`` only matters on the fault path, which
        this method never takes.
        """
        return self.try_touch(vaddr, is_write)

    def note_hit_run(self, count: int) -> None:
        """Batched-hit accounting: ``count`` consecutive hits coalesced.

        Metrics-silent by default — ports may track it for batching
        diagnostics, but it must never change benchmark output.
        """

    @property
    @abc.abstractmethod
    def resident_capacity(self) -> Optional[int]:
        """Max pages this port lets the VM keep in DRAM (None=unbounded)."""

    @property
    @abc.abstractmethod
    def resident_pages(self) -> int:
        """Pages currently in DRAM for this VM."""


class SwapMemoryPort(MemoryPort):
    """Memory port over the guest kernel's own MM (swap world)."""

    def __init__(self, mm: GuestMemoryManager) -> None:
        self.mm = mm
        #: The hit, run, set and miss bodies are the guest kernel's
        #: own, bound here so that each costs one call rather than a
        #: wrapper and the call inside.
        self.try_touch = mm.try_touch
        self.touch_run = mm.table.touch_run
        self.resident_set = mm.table.resident_set
        self.fault = mm.access_fault

    def is_resident(self, vaddr: int) -> bool:
        return self.mm.is_resident(vaddr)

    def touch(self, vaddr: int, is_write: bool = False) -> None:
        self.mm.touch(vaddr, is_write)

    @property
    def resident_capacity(self) -> Optional[int]:
        return self.mm.frames.total_frames

    @property
    def resident_pages(self) -> int:
        return self.mm.resident_pages


@dataclass(frozen=True)
class BootProfile:
    """Composition of the pages a guest touches while booting.

    The mix is what makes full disaggregation matter: the kernel and
    unevictable share can never reach swap, and the file-backed share
    can only be dropped back to its filesystem — FluidMem can move all
    of it to remote memory (paper §II, §VI-D1).
    """

    total_pages: int = PAPER_BOOT_PAGES
    kernel_fraction: float = 0.22
    file_fraction: float = 0.45
    anonymous_fraction: float = 0.30
    mlocked_fraction: float = 0.03

    def __post_init__(self) -> None:
        total = (
            self.kernel_fraction
            + self.file_fraction
            + self.anonymous_fraction
            + self.mlocked_fraction
        )
        if abs(total - 1.0) > 1e-9:
            raise VmError(f"boot profile fractions sum to {total}, not 1")
        if self.total_pages < 4:
            raise VmError("boot profile needs at least 4 pages")

    def scaled(self, factor: float) -> "BootProfile":
        """Same mix, ``factor``x the pages (for scaled-down benches)."""
        if factor <= 0:
            raise VmError(f"scale factor must be positive, got {factor}")
        return BootProfile(
            total_pages=max(4, int(self.total_pages * factor)),
            kernel_fraction=self.kernel_fraction,
            file_fraction=self.file_fraction,
            anonymous_fraction=self.anonymous_fraction,
            mlocked_fraction=self.mlocked_fraction,
        )

    def pages(self, base_vaddr: int) -> Iterator[Tuple[int, PageKind, bool]]:
        """(vaddr, kind, mlocked) for every boot page, laid out densely."""
        counts = [
            (PageKind.KERNEL, False,
             int(self.total_pages * self.kernel_fraction)),
            (PageKind.FILE_BACKED, False,
             int(self.total_pages * self.file_fraction)),
            (PageKind.UNEVICTABLE, True,
             int(self.total_pages * self.mlocked_fraction)),
        ]
        assigned = sum(count for _k, _m, count in counts)
        counts.append(
            (PageKind.ANONYMOUS, False, self.total_pages - assigned)
        )
        vaddr = base_vaddr
        for kind, mlocked, count in counts:
            for _ in range(count):
                yield vaddr, kind, mlocked
                vaddr += PAGE_SIZE


class GuestVM:
    """An unmodified guest: name, shape, boot footprint, memory port."""

    #: Upper bound on where the guest OS image lands (16 MiB); small
    #: VMs place it proportionally lower so it always fits.
    BOOT_BASE = 0x100_0000

    def __init__(
        self,
        env: Environment,
        name: str,
        memory_bytes: int = 1 * GIB,
        vcpus: int = 2,
        boot_profile: Optional[BootProfile] = None,
        virt_mode: VirtMode = VirtMode.KVM,
    ) -> None:
        if memory_bytes < 64 * PAGE_SIZE:
            raise VmError(
                f"VM needs >= 64 pages of memory, got {memory_bytes}"
            )
        if vcpus < 1:
            raise VmError(f"VM needs >= 1 vCPU, got {vcpus}")
        self.env = env
        self.name = name
        self.memory_bytes = memory_bytes
        self.vcpus = vcpus
        self.boot_profile = boot_profile or BootProfile()
        self.virt_mode = virt_mode
        self.port: Optional[MemoryPort] = None
        #: Guest-physical base of the boot image: 16 MiB, or 1/16th of
        #: the VM for small (scaled-down) guests.
        self.boot_base = min(self.BOOT_BASE, memory_bytes // 16)
        self.boot_base -= self.boot_base % PAGE_SIZE
        self._boot_pages: List[Tuple[int, PageKind, bool]] = []
        self.booted = False

    @property
    def memory_pages(self) -> int:
        return pages_for_bytes(self.memory_bytes)

    def attach_port(self, port: MemoryPort) -> None:
        if self.port is not None:
            raise VmError(f"{self.name}: a memory port is already attached")
        self.port = port

    def require_port(self) -> MemoryPort:
        if self.port is None:
            raise VmError(f"{self.name}: no memory port attached")
        return self.port

    def boot(self) -> Generator:
        """Bring the guest up: touch every boot-footprint page.

        Uses the attached port's full access path, so in FluidMem mode
        this generates the first-touch (zero-page) fault storm a real
        boot does, and in swap mode it fills the guest's DRAM.
        """
        port = self.require_port()
        if self.booted:
            raise VmError(f"{self.name} is already booted")
        boot_end_page = (
            self.boot_base // PAGE_SIZE + self.boot_profile.total_pages
        )
        if boot_end_page > self.memory_pages:
            raise VmError(
                f"{self.name}: boot footprint "
                f"({self.boot_profile.total_pages}p at "
                f"{self.boot_base:#x}) exceeds VM memory "
                f"({self.memory_pages}p)"
            )
        self._boot_pages = list(self.boot_profile.pages(self.boot_base))
        for vaddr, kind, mlocked in self._boot_pages:
            if not port.try_access(vaddr, is_write=True, kind=kind):
                yield from port.fault(vaddr, True, kind)
            if mlocked:
                # Reflect the mlock on the installed page.
                self._mark_mlocked(port, vaddr)
        self.booted = True

    @staticmethod
    def _mark_mlocked(port: MemoryPort, vaddr: int) -> None:
        # Best effort: ports expose the underlying page via their table
        # when they have one; mlock only matters for swap eligibility.
        mm = getattr(port, "mm", None)
        if mm is not None and mm.is_resident(vaddr):
            page = mm.table.entry(vaddr).page
            page.mlocked = True
            mm.lru.discard(page)

    def first_free_guest_addr(self) -> int:
        """Lowest guest address above the boot image (workloads start here)."""
        return self.boot_base + self.boot_profile.total_pages * PAGE_SIZE

    def boot_page_addresses(self) -> List[int]:
        """Addresses of the guest's boot footprint (after :meth:`boot`)."""
        if not self.booted:
            raise VmError(f"{self.name} has not booted")
        return [vaddr for vaddr, _kind, _mlocked in self._boot_pages]

    def os_working_set(self, count: int) -> List[int]:
        """A slice of boot pages that background OS activity keeps warm."""
        addresses = self.boot_page_addresses()
        if count > len(addresses):
            raise VmError(
                f"requested {count} OS pages, boot footprint has "
                f"{len(addresses)}"
            )
        # Spread across the footprint: kernel, file, and anon pages mix.
        step = max(1, len(addresses) // count)
        return addresses[::step][:count]

    def __repr__(self) -> str:
        return (
            f"<GuestVM {self.name!r} {self.memory_bytes >> 20} MiB "
            f"{self.vcpus} vCPU {self.virt_mode.value}"
            f"{' booted' if self.booted else ''}>"
        )
