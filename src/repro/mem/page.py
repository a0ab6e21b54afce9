"""The page model.

Pages carry a *kind* because the full-vs-partial disaggregation argument
(paper §II) is entirely about kinds: Linux swap can only evict anonymous
pages, while FluidMem disaggregates file-backed, kernel, and unevictable
pages too.

A page optionally carries contents.  Functional tests use real bytes to
verify end-to-end data integrity through eviction / writeback / restore;
large benchmark runs leave ``data`` as ``None`` to stay fast, tracking a
``version`` counter instead so stale-read bugs are still detectable.
"""

from __future__ import annotations

import enum
from typing import Optional

from .addr import PAGE_SIZE, is_page_aligned

__all__ = ["PageKind", "Page", "ZERO_PAGE_DATA", "check_page_address"]

#: Contents of the kernel's shared zero page.
ZERO_PAGE_DATA = bytes(PAGE_SIZE)

#: Inline alignment guard for the hot ``Page.__init__`` path: only call
#: the full (range-checking, exception-raising) helper when this trips.
_OFFSET_MASK = PAGE_SIZE - 1


def check_page_address(vaddr: int) -> None:
    """Raise the ``ValueError`` a :class:`Page` at ``vaddr`` would raise.

    Callers test ``vaddr & (PAGE_SIZE - 1) or vaddr >> 64`` inline and
    call this only when that trips, so a fault path can reject a bad
    address before it charges anything.
    """
    if not is_page_aligned(vaddr):
        raise ValueError(f"page address {vaddr:#x} is not page aligned")


class PageKind(enum.Enum):
    """What a page backs, which decides who may evict it.

    ============== ============================= =======================
    Kind           Example                       Swappable by Linux swap
    ============== ============================= =======================
    ANONYMOUS      heap, stack                   yes
    FILE_BACKED    mmap'ed files, page cache     no (written to its file)
    KERNEL         kernel text/data, slabs       no
    UNEVICTABLE    mlock'ed / pinned memory      no
    ============== ============================= =======================

    FluidMem can disaggregate *all* of them (paper §II), which is the
    paper's definition of full memory disaggregation.
    """

    ANONYMOUS = "anonymous"
    FILE_BACKED = "file-backed"
    KERNEL = "kernel"
    UNEVICTABLE = "unevictable"


class Page:
    """One 4 KB page of a guest's (or process's) virtual memory.

    Identity is the page-aligned virtual address within one address
    space; callers key dictionaries by ``page.vaddr``.
    """

    __slots__ = (
        "vaddr",
        "kind",
        "dirty",
        "referenced",
        "mlocked",
        "version",
        "data",
    )

    def __init__(
        self,
        vaddr: int,
        kind: PageKind = PageKind.ANONYMOUS,
        data: Optional[bytes] = None,
        mlocked: bool = False,
    ) -> None:
        if vaddr & _OFFSET_MASK or vaddr >> 64:
            check_page_address(vaddr)
        if data is not None and len(data) != PAGE_SIZE:
            raise ValueError(
                f"page data must be exactly {PAGE_SIZE} bytes, "
                f"got {len(data)}"
            )
        self.vaddr = vaddr
        self.kind = kind
        self.dirty = False
        self.referenced = False
        self.mlocked = mlocked
        #: Monotonic write counter for stale-read detection without bytes.
        self.version = 0
        self.data = data

    def write(self, data: Optional[bytes] = None) -> None:
        """Record a store to this page (marks dirty, bumps version).

        The hit bodies (``GuestMemoryManager.try_touch``,
        ``FluidMemoryPort.try_touch``, ``PageTable.touch_run``) and the
        guest kernel's fault body (``GuestMemoryManager.access_fault``)
        set the same fields inline, as :meth:`read` and this method
        with no ``data`` would; ``AccessDriver.try_hit_set`` sets them
        once per page per flush window, ``version`` raised by the
        window's writes to the page.
        """
        if data is not None:
            if len(data) != PAGE_SIZE:
                raise ValueError(
                    f"page data must be exactly {PAGE_SIZE} bytes, "
                    f"got {len(data)}"
                )
            self.data = data
        self.dirty = True
        self.referenced = True
        self.version += 1

    def read(self) -> Optional[bytes]:
        """Record a load from this page; returns contents if tracked."""
        self.referenced = True
        return self.data

    def __repr__(self) -> str:
        flags = "".join(
            flag
            for flag, on in (
                ("D", self.dirty),
                ("R", self.referenced),
                ("L", self.mlocked),
            )
            if on
        )
        return (
            f"<Page {self.vaddr:#x} {self.kind.value}"
            f"{' ' + flags if flags else ''} v{self.version}>"
        )
