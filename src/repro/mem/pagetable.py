"""Per-process page tables.

A :class:`PageTable` maps page-aligned virtual addresses to physical
frames.  A *fault* is simply an access to a non-present address — the
kernel model (:mod:`repro.kernel.faults`) decides what happens next
(regular anonymous fault, swap-in, or a userfaultfd event).

The table also models what ``UFFD_REMAP`` exploits: a mapping can be
*moved* between two tables (VM -> monitor buffer) by rewriting entries
without touching page contents (paper §V-B, zero-copy semantics).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import PageTableError
from .addr import PAGE_SIZE, is_page_aligned
from .page import Page

__all__ = ["PageTableEntry", "PageTable"]

#: Low bits that must be clear on any page-aligned address.  The hot
#: methods test ``vaddr & _OFFSET_MASK or vaddr >> 64`` inline (aligned,
#: non-negative, within 64 bits) and only call the full checker — which
#: raises the precise error — when that guard trips.
_OFFSET_MASK = PAGE_SIZE - 1
#: :meth:`PageTable.touch_run`'s bound when it is given none: every key
#: is below it, since :meth:`PageTable.map` rejects any at or above it.
_NO_LIMIT = 1 << 64


class PageTableEntry:
    """One present PTE: frame plus the page metadata object."""

    __slots__ = ("frame", "page")

    def __init__(self, frame: int, page: Page) -> None:
        self.frame = frame
        self.page = page

    def __repr__(self) -> str:
        return f"<PTE frame={self.frame} page={self.page!r}>"


class PageTable:
    """Sparse map from page-aligned vaddr to :class:`PageTableEntry`."""

    def __init__(self, name: str = "pagetable") -> None:
        self.name = name
        self._entries: Dict[int, PageTableEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vaddr: int) -> bool:
        return vaddr in self._entries

    @property
    def present_pages(self) -> int:
        """Number of currently mapped pages (the resident footprint)."""
        return len(self._entries)

    def map(self, vaddr: int, frame: int, page: Page) -> None:
        """Install a mapping; the address must not already be present."""
        if vaddr & _OFFSET_MASK or vaddr >> 64:
            self._check_aligned(vaddr)
        if vaddr in self._entries:
            raise PageTableError(
                f"{self.name}: {vaddr:#x} is already mapped"
            )
        self._entries[vaddr] = PageTableEntry(frame, page)

    def unmap(self, vaddr: int) -> PageTableEntry:
        """Remove and return the mapping for ``vaddr``."""
        if vaddr & _OFFSET_MASK or vaddr >> 64:
            self._check_aligned(vaddr)
        try:
            return self._entries.pop(vaddr)
        except KeyError:
            raise PageTableError(
                f"{self.name}: {vaddr:#x} is not mapped"
            ) from None

    def lookup(self, vaddr: int) -> Optional[PageTableEntry]:
        """The PTE for ``vaddr``, or ``None`` if not present (a fault)."""
        if vaddr & _OFFSET_MASK or vaddr >> 64:
            self._check_aligned(vaddr)
        return self._entries.get(vaddr)

    def get(self, vaddr: int) -> Optional[PageTableEntry]:
        """:meth:`lookup` without the alignment check: the hit paths' probe.

        Every key is page aligned (:meth:`map` checks), so a misaligned
        or out-of-range ``vaddr`` can only miss, and the caller's miss
        path validates it.
        """
        return self._entries.get(vaddr)

    def touch_run(
        self,
        vaddrs: Sequence[int],
        writes: Sequence[bool],
        start: int,
        stop: int,
        base: int = 0,
        limit: Optional[int] = None,
    ) -> int:
        """Mark ``vaddrs[start:stop]`` as hits, in order: the run body.

        Page ``base + vaddrs[i]`` gets what ``Page.read`` sets, or what
        ``Page.write`` with no data sets where ``writes[i]`` is true.
        The run stops at the first address that is negative, at or past
        ``limit`` (when one is given) or absent, and returns its index,
        or ``stop`` when every page was present: the pages before it are
        marked, it and those after it are not.  Like :meth:`get` it does
        no alignment check, since a misaligned address can only be
        absent; the caller's one-page path deals with the address it
        stopped at.

        An access that repeats the previous access's address in this
        run is neither checked nor probed again: that access passed the
        same check, found the same page and set ``referenced``, and
        nothing runs inside a run that could unmap it, so only a
        write's ``dirty`` and ``version`` remain to set.
        """
        if limit is None:
            limit = _NO_LIMIT
        get = self._entries.get
        previous = None
        for index in range(start, stop):
            vaddr = vaddrs[index]
            if vaddr == previous:
                if writes[index]:
                    page.dirty = True
                    page.version += 1
                continue
            if not 0 <= vaddr < limit:
                return index
            pte = get(base + vaddr)
            if pte is None:
                return index
            page = pte.page
            page.referenced = True
            if writes[index]:
                page.dirty = True
                page.version += 1
            previous = vaddr
        return stop

    def resident_set(
        self,
        vaddrs: Sequence[int],
        base: int = 0,
        limit: Optional[int] = None,
    ) -> Optional[List[Page]]:
        """The page of each of ``vaddrs``, if all are present: the set body.

        Returns the page object at ``base + vaddrs[i]`` for each ``i``,
        in order, or None as soon as an address is negative, at or past
        ``limit`` (when one is given) or absent, where :meth:`touch_run`
        would stop.  It marks nothing: a caller that sets on each page
        what ``Page.read`` or ``Page.write`` with no data sets does what
        :meth:`touch_run` does over accesses to these pages.  Like
        :meth:`get` it does no alignment check, since a misaligned
        address can only be absent.
        """
        if limit is None:
            limit = _NO_LIMIT
        get = self._entries.get
        pages = []
        for vaddr in vaddrs:
            if not 0 <= vaddr < limit:
                return None
            pte = get(base + vaddr)
            if pte is None:
                return None
            pages.append(pte.page)
        return pages

    def entry(self, vaddr: int) -> PageTableEntry:
        """Like :meth:`lookup` but raises when absent."""
        pte = self.lookup(vaddr)
        if pte is None:
            raise PageTableError(f"{self.name}: {vaddr:#x} is not mapped")
        return pte

    def remap_to(
        self, vaddr: int, other: "PageTable", other_vaddr: int
    ) -> PageTableEntry:
        """Move a mapping into another table (the ``UFFD_REMAP`` core).

        The entry itself travels, frame and page object with it; no
        contents are copied.  After this, ``vaddr`` faults in this table
        and ``other_vaddr`` is present in ``other``.  Raises what
        ``unmap(vaddr)`` and then ``other.map(other_vaddr, ...)`` would
        raise, in that order, before changing either table.
        """
        if vaddr & _OFFSET_MASK or vaddr >> 64:
            self._check_aligned(vaddr)
        entries = self._entries
        pte = entries.get(vaddr)
        if pte is None:
            raise PageTableError(f"{self.name}: {vaddr:#x} is not mapped")
        if other_vaddr & _OFFSET_MASK or other_vaddr >> 64:
            other._check_aligned(other_vaddr)
        if other_vaddr in other._entries and (
            other is not self or other_vaddr != vaddr
        ):
            raise PageTableError(
                f"{other.name}: {other_vaddr:#x} is already mapped"
            )
        del entries[vaddr]
        other._entries[other_vaddr] = pte
        return pte

    def items(self) -> Iterator[Tuple[int, PageTableEntry]]:
        return iter(self._entries.items())

    def addresses(self) -> Iterator[int]:
        return iter(self._entries.keys())

    @staticmethod
    def _check_aligned(vaddr: int) -> None:
        if not is_page_aligned(vaddr):
            raise PageTableError(
                f"address {vaddr:#x} is not page aligned"
            )

    def __repr__(self) -> str:
        return f"<PageTable {self.name!r} present={len(self._entries)}>"
