"""The guest kernel's active/inactive page lists.

Linux reclaim keeps two LRU lists per type.  New pages enter the
inactive list; a page referenced again while inactive is promoted to the
active list instead of being reclaimed (second chance via the hardware
referenced bit).  kswapd refills the inactive list from the active tail
when it gets short.

This victim-selection quality is precisely why, in the paper's Figure
4c/d, *swap backed by DRAM slightly beats FluidMem backed by DRAM*: "the
kswapd process within the guest [is] better able to pick candidates for
eviction using the kernel's active/inactive list mechanism", while
FluidMem's user-space LRU never reorders (§V-A).  Reproducing that
crossover requires reproducing this mechanism.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from ..errors import KernelError
from ..mem import Page

__all__ = ["ActiveInactiveLists"]


class ActiveInactiveLists:
    """Two-list page aging with referenced-bit second chance."""

    def __init__(self) -> None:
        # OrderedDict ends: popitem(last=False) == oldest (tail of LRU).
        self._active: "OrderedDict[int, Page]" = OrderedDict()
        self._inactive: "OrderedDict[int, Page]" = OrderedDict()

    # -- membership -----------------------------------------------------------

    def insert(self, page: Page) -> None:
        """A newly mapped page enters the inactive list (MRU end)."""
        if page.vaddr in self._active or page.vaddr in self._inactive:
            raise KernelError(f"{page!r} is already on an LRU list")
        self._inactive[page.vaddr] = page

    def insert_active(self, page: Page) -> None:
        """Workingset refault: a quickly refaulting page is activated
        immediately (Linux's mm/workingset.c shadow-entry logic)."""
        if page.vaddr in self._active or page.vaddr in self._inactive:
            raise KernelError(f"{page!r} is already on an LRU list")
        self._active[page.vaddr] = page

    def remove(self, page: Page) -> None:
        """Drop a page from whichever list holds it (unmap/free path)."""
        if self._inactive.pop(page.vaddr, None) is None:
            if self._active.pop(page.vaddr, None) is None:
                raise KernelError(f"{page!r} is on no LRU list")

    def discard(self, page: Page) -> None:
        """Like :meth:`remove` but silent when absent."""
        if self._inactive.pop(page.vaddr, None) is None:
            self._active.pop(page.vaddr, None)

    def __contains__(self, page: Page) -> bool:
        return page.vaddr in self._active or page.vaddr in self._inactive

    def touch(self, vaddr: int) -> bool:
        """A load from ``vaddr``: True, with the page's referenced bit
        set, if the page is on either list; False, changing nothing,
        if it is on neither.

        The market fleet's one hit body (:mod:`repro.market.fleet`):
        no :meth:`Page.read` frame, and the inactive list, which holds
        most of the fleet's hits, is probed first.
        """
        inactive = self._inactive
        if vaddr in inactive:
            inactive[vaddr].referenced = True
            return True
        active = self._active
        if vaddr in active:
            active[vaddr].referenced = True
            return True
        return False

    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def inactive_count(self) -> int:
        return len(self._inactive)

    def __len__(self) -> int:
        return len(self._active) + len(self._inactive)

    # -- reclaim --------------------------------------------------------------

    def select_victims(
        self, count: int, scan_limit_factor: int = 4
    ) -> List[Page]:
        """Pick up to ``count`` reclaim candidates.

        Scans from the inactive tail.  A page whose referenced bit is set
        gets a second chance: the bit is cleared and the page is promoted
        to the active list.  Unreferenced pages are removed and returned
        as victims.  The inactive list is first refilled from the active
        tail when it holds less than half the pages (Linux's
        inactive_is_low heuristic), with referenced bits cleared so hot
        pages must prove themselves again.
        """
        if count <= 0:
            raise KernelError(f"victim count must be positive, got {count}")
        self._refill_inactive()
        inactive, active = self._inactive, self._active
        victims: List[Page] = []
        scanned = 0
        scan_limit = max(count * scan_limit_factor, count)
        while inactive and len(victims) < count and scanned < scan_limit:
            vaddr, page = inactive.popitem(last=False)
            scanned += 1
            # Test and clear the referenced bit.
            if page.referenced:
                page.referenced = False
                # Second chance: promote.
                active[vaddr] = page
                continue
            victims.append(page)
        return victims

    def shrink_to(self, target: int) -> List[Page]:
        """Reclaim until at most ``target`` pages are on the lists.

        Runs :meth:`select_victims` (the 4x scan) for the whole excess;
        if a scan frees nothing because every page it reached got a
        second chance, it scans again at 64x to age harder.  If that
        frees nothing too, it stops with the lists still over
        ``target``: the 64x scan can promote the whole inactive list
        without a refill, and the next call finds those pages' bits
        clear.  Returns the victims in reclaim order; they are off the
        lists.  The market fleet's one eviction body, per miss and per
        harvest.
        """
        victims: List[Page] = []
        excess = len(self._active) + len(self._inactive) - target
        while excess > 0:
            batch = self.select_victims(excess)
            if not batch:
                batch = self.select_victims(excess, scan_limit_factor=64)
                if not batch:
                    break
            victims += batch
            excess -= len(batch)
        return victims

    def _refill_inactive(self) -> None:
        inactive, active = self._inactive, self._active
        while active and len(inactive) < len(active):
            vaddr, page = active.popitem(last=False)
            page.referenced = False
            inactive[vaddr] = page

    # -- working-set estimation (harvester hook) --------------------------------

    def referenced_inactive_count(self) -> int:
        """Inactive pages whose referenced bit is currently set.

        Non-destructive (unlike :meth:`select_victims`' aging scan):
        the bits stay so reclaim still sees them.
        """
        count = 0
        for page in self._inactive.values():
            if page.referenced:
                count += 1
        return count

    def wss_estimate(self) -> int:
        """Working-set-size estimate from the page-access stats.

        Counts the pages the aging machinery currently believes are
        hot: the whole active list plus the inactive pages that were
        referenced since the last scan.  This is the signal the
        ``repro.market`` harvester shrinks a producer VM toward —
        everything else on the lists is reclaimable without a refault
        storm.
        """
        return self.active_count + self.referenced_inactive_count()

    # -- introspection ----------------------------------------------------------

    def oldest_inactive(self) -> Optional[Page]:
        if not self._inactive:
            return None
        vaddr = next(iter(self._inactive))
        return self._inactive[vaddr]

    def __repr__(self) -> str:
        return (
            f"<ActiveInactiveLists active={len(self._active)} "
            f"inactive={len(self._inactive)}>"
        )
