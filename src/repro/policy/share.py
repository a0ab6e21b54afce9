"""Provider memory policy: per-VM shares over the global LRU budget.

The paper motivates this exact control point (§III): because the
monitor sees *every* page of every VM, "an administrator can then
manage VM memory allocations in a fine-grained manner, dynamically
mapping VM memory between local and remote memory pages", implementing
"a provider's or application's custom memory usage policy" — something
swap fundamentally cannot do.

:class:`SharePolicy` is such a policy: each VM gets a weight, an
optional guaranteed minimum, and an optional cap of resident pages.
When the monitor must evict, the policy picks the victim VM with the
highest usage relative to its entitlement (capped VMs first, guaranteed
minima last) and evicts that VM's oldest page.

Historically this lived at ``repro.core.policy``; it moved here when
the :mod:`repro.policy` package collected every pluggable policy
family (allocation, prefetch, shares).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..errors import FluidMemError

if TYPE_CHECKING:  # type-only: a runtime import of repro.core here
    # would cycle back into this module via repro.core/__init__.
    from ..core.lru_buffer import LruBuffer, LruEntry

__all__ = ["ShareSpec", "SharePolicy"]


@dataclass(frozen=True)
class ShareSpec:
    """One VM's entitlement."""

    weight: float = 1.0
    #: Pages the provider guarantees resident (best effort: the VM must
    #: actually use them).
    min_pages: int = 0
    #: Hard cap of resident pages (None = no cap).
    max_pages: Optional[int] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise FluidMemError(f"weight must be > 0, got {self.weight}")
        if self.min_pages < 0:
            raise FluidMemError("min_pages must be >= 0")
        if self.max_pages is not None and self.max_pages < self.min_pages:
            raise FluidMemError("max_pages must be >= min_pages")


class SharePolicy:
    """Weighted proportional-share victim selection."""

    def __init__(self, default: Optional[ShareSpec] = None) -> None:
        self.default = default or ShareSpec()
        self._specs: Dict[int, ShareSpec] = {}
        self._registrations: Dict[int, object] = {}

    def set_share(self, registration: object, spec: ShareSpec) -> None:
        self._specs[id(registration)] = spec
        self._registrations[id(registration)] = registration

    def spec_for(self, registration: object) -> ShareSpec:
        return self._specs.get(id(registration), self.default)

    def forget(self, registration: object) -> None:
        self._specs.pop(id(registration), None)
        self._registrations.pop(id(registration), None)

    # -- the monitor's eviction hook --------------------------------------------

    def select_victim(self, lru: "LruBuffer") -> Optional["LruEntry"]:
        """Pop the best victim under the share rules.

        Candidate ranking, best victim first:

        1. any VM above its ``max_pages`` cap,
        2. the VM with the highest ``resident / weight`` among those
           above their ``min_pages`` guarantee,
        3. fall back to global FIFO (everyone is within guarantees —
           overcommitted minima degrade gracefully).
        """
        # Seen registrations: those with entries right now.
        usage = {}
        for _vaddr, registration in lru:
            key = id(registration)
            if key not in usage:
                usage[key] = (registration, lru.count_for(registration))

        over_cap = None
        best = None
        best_score = -1.0
        for registration, resident in usage.values():
            spec = self.spec_for(registration)
            if spec.max_pages is not None and resident > spec.max_pages:
                over_cap = registration
                break
            if resident <= spec.min_pages:
                continue  # protected by its guarantee
            score = resident / spec.weight
            if score > best_score:
                best_score = score
                best = registration

        if over_cap is not None:
            return lru.pop_oldest_of(over_cap)
        if best is not None:
            return lru.pop_oldest_of(best)
        return lru.pop_eviction_candidate()

    def enforce_cap(self, lru: "LruBuffer", registration: object) -> int:
        """Pages a capped VM currently holds beyond its limit."""
        spec = self.spec_for(registration)
        if spec.max_pages is None:
            return 0
        return max(0, lru.count_for(registration) - spec.max_pages)
