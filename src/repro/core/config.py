"""FluidMem configuration.

Groups the paper's tunables in one frozen dataclass:

* the LRU buffer size — "the size of the list determines the number of
  pages held in DRAM for all VMs" (§V-A); resizable at runtime, which is
  the whole Table III experiment;
* the four §V-B optimizations, each independently switchable because
  Table II ablates them;
* the monitor's internal code-path costs, taken from Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import FluidMemError
from ..faults.retry import RetryPolicy
from ..policy.registry import DEFAULT_PREFETCH_POLICY

__all__ = ["FluidMemConfig", "MonitorLatency"]


@dataclass(frozen=True)
class MonitorLatency:
    """Monitor-internal code-path costs (µs), calibrated to Table I."""

    #: UPDATE_PAGE_CACHE: bookkeeping for the page's cache entry.
    update_page_cache_mean: float = 2.56
    update_page_cache_sigma: float = 0.25
    #: INSERT_PAGE_HASH_NODE: the seen-pages hash (pagetracker).
    insert_page_hash_mean: float = 2.58
    insert_page_hash_sigma: float = 1.26
    #: Lookup in the same hash (cheaper than insert).
    lookup_page_hash_mean: float = 0.9
    lookup_page_hash_sigma: float = 0.3
    #: INSERT_LRU_CACHE_NODE: LRU list insertion.
    insert_lru_mean: float = 2.87
    insert_lru_sigma: float = 0.47
    #: Reading + dispatching one event from the uffd fd (epoll wake-up,
    #: read syscall, handler dispatch).
    dispatch_mean: float = 4.0
    dispatch_sigma: float = 0.8
    #: Extra per-fault cost when the faulter is a KVM guest (VM exit,
    #: EPT handling, vCPU re-scheduling, guest-side fault retirement).
    #: Zero for libuserfault apps.
    vm_exit_overhead: float = 12.0


@dataclass(frozen=True)
class FluidMemConfig:
    """Behavioural knobs of the monitor."""

    #: Pages the LRU buffer lets all VMs keep in DRAM.
    lru_capacity_pages: int = 262144  # 1 GiB
    #: §V-B "Asynchronous writeback": evicted pages go on a write list
    #: flushed in batches instead of blocking the critical path.
    async_writeback: bool = True
    #: §V-B "Asynchronous reads": split reads into top/bottom halves and
    #: run UFFD_REMAP eviction while the network read is in flight.
    async_read: bool = True
    #: §V-B page stealing: resolve a fault from the pending write list,
    #: shortcutting two round trips.
    write_list_steal: bool = True
    #: The pagetracker: first-touch faults get the zero page instead of
    #: a remote read (§V-A).
    zero_page_tracker: bool = True
    #: Write-list flush batch size (pages per multi-write).
    writeback_batch_pages: int = 32
    #: Lazily flush pending writes older than this even if the batch is
    #: not full (the "stale file descriptor" check in §V-B).
    writeback_stale_us: float = 2000.0
    #: Extension (the paper's §V-A future work: "A future optimization
    #: would be to trigger faults for pages not yet evicted" /
    #: prefetch): on each remote read, asynchronously pull this many
    #: sequentially following pages from the store before the guest
    #: asks.  0 = off (the paper's shipped design).
    prefetch_pages: int = 0
    #: Which prefetch policy generates candidates when
    #: ``prefetch_pages`` > 0 (:mod:`repro.policy.prefetch`):
    #: ``"sequential"`` (the original next-N scheme, the default),
    #: ``"leap"`` (majority-trend window detection), or ``"none"``.
    prefetch_policy: str = DEFAULT_PREFETCH_POLICY
    #: Lightweight fault-handler coroutines (arXiv 2107.13848): 1 is
    #: the paper's single-threaded monitor loop; N > 1 lets faults
    #: from different vCPUs overlap behind a semaphore of N slots.
    fault_handlers: int = 1
    #: Ablation only — NOT in the paper's design: reorder the LRU on
    #: every monitor-visible access.  The paper's list is insertion
    #: ordered ("the internal ordering of the list does not change"),
    #: which is why guest kswapd picks better victims in Fig. 4c/d.
    lru_reorder_on_access: bool = False

    #: Retry policy for remote-store operations: critical-path reads
    #: retry against (replicated) backends with capped exponential
    #: backoff; the write-back flusher re-enqueues batches whose
    #: retries exhaust.  Exhaustion quarantines the VM with a
    #: :class:`~repro.errors.StoreUnavailableError`.
    retry_policy: RetryPolicy = RetryPolicy()

    latency: MonitorLatency = MonitorLatency()

    def __post_init__(self) -> None:
        if self.lru_capacity_pages < 1:
            raise FluidMemError(
                f"LRU capacity must be >= 1 page, got "
                f"{self.lru_capacity_pages}"
            )
        if self.writeback_batch_pages < 1:
            raise FluidMemError(
                f"writeback batch must be >= 1 page, got "
                f"{self.writeback_batch_pages}"
            )
        if self.writeback_stale_us <= 0:
            raise FluidMemError("writeback_stale_us must be positive")
        if self.prefetch_pages < 0:
            raise FluidMemError("prefetch_pages must be >= 0")
        if self.fault_handlers < 1:
            raise FluidMemError(
                f"fault_handlers must be >= 1, got {self.fault_handlers}"
            )

    def with_optimizations(
        self,
        async_read: bool,
        async_writeback: bool,
    ) -> "FluidMemConfig":
        """Table II variant: toggle the two asynchronous optimizations."""
        return replace(
            self, async_read=async_read, async_writeback=async_writeback
        )

    @classmethod
    def default_table2(cls, **kwargs) -> "FluidMemConfig":
        """The paper's 'Default' row: no asynchronous optimizations."""
        return cls(
            async_writeback=False, async_read=False, **kwargs
        )
