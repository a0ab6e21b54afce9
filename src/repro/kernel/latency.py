"""Calibrated latency constants for kernel-path models.

Values come straight from the paper where it reports them:

* Table I gives the monitor-side costs, including the userfaultfd ioctls
  (UFFD_ZEROPAGE 2.61 µs avg, UFFD_COPY 3.89 µs, UFFD_REMAP 1.65 µs avg
  with an 18 µs 99th percentile caused by the TLB-flush IPI).
* §V-B: a synchronous UFFD_REMAP took 4–5 µs; interleaved under an
  in-flight network read it returned in ~2 µs.
* The swap-path stage costs are chosen so the end-to-end in-VM averages
  land on Figure 3 (26.34 / 41.73 / 106.56 µs for DRAM / NVMeoF / SSD
  swap) given the device models in :mod:`repro.blockdev.media`.

Everything is a frozen dataclass so experiment code can build variants
(``dataclasses.replace``) for ablations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["UffdLatency", "SwapPathLatency"]

#: Floor of a truncated-Gaussian ioctl cost (µs).
FLOOR_US = 0.05


@dataclass(frozen=True)
class UffdLatency:
    """userfaultfd mechanism costs (µs)."""

    #: UFFD_ZEROPAGE ioctl: install the shared zero page (Table I: 2.61).
    zeropage_mean: float = 2.61
    zeropage_sigma: float = 0.44

    #: UFFD_COPY ioctl: copy a 4 KB buffer into place (Table I: 3.89).
    copy_mean: float = 3.89
    copy_sigma: float = 0.77

    #: UFFD_REMAP: PTE rewrite cost without the IPI.
    remap_base_mean: float = 1.1
    remap_base_sigma: float = 0.3
    #: TLB-shootdown IPI when the vCPU may be running (§V-B: 4–5 µs total).
    remap_ipi_sync: float = 3.2
    #: Residual synchronization when the vCPU is already suspended
    #: (§V-B: the interleaved call returned after only 2 µs).
    remap_ipi_interleaved: float = 0.8
    #: Occasional long IPI (cross-socket, deep C-state): Table I's p99 18 µs.
    remap_tail_probability: float = 0.025
    remap_tail_us: float = 16.0

    #: Waking the halted vCPU thread (UFFDIO_WAKE + scheduler).
    wake_us: float = 1.5
    #: Kernel fault -> event readable by the monitor (fd write + epoll).
    #: (The monitor's own read of the event and dispatch is
    #: ``MonitorLatency.dispatch_mean``.)
    event_deliver_us: float = 2.0

    # Each ioctl cost is one Gaussian draw truncated below at FLOOR_US
    # (``max(FLOOR_US, draw)``, written as a comparison).

    def sample_zeropage(self, rng: random.Random) -> float:
        cost = rng.gauss(self.zeropage_mean, self.zeropage_sigma)
        return cost if cost > FLOOR_US else FLOOR_US

    def sample_copy(self, rng: random.Random) -> float:
        cost = rng.gauss(self.copy_mean, self.copy_sigma)
        return cost if cost > FLOOR_US else FLOOR_US

    def sample_remap(self, rng: random.Random, interleaved: bool) -> float:
        base = rng.gauss(self.remap_base_mean, self.remap_base_sigma)
        if not base > FLOOR_US:
            base = FLOOR_US
        ipi = (
            self.remap_ipi_interleaved if interleaved else self.remap_ipi_sync
        )
        if rng.random() < self.remap_tail_probability:
            ipi += self.remap_tail_us * rng.random()
        return base + ipi


@dataclass(frozen=True)
class SwapPathLatency:
    """Guest-kernel swap path stage costs (µs)."""

    #: Trap + VMA walk + swap-entry decode on fault entry.
    fault_entry_us: float = 1.3
    #: Extra cost when the faulting context is a KVM guest: VM exit,
    #: vCPU descheduling, EPT handling.  Zero for bare-metal processes.
    virtualization_overhead_us: float = 7.5
    #: Swap-cache radix-tree lookup.
    swap_cache_lookup_us: float = 0.6
    #: Hit in the swap cache (page still in memory): the "minor" path.
    swap_cache_hit_us: float = 2.0
    #: Allocate the bio, map the page, submit through virtio (cache=none).
    block_submit_us: float = 4.5
    #: Interrupt handling + PTE install + return to user.
    completion_us: float = 3.0
    #: Anonymous first-touch (zero-fill) minor fault.
    minor_fault_us: float = 2.2
    #: Synchronous direct-reclaim stall when free pages are exhausted
    #: and kswapd has fallen behind.
    direct_reclaim_us: float = 40.0
    #: Swap readahead window: 2^vm.page-cluster pages per swap-in (the
    #: kernel default page-cluster=3 gives 8).  Set to 1 to disable.
    page_cluster: int = 8
