"""The multi-tenant memory marketplace (Memtrade over FluidMem).

FluidMem makes a VM's memory footprint a provider-controlled knob
(§III); this package closes the loop the related work opened
(Memtrade, arXiv 2108.06893): if footprints can shrink on demand, the
reclaimed DRAM is a *sellable commodity*.  Three cooperating parts:

* :class:`Harvester` (:mod:`.harvester`) — per-producer control loop:
  estimate the working set from kernel page-access stats, skim the
  surplus onto the market, give everything back fast when the
  producer's fault rate spikes.
* :class:`Broker` (:mod:`.broker`) — spot pricing, admission control,
  and the lease ledger.  Every mutation reports into
  :class:`repro.check.MarketInvariants`, whose shadow ledger proves
  capacity conservation (granted <= harvested, no double-grant, leases
  freed on VM death) rather than asserting it.
* :class:`QosManager` (:mod:`.qos`) — per-tenant p99 fault-latency
  SLOs enforced by throttling spot tenants and steering the broker's
  revocation order.

:mod:`.fleet` scales the three to hundreds of lightweight VMs on one
deterministic timeline in one process — the substrate of the
``market`` bench experiment (``python -m repro.bench market``).
:meth:`MarketFleet.run` is the market's only tick protocol: chaos,
access ticks, then every few ticks a market round (harvest, lease,
QoS evaluation) audited against the broker's shadow ledger.
"""

from .broker import Broker, Lease, SpotPricing
from .fleet import (
    FIRST_TOUCH_US,
    REMOTE_FAULT_US,
    SWAP_FAULT_US,
    MarketFleet,
    MarketVM,
    TenantSpec,
)
from .harvester import HarvestConfig, Harvester, MonitorHarvestTarget
from .qos import QosManager, TenantSlo

__all__ = [
    "Broker",
    "FIRST_TOUCH_US",
    "HarvestConfig",
    "Harvester",
    "Lease",
    "MarketFleet",
    "MarketVM",
    "MonitorHarvestTarget",
    "QosManager",
    "REMOTE_FAULT_US",
    "SWAP_FAULT_US",
    "SpotPricing",
    "TenantSlo",
    "TenantSpec",
]
