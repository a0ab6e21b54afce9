"""Per-tenant QoS: fault-latency SLOs, windowed p99, throttling.

Harvesting is only acceptable in a multi-tenant cloud if it is
*invisible to the tenants who paid for better*: a premium VM's p99
page-fault latency must hold its SLO even while spot consumers churn
the same market.  This module is the enforcement arm:

* :class:`TenantSlo` — the contract: a p99 fault-latency bound (µs)
  and a priority class (0=spot, 1=standard, 2=premium).  Priority
  feeds the broker's revocation order — spot leases are the first
  casualties of a give-back.
* :class:`QosManager` — collects every tenant's fault latencies into
  the current evaluation window, computes windowed p99s on
  :meth:`evaluate`, counts SLO violations (``slo_violations{tenant=}``
  in :mod:`repro.obs`), and converts protected-tier violations into a
  throttle penalty charged to spot tenants' refaults (remote and swap
  faults alike; first-touch zero-fills are not charged) — shedding the
  load that is squeezing the tenants with contracts.

Everything is deterministic: windows are plain lists, p99 is the
nearest-rank statistic on a sorted copy, throttles move in fixed
doubling/halving steps, and iteration is sorted by tenant name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import MarketError
from ..obs import NULL_OBS, Observability

__all__ = ["TenantSlo", "QosManager"]


@dataclass(frozen=True)
class TenantSlo:
    """A tenant's latency contract with the platform."""

    #: Windowed p99 page-fault latency must stay at or under this (µs).
    p99_fault_latency_us: float
    #: 0 = spot (revoke/throttle first), 1 = standard, 2 = premium.
    priority: int = 1

    def __post_init__(self) -> None:
        if self.p99_fault_latency_us <= 0:
            raise MarketError(
                "SLO latency bound must be positive, got "
                f"{self.p99_fault_latency_us}"
            )
        if self.priority < 0:
            raise MarketError(
                f"priority must be non-negative, got {self.priority}"
            )


def _p99(samples: List[float]) -> float:
    """Nearest-rank p99 — deterministic, no interpolation."""
    ordered = sorted(samples)
    rank = max(0, -(-99 * len(ordered) // 100) - 1)  # ceil(0.99n) - 1
    return ordered[rank]


class QosManager:
    """Windowed SLO evaluation and spot-tenant throttling."""

    #: First throttle step charged per remote or swap fault of a spot
    #: tenant while a protected tenant is violating (µs).
    BASE_THROTTLE_US = 25.0
    #: Throttle ceiling — beyond this, shedding more spot traffic
    #: cannot help and only distorts the spot tenants' own latencies.
    MAX_THROTTLE_US = 400.0

    def __init__(
        self,
        obs: Optional[Observability] = None,
        min_samples: int = 1,
    ) -> None:
        if min_samples < 1:
            raise MarketError(
                f"min_samples must be >= 1, got {min_samples}"
            )
        self.obs = obs if obs is not None else NULL_OBS
        self._obs_on = self.obs.enabled
        #: A window with fewer faults than this yields no p99 verdict —
        #: one straggler fault is not statistical evidence of an SLO
        #: breach (a p99 over two samples is just their max).
        self.min_samples = min_samples
        self._slos: Dict[str, TenantSlo] = {}
        self._window: Dict[str, List[float]] = {}
        #: p99 per tenant from the most recent evaluate().
        self.last_p99: Dict[str, float] = {}
        #: Tenants violating their SLO as of the last evaluate().
        self.violating: Dict[str, bool] = {}
        #: Cumulative violation windows per tenant.
        self.violation_counts: Dict[str, int] = {}
        #: Per-window p99 maps, one entry per evaluate() call — the
        #: time series regression tests assert recovery against.
        self.p99_history: List[Dict[str, float]] = []
        self._throttle_us = 0.0
        self.windows_evaluated = 0

    # -- registration ------------------------------------------------------------

    def register(self, tenant: str, slo: TenantSlo) -> None:
        if tenant in self._slos:
            raise MarketError(f"tenant {tenant!r} already registered")
        self._slos[tenant] = slo
        self._window[tenant] = []
        self.violating[tenant] = False
        self.violation_counts[tenant] = 0

    def deregister(self, tenant: str) -> None:
        self._slos.pop(tenant, None)
        self._window.pop(tenant, None)
        self.last_p99.pop(tenant, None)
        self.violating.pop(tenant, None)

    def slo_of(self, tenant: str) -> TenantSlo:
        return self._slos[tenant]

    def priority_of(self, tenant: str) -> int:
        """Eviction/revocation priority class (for the broker)."""
        slo = self._slos.get(tenant)
        return slo.priority if slo is not None else 1

    # -- sample ingestion ----------------------------------------------------------

    def record_fault(self, tenant: str, latency_us: float) -> None:
        """One page fault completed for ``tenant`` at ``latency_us``."""
        window = self._window.get(tenant)
        if window is None:
            return
        window.append(latency_us)
        if self._obs_on:
            self.obs.registry.histogram(
                "tenant_fault_latency_us", tenant=tenant
            ).observe(latency_us)

    def throttle_delay_us(self, tenant: str) -> float:
        """Extra delay charged to this tenant's remote and swap faults."""
        slo = self._slos.get(tenant)
        if slo is None or slo.priority > 0:
            return 0.0
        return self._throttle_us

    # -- evaluation ----------------------------------------------------------------

    def evaluate(self) -> Dict[str, float]:
        """Close the window: p99s, violations, throttle adjustment.

        Returns the per-tenant windowed p99 map (tenants with no
        faults this window are absent — no faults cannot violate a
        fault-latency SLO).
        """
        self.windows_evaluated += 1
        p99s: Dict[str, float] = {}
        protected_violating = False
        for tenant in sorted(self._slos):
            samples = self._window[tenant]
            slo = self._slos[tenant]
            if len(samples) < self.min_samples:
                self.violating[tenant] = False
                self._window[tenant] = []
                continue
            p99 = _p99(samples)
            p99s[tenant] = p99
            self.last_p99[tenant] = p99
            violated = p99 > slo.p99_fault_latency_us
            self.violating[tenant] = violated
            if violated:
                self.violation_counts[tenant] += 1
                if slo.priority > 0:
                    protected_violating = True
                if self._obs_on:
                    self.obs.registry.counter(
                        "slo_violations", tenant=tenant
                    ).inc()
            self._window[tenant] = []
        if protected_violating:
            self._throttle_us = min(
                self.MAX_THROTTLE_US,
                max(self.BASE_THROTTLE_US, self._throttle_us * 2.0),
            )
        else:
            self._throttle_us = (
                self._throttle_us / 2.0
                if self._throttle_us >= self.BASE_THROTTLE_US
                else 0.0
            )
        if self._obs_on:
            self.obs.registry.gauge("qos_spot_throttle_us").set(
                self._throttle_us
            )
        self.p99_history.append(dict(p99s))
        return p99s

    def total_violations(self) -> int:
        return sum(self.violation_counts.values())

    def __repr__(self) -> str:
        return (
            f"<QosManager tenants={len(self._slos)} "
            f"windows={self.windows_evaluated} "
            f"violations={self.total_violations()} "
            f"throttle={self._throttle_us}us>"
        )
