"""Market experiment: a fleet-scale multi-tenant memory marketplace.

Hundreds of VMs share one simulated cloud: an idle pool of producers
whose harvesters skim surplus DRAM onto the market, and three consumer
tenants — premium, standard, and spot — leasing that surplus to cover
working sets their local budgets cannot hold.  Zipfian access streams
give every VM a hot head and a long tail; a seeded chaos plan crashes
a slice of the fleet mid-run (broker teardown is invariant-checked)
and shifts some producers' working sets wholesale (the give-back
trigger).  Per-tenant p99 fault latency is scored against each
tenant's SLO every market round.

The broker runs with a live :class:`~repro.check.CorrectnessChecker`
on **every** run of this experiment, quick or full: the marketplace's
headline claims (granted <= harvested, no double-grant, leases freed
on VM death) are executable, not asserted.  Same seed, same bytes —
the experiment joins the CI determinism pin alongside ``cluster``.

The whole fleet runs in one process on one
:class:`~repro.sim.Environment`, driven by
:meth:`~repro.market.MarketFleet.run`, the market's only tick protocol.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from ..check import CorrectnessChecker
from ..faults import FaultKind, FaultPlan, FaultWindow
from ..market import (
    Broker,
    HarvestConfig,
    MarketFleet,
    QosManager,
    TenantSlo,
    TenantSpec,
)
from ..sim import Environment, RandomStreams, derive_seed
from .platform import default_observability
from .reporting import render_table

__all__ = ["MarketRow", "MarketResult", "run_market", "market_specs"]


def market_specs(fleet_scale: int) -> List[TenantSpec]:
    """The tenant mix, ``fleet_scale`` copies of a 112-VM unit.

    One unit: 64 over-provisioned producers plus 48 consumers split
    across three QoS tiers whose SLOs only the market can reconcile —
    premium working sets exceed local DRAM, so without leases their
    tail faults land on swap.
    """
    if fleet_scale < 1:
        raise ValueError("fleet_scale must be >= 1")
    return [
        TenantSpec(
            "idle-pool", 64 * fleet_scale, "producer",
            footprint_pages=512, capacity_pages=512,
            slo=TenantSlo(500.0, priority=1),
            accesses_per_tick=12,
        ),
        TenantSpec(
            "premium-db", 12 * fleet_scale, "consumer",
            footprint_pages=320, capacity_pages=128,
            slo=TenantSlo(80.0, priority=2),
            accesses_per_tick=24, max_price=120.0,
        ),
        TenantSpec(
            "standard-web", 16 * fleet_scale, "consumer",
            footprint_pages=288, capacity_pages=128,
            slo=TenantSlo(250.0, priority=1),
            accesses_per_tick=20, max_price=60.0,
        ),
        TenantSpec(
            "spot-batch", 20 * fleet_scale, "consumer",
            footprint_pages=352, capacity_pages=96,
            slo=TenantSlo(2_000.0, priority=0),
            accesses_per_tick=16, max_price=25.0,
        ),
    ]


def market_chaos_plan(
    specs: Sequence[TenantSpec],
    seed: int,
    ticks: int,
    tick_us: float,
) -> FaultPlan:
    """A seeded chaos schedule over the fleet's VM names.

    Fleet convention (see :mod:`repro.market.fleet`): CRASH on a VM
    name is a fail-stop + cold reboot; SLOW on ``surge:<name>`` is a
    demand surge.  Roughly 3%% of VMs crash and 6%% of producers surge,
    all inside the middle of the run so both halves of each story —
    teardown and recovery, spike and give-back — happen on screen.
    """
    gen = random.Random(derive_seed(seed, "market-chaos"))
    horizon = ticks * tick_us
    windows: List[FaultWindow] = []
    for spec in specs:
        names = [f"{spec.name}-{index:03d}" for index in range(spec.vms)]
        for name in names:
            if gen.random() < 0.03:
                start = gen.uniform(0.2, 0.5) * horizon
                length = gen.uniform(0.1, 0.25) * horizon
                windows.append(FaultWindow(
                    FaultKind.CRASH, name, start,
                    min(start + length, horizon * 0.9),
                ))
        if spec.role != "producer":
            continue
        for name in names:
            if gen.random() < 0.06:
                start = gen.uniform(0.3, 0.6) * horizon
                length = gen.uniform(0.15, 0.3) * horizon
                windows.append(FaultWindow(
                    FaultKind.SLOW, f"surge:{name}", start,
                    min(start + length, horizon * 0.95),
                    param=10.0,
                ))
    return FaultPlan(windows, seed=seed)


@dataclass
class MarketRow:
    tenant: str
    role: str
    vms: int
    priority: int
    slo_us: float
    p99_us: float
    violations: int
    faults: int
    remote_hits: int
    swap_faults: int
    deaths: int


@dataclass
class MarketResult:
    rows_data: List[MarketRow]
    total_vms: int
    ticks: int
    pages_offered: int
    pages_granted: int
    grants: int
    revocations: int
    lease_rejections: int
    vm_crashes: int
    spot_price_final: float
    invariant_violations: int

    def rows(self) -> List[Sequence[object]]:
        return [
            (row.tenant, row.role, row.vms, row.priority,
             f"{row.slo_us:.0f}", f"{row.p99_us:.1f}", row.violations,
             row.faults, row.remote_hits, row.swap_faults, row.deaths)
            for row in self.rows_data
        ]

    def table_text(self) -> str:
        table = render_table(
            ("tenant", "role", "vms", "prio", "slo µs", "p99 µs",
             "slo viol", "faults", "remote", "swap", "deaths"),
            self.rows(),
            title=(
                f"Memory marketplace: {self.total_vms} VMs, "
                f"{self.ticks} ticks"
            ),
        )
        summary = (
            f"\nMarket: {self.pages_offered} pages offered, "
            f"{self.pages_granted} granted over {self.grants} leases, "
            f"{self.revocations} revocations, "
            f"{self.lease_rejections} admissions refused, "
            f"{self.vm_crashes} crashes; final spot price "
            f"{self.spot_price_final} mcr/page.  Broker ledger audited "
            f"every market round: {self.invariant_violations} "
            "conservation violations."
        )
        return table + summary


def run_market(
    fleet_scale: int = 4,
    ticks: int = 90,
    seed: int = 42,
    chaos: bool = True,
) -> MarketResult:
    obs = default_observability()
    # The checker is NOT optional here — every run audits the ledger.
    check = CorrectnessChecker(enabled=True, obs=obs)
    specs = market_specs(fleet_scale)
    tick_us = 10_000.0
    plan = (
        market_chaos_plan(specs, seed, ticks, tick_us) if chaos else None
    )
    env = Environment()
    streams = RandomStreams(derive_seed(seed, "market"))
    broker = Broker(env, obs=obs, check=check)
    qos = QosManager(obs=obs)
    fleet = MarketFleet(
        env, specs, streams, broker, qos,
        fault_plan=plan,
        harvest_config=HarvestConfig(
            interval_us=3 * tick_us,
            spike_rate_per_ms=1.0,
            calm_rate_per_ms=0.4,
        ),
        obs=obs,
    )
    proc = env.process(
        fleet.run(ticks, tick_us=tick_us, market_every=3, check=check)
    )
    env.run()
    if not proc.ok:  # pragma: no cover - surfaced to the caller
        raise proc.value

    rows = [
        MarketRow(
            tenant=name,
            role=stats["role"],
            vms=stats["vms"],
            priority=stats["priority"],
            slo_us=stats["slo_us"],
            p99_us=stats["p99_us"],
            violations=stats["violations"],
            faults=stats["faults"],
            remote_hits=stats["remote_hits"],
            swap_faults=stats["swap_faults"],
            deaths=stats["deaths"],
        )
        for name, stats in fleet.tenant_summary().items()
    ]
    if obs.enabled:
        registry = obs.registry
        for row in rows:
            registry.gauge(
                "tenant_slo_violations_total", tenant=row.tenant
            ).set(row.violations)
        registry.gauge("market_lease_rejections").set(
            fleet.lease_rejections
        )
    broker_counters = broker.counters.as_dict()
    return MarketResult(
        rows_data=rows,
        total_vms=len(fleet.vms),
        ticks=ticks,
        pages_offered=broker_counters.get("pages_offered", 0),
        pages_granted=broker_counters.get("pages_granted", 0),
        grants=broker_counters.get("grants", 0),
        revocations=broker_counters.get("revocations", 0),
        lease_rejections=fleet.lease_rejections,
        vm_crashes=fleet.counters.as_dict().get("vm_crashes", 0),
        spot_price_final=broker.spot_price(),
        invariant_violations=len(check.violations),
    )
