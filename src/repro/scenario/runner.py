"""Compile a validated :class:`Scenario` onto the stack and run it.

Each scenario kind maps onto an existing engine:

``single-vm``
    :func:`repro.bench.platform.build_platform` + a
    :class:`~repro.workloads.Pmbench` measurement pass, with the
    scenario's policy combo compiled into a
    :class:`~repro.core.FluidMemConfig` and its fault plan passed to
    the platform builder.
``cluster``
    :func:`repro.bench.cluster_scaleout.run_cluster`.
``market``
    :func:`repro.bench.market_fleet.run_market`, in one process (the
    broker's invariant audit always runs).
``fleet``
    the scenario-owned engine in :mod:`repro.scenario.workloads`,
    fanned out over :func:`repro.parallel.run_tasks` (``--workers``).

The outcome's ``report`` is the ``repro-scenario-metrics/1`` document:
scenario identity, flat KPIs, and per-group breakdowns.  Nothing in it
depends on wall-clock time or worker count — that is the byte-identity
contract the tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core import FluidMemConfig
from ..obs import NULL_OBS, EventTracer, Observability
from ..parallel import run_tasks
from .schema import REPORT_SCHEMA, Scenario
from .workloads import (
    fleet_payloads,
    histogram_percentile,
    merge_block_results,
    run_fleet_block,
)

__all__ = ["ScenarioOutcome", "run_scenario"]


@dataclass
class ScenarioOutcome:
    """One completed scenario run: the KPI report plus its trace."""

    scenario: Scenario
    report: Dict[str, object]
    tracer: Optional[EventTracer] = None

    @property
    def kpis(self) -> Dict[str, object]:
        return self.report["kpis"]


def _round6(value: float) -> float:
    """Fixed rounding for every float KPI: one canonical repr per
    value, so reports diff cleanly and byte-identity pins hold."""
    return round(float(value), 6)


def _base_report(scenario: Scenario, quick: bool) -> Dict[str, object]:
    return {
        "schema": REPORT_SCHEMA,
        "scenario": scenario.name,
        "kind": scenario.kind,
        "seed": scenario.seed,
        "quick": quick,
        "description": scenario.description,
    }


# ---------------------------------------------------------------------------
# single-vm
# ---------------------------------------------------------------------------

def _run_single_vm(
    scenario: Scenario, quick: bool, obs: Observability
) -> Dict[str, object]:
    from ..bench.platform import build_platform
    from ..workloads import Pmbench, PmbenchConfig

    spec = scenario.single_vm
    policy = scenario.policy
    config = FluidMemConfig(
        alloc_policy=policy.alloc,
        prefetch_policy=policy.prefetch,
        prefetch_pages=policy.prefetch_pages,
        fault_handlers=policy.fault_handlers,
    )
    platform = build_platform(
        spec.platform,
        memory_scale=1.0 / spec.memory_scale_denom,
        seed=scenario.seed,
        remote_factor=spec.remote_factor,
        fluidmem_config=config,
        faults=spec.fault_plan,
        obs=obs,
    )
    accesses = spec.quick_accesses if quick else spec.accesses
    bench = Pmbench(
        platform.env,
        platform.port,
        platform.workload_base,
        PmbenchConfig(
            wss_pages=platform.shape.wss_pages(spec.wss_dram_fraction),
            read_ratio=spec.read_ratio,
            measured_accesses=accesses,
        ),
        rng=platform.streams.stream("pmbench"),
    )
    result = platform.run(bench.run())
    samples = sorted(result.all_samples)
    total = result.hits + result.faults

    def percentile(fraction: float) -> float:
        if not samples:
            return 0.0
        index = min(len(samples) - 1, int(fraction * len(samples)))
        return samples[index]

    report = _base_report(scenario, quick)
    report["kpis"] = {
        "accesses": total,
        "hits": result.hits,
        "faults": result.faults,
        "hit_pct": _round6(100.0 * result.hit_fraction),
        "avg_latency_us": _round6(result.average_latency_us),
        "p50_latency_us": _round6(percentile(0.50)),
        "p99_latency_us": _round6(percentile(0.99)),
    }
    report["groups"] = {
        "platform": {
            spec.platform: {
                "fault_plan": spec.fault_plan or "none",
                "alloc": policy.alloc,
                "prefetch": policy.prefetch,
            }
        }
    }
    return report


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------

def _run_cluster(
    scenario: Scenario, quick: bool
) -> Dict[str, object]:
    from ..bench.cluster_scaleout import run_cluster

    spec = scenario.cluster
    result = run_cluster(
        pages=spec.quick_pages if quick else spec.pages,
        max_nodes=spec.max_nodes,
        replication=spec.replication,
        seed=scenario.seed,
    )
    final = result.rows_data[-1]
    report = _base_report(scenario, quick)
    report["kpis"] = {
        "nodes": spec.max_nodes,
        "total_keys": result.total_keys,
        "final_balance_ratio": _round6(final.ratio),
        "keys_moved": sum(row.keys_moved for row in result.rows_data),
        "recovery_us": _round6(result.recovery_us),
        "keys_re_replicated": result.keys_re_replicated,
        "keys_lost": result.keys_lost,
        "read_back_ok": result.read_back_ok,
    }
    report["groups"] = {
        "scaleout": {
            str(row.nodes): {
                "balance_ratio": _round6(row.ratio),
                "keys_moved": row.keys_moved,
                "settle_us": _round6(row.settle_us),
            }
            for row in result.rows_data
        }
    }
    return report


# ---------------------------------------------------------------------------
# market
# ---------------------------------------------------------------------------

def _run_market(scenario: Scenario, quick: bool) -> Dict[str, object]:
    from ..bench.market_fleet import run_market

    spec = scenario.market
    result = run_market(
        fleet_scale=spec.quick_fleet_scale if quick else spec.fleet_scale,
        ticks=spec.quick_ticks if quick else spec.ticks,
        seed=scenario.seed,
        chaos=spec.chaos,
    )
    report = _base_report(scenario, quick)
    report["kpis"] = {
        "vms": result.total_vms,
        "ticks": result.ticks,
        "faults": sum(row.faults for row in result.rows_data),
        "remote_hits": sum(row.remote_hits for row in result.rows_data),
        "swap_faults": sum(row.swap_faults for row in result.rows_data),
        "deaths": sum(row.deaths for row in result.rows_data),
        "slo_violations": sum(
            row.violations for row in result.rows_data
        ),
        "pages_granted": result.pages_granted,
        "grants": result.grants,
        "revocations": result.revocations,
        "lease_rejections": result.lease_rejections,
        "vm_crashes": result.vm_crashes,
        "spot_price_final": _round6(result.spot_price_final),
        "invariant_violations": result.invariant_violations,
    }
    report["groups"] = {
        "tenant": {
            row.tenant: {
                "role": row.role,
                "vms": row.vms,
                "p99_us": _round6(row.p99_us),
                "slo_violations": row.violations,
                "faults": row.faults,
                "remote_hits": row.remote_hits,
                "swap_faults": row.swap_faults,
                "deaths": row.deaths,
            }
            for row in result.rows_data
        }
    }
    return report


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------

def _run_fleet(
    scenario: Scenario, quick: bool, workers: int,
    tracer: Optional[EventTracer],
) -> Dict[str, object]:
    spec = scenario.fleet
    payloads = fleet_payloads(
        spec, scenario.seed, quick, scenario.invariants
    )
    results = run_tasks(
        run_fleet_block, payloads, workers=workers, seed=scenario.seed
    )
    merged = merge_block_results(results, spec, quick)

    ticks = spec.tick_count(quick)
    per_tick: List[int] = merged["per_tick_faults"]
    tenants: Dict[str, Dict[str, int]] = merged["tenants"]
    accesses = sum(stats["accesses"] for stats in tenants.values())
    hits = sum(stats["hits"] for stats in tenants.values())
    faults = sum(stats["faults"] for stats in tenants.values())
    peak = max(per_tick) if per_tick else 0
    mean = faults / ticks if ticks else 0.0

    if tracer is not None:
        _replay_fleet_trace(tracer, spec.tick_us, per_tick,
                            merged["events"])

    report = _base_report(scenario, quick)
    report["kpis"] = {
        "vms": sum(stats["vms"] for stats in tenants.values()),
        "ticks": ticks,
        "accesses": accesses,
        "hits": hits,
        "faults": faults,
        "hit_pct": _round6(100.0 * hits / accesses if accesses else 0.0),
        "first_touches": sum(
            stats["first_touches"] for stats in tenants.values()
        ),
        "swap_faults": sum(
            stats["swap_faults"] for stats in tenants.values()
        ),
        "deaths": sum(stats["deaths"] for stats in tenants.values()),
        "surge_ticks": sum(
            stats["surge_ticks"] for stats in tenants.values()
        ),
        "p50_latency_us": _round6(
            histogram_percentile(merged["histogram"], 0.50)
        ),
        "p99_latency_us": _round6(
            histogram_percentile(merged["histogram"], 0.99)
        ),
        "peak_tick_faults": peak,
        "mean_tick_faults": _round6(mean),
        "peak_to_mean": _round6(peak / mean if mean else 0.0),
        "invariant_audits": merged["audits"],
    }
    report["groups"] = {
        "tenant": {
            name: {
                "vms": stats["vms"],
                "accesses": stats["accesses"],
                "hits": stats["hits"],
                "faults": stats["faults"],
                "hit_pct": _round6(
                    100.0 * stats["hits"] / stats["accesses"]
                    if stats["accesses"] else 0.0
                ),
                "swap_faults": stats["swap_faults"],
                "deaths": stats["deaths"],
                "surge_ticks": stats["surge_ticks"],
            }
            for name, stats in tenants.items()
        }
    }
    return report


def _replay_fleet_trace(
    tracer: EventTracer,
    tick_us: float,
    per_tick_faults: List[int],
    events: List[Tuple[int, str, str]],
) -> None:
    """Rebuild the merged run as a replayable event trace.

    The blocks already merged deterministically, so the parent can
    emit one canonical trace regardless of how the fleet was split.
    """
    for tick, count in enumerate(per_tick_faults):
        tracer.instant(
            "tick", tick * tick_us, cat="fleet", track="fleet",
            tick=tick, faults=count,
        )
    for tick, kind, vm in events:
        tracer.instant(
            kind, tick * tick_us, cat="chaos", track="chaos", vm=vm,
        )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_scenario(
    scenario: Scenario,
    quick: bool = False,
    workers: int = 1,
    obs: Optional[Observability] = None,
) -> ScenarioOutcome:
    """Run one scenario and assemble its KPI report.

    ``workers`` parallelizes ``fleet`` scenarios over the process pool;
    it is an execution detail: the report is byte-identical at any
    value.  Every other kind runs in this process.
    """
    from ..bench.platform import (
        default_observability,
        set_default_observability,
    )

    tracer: Optional[EventTracer] = None
    if obs is None:
        if scenario.trace_enabled:
            tracer = EventTracer()
            obs = Observability(tracer=tracer)
        else:
            obs = NULL_OBS
    else:
        tracer = obs.tracer if obs.enabled else None

    previous = default_observability()
    set_default_observability(obs)
    try:
        if scenario.kind == "single-vm":
            report = _run_single_vm(scenario, quick, obs)
        elif scenario.kind == "cluster":
            report = _run_cluster(scenario, quick)
        elif scenario.kind == "market":
            report = _run_market(scenario, quick)
        else:
            report = _run_fleet(scenario, quick, workers, tracer)
    finally:
        set_default_observability(previous)
    return ScenarioOutcome(
        scenario=scenario, report=report, tracer=tracer
    )
