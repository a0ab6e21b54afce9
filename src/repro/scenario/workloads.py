"""The scenario fleet engine: many small VMs, declarative behavior.

The ``fleet`` scenario kind runs a fleet of lightweight VMs whose
access pattern (Zipfian / uniform / sweep / mixed), load profile
(constant / diurnal with spikes), and chaos (seeded crash and surge
windows) all come from the scenario document — no per-workload Python.
Each VM keeps its resident pages on a real kernel
:class:`~repro.kernel.ActiveInactiveLists` (the same aging mechanism
:mod:`repro.market` fleets use), so hit rates emerge from second-chance
reclaim rather than being declared, and faults are charged the market
fleet's modeled latencies (``FIRST_TOUCH_US`` and ``SWAP_FAULT_US``,
defined once in :mod:`repro.market.fleet`).

Determinism is the contract.  A VM's RNG is derived from its *name*
(``derive_seed(seed, "vm:<name>")``), its chaos windows from
``derive_seed(seed, "chaos:<name>")``, and all cross-VM aggregation is
integer-only (counts and fixed log-bucket latency histograms), so any
partitioning of the fleet over :func:`repro.parallel.run_tasks` workers
merges to byte-identical results.  :func:`run_fleet_block` is the
module-level worker entry point: a pure function of its payload.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from ..errors import InvariantViolation
from ..kernel import ActiveInactiveLists
from ..market.fleet import FIRST_TOUCH_US, SWAP_FAULT_US
from ..mem import PAGE_SIZE, Page
from ..sim import derive_seed
from ..workloads.ycsb import ZipfianGenerator
from .schema import FleetChaosSpec, FleetSpec, FleetTenantSpec

__all__ = [
    "LATENCY_BUCKETS_US",
    "FleetVM",
    "fleet_vm_names",
    "fleet_payloads",
    "run_fleet_block",
    "merge_block_results",
    "histogram_percentile",
]

#: Per-tick fault queueing: every earlier fault in the same tick adds
#: 2% service delay, capped at 4x — a deterministic stand-in for fault
#: handler contention under bursty load.
_QUEUE_SLOPE = 0.02
_QUEUE_CAP = 3.0

#: Fixed log2 bucket upper edges (µs) for fault latencies.  Integer
#: counts per bucket merge across workers by plain addition, which is
#: what keeps reports byte-identical at any worker count.
LATENCY_BUCKETS_US = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
    256.0, 512.0, 1024.0, 2048.0,
)


def _bucket_index(latency_us: float) -> int:
    for index, edge in enumerate(LATENCY_BUCKETS_US):
        if latency_us <= edge:
            return index
    return len(LATENCY_BUCKETS_US) - 1


def histogram_percentile(counts: List[int], fraction: float) -> float:
    """The bucket upper edge covering the ``fraction`` quantile."""
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = fraction * total
    seen = 0
    for index, count in enumerate(counts):
        seen += count
        if seen >= rank:
            return LATENCY_BUCKETS_US[index]
    return LATENCY_BUCKETS_US[-1]


# ---------------------------------------------------------------------------
# Chaos windows
# ---------------------------------------------------------------------------

def _chaos_windows(
    seed: int, name: str, chaos: FleetChaosSpec, ticks: int
) -> Tuple[Optional[Tuple[int, int]], Optional[Tuple[int, int]]]:
    """This VM's (crash, surge) tick windows, or ``None`` for each.

    Derived from the VM's *name*, never from fleet position, so any
    partitioning of the fleet replays identical chaos.  The draw order
    is fixed (crash decision, crash shape, surge decision, surge shape)
    so a window's placement depends only on seed + name + durations.
    """
    rng = random.Random(derive_seed(seed, f"chaos:{name}"))
    crash = surge = None
    crash_roll = rng.random()
    start = 1 + rng.randrange(max(1, ticks - 1))
    duration = 1 + rng.randrange(max(1, ticks // 8))
    if chaos.crash_fraction > 0 and crash_roll < chaos.crash_fraction:
        crash = (start, min(ticks, start + duration))
    surge_roll = rng.random()
    start = 1 + rng.randrange(max(1, ticks - 1))
    duration = 2 + rng.randrange(max(1, ticks // 4))
    if chaos.surge_fraction > 0 and surge_roll < chaos.surge_fraction:
        surge = (start, min(ticks, start + duration))
    return crash, surge


def _covers(window: Optional[Tuple[int, int]], tick: int) -> bool:
    return window is not None and window[0] <= tick < window[1]


# ---------------------------------------------------------------------------
# The VM
# ---------------------------------------------------------------------------

class FleetVM:
    """One scenario-fleet VM: declared pattern over a real aging LRU."""

    def __init__(
        self,
        name: str,
        spec: FleetTenantSpec,
        seed: int,
        ticks: int,
        chaos: FleetChaosSpec,
    ) -> None:
        self.name = name
        self.spec = spec
        self.rng = random.Random(derive_seed(seed, f"vm:{name}"))
        self.lists = ActiveInactiveLists()
        self.pages: Dict[int, Page] = {}
        self.dead = False
        self.surging = False
        pattern = spec.pattern
        self.zipf: Optional[ZipfianGenerator] = None
        if pattern.kind in ("zipfian", "mixed"):
            self.zipf = ZipfianGenerator(
                spec.footprint_pages, self.rng, theta=pattern.theta
            )
        self._sweep_pos = 0
        self.crash_window, self.surge_window = _chaos_windows(
            seed, name, chaos, ticks
        )
        # Integer counters only: cross-worker merges must be exact.
        self.accesses = 0
        self.hits = 0
        self.faults = 0
        self.first_touches = 0
        self.swap_faults = 0
        self.deaths = 0
        self.surge_ticks = 0

    # -- pattern draws ------------------------------------------------------

    def _next_page(self, tick: int) -> int:
        pattern = self.spec.pattern
        footprint = self.spec.footprint_pages
        if self.surging:
            return self.rng.randrange(footprint)
        if pattern.kind == "zipfian":
            return self.zipf.next() % footprint
        if pattern.kind == "uniform":
            return self.rng.randrange(footprint)
        if pattern.kind == "mixed":
            if self.rng.random() < pattern.zipf_fraction:
                return self.zipf.next() % footprint
            return self.rng.randrange(footprint)
        # sweep: a strided pass over the footprint, the ML-training
        # shape — every page is equally cold by the time it comes back.
        page = self._sweep_pos
        self._sweep_pos = (self._sweep_pos + pattern.stride) % footprint
        return page

    def _load_multiplier(self, tick: int) -> float:
        load = self.spec.load
        multiplier = 1.0
        if load.kind == "diurnal":
            phase = 2.0 * math.pi * tick / load.period_ticks
            multiplier += (load.peak_multiplier - 1.0) * (
                0.5 - 0.5 * math.cos(phase)
            )
        for spike in load.spikes:
            if spike.covers(tick):
                multiplier *= spike.multiplier
        return multiplier

    # -- lifecycle ----------------------------------------------------------

    def _crash(self) -> None:
        self.dead = True
        self.deaths += 1
        self.lists = ActiveInactiveLists()
        self.pages.clear()

    # -- the tick -----------------------------------------------------------

    def run_tick(
        self, tick: int, histogram: List[int],
        events: List[Tuple[int, str, str]],
    ) -> int:
        """One tick of accesses; returns this VM's fault count."""
        if _covers(self.crash_window, tick):
            if not self.dead:
                self._crash()
                events.append((tick, "crash", self.name))
            return 0
        if self.dead:
            self.dead = False
            events.append((tick, "reboot", self.name))
        surging = _covers(self.surge_window, tick)
        if surging and not self.surging:
            events.append((tick, "surge-start", self.name))
        elif self.surging and not surging:
            events.append((tick, "surge-end", self.name))
        self.surging = surging
        if surging:
            self.surge_ticks += 1
        rate = self.spec.accesses_per_tick * self._load_multiplier(tick)
        if surging:
            rate *= 2.0
        accesses = max(1, int(round(rate)))
        if self._sweep_shuffle_due(tick):
            self._sweep_pos = self.rng.randrange(self.spec.footprint_pages)
        lists = self.lists
        pages = self.pages
        capacity = self.spec.capacity_pages
        faults_this_tick = 0
        for _ in range(accesses):
            self.accesses += 1
            vaddr = self._next_page(tick) * PAGE_SIZE
            page = pages.get(vaddr)
            if page is not None and page in lists:
                page.read()
                self.hits += 1
                continue
            self.faults += 1
            queue = 1.0 + min(
                _QUEUE_CAP, _QUEUE_SLOPE * faults_this_tick
            )
            faults_this_tick += 1
            if page is None:
                page = Page(vaddr)
                pages[vaddr] = page
                latency = FIRST_TOUCH_US
                self.first_touches += 1
            else:
                latency = SWAP_FAULT_US * queue
                self.swap_faults += 1
            if len(lists) >= capacity:
                self._evict_to(capacity - 1)
            lists.insert(page)
            page.read()
            histogram[_bucket_index(latency)] += 1
        return faults_this_tick

    def _sweep_shuffle_due(self, tick: int) -> bool:
        pattern = self.spec.pattern
        return (
            pattern.kind == "sweep"
            and pattern.shuffle_every_ticks > 0
            and tick > 0
            and tick % pattern.shuffle_every_ticks == 0
        )

    def _evict_to(self, target: int) -> None:
        while len(self.lists) > target:
            victims = self.lists.select_victims(len(self.lists) - target)
            if not victims:
                victims = self.lists.select_victims(
                    len(self.lists) - target, scan_limit_factor=64
                )
                if not victims:  # pragma: no cover - defensive
                    break

    # -- self-audit ---------------------------------------------------------

    def audit(self) -> int:
        """Check this VM's bookkeeping invariants; returns audit count."""
        if len(self.lists) > self.spec.capacity_pages:
            raise InvariantViolation(
                "fleet-residency",
                f"VM {self.name} holds {len(self.lists)} resident pages "
                f"over capacity {self.spec.capacity_pages}",
                details={"vm": self.name, "resident": len(self.lists)},
            )
        if self.hits + self.faults != self.accesses:
            raise InvariantViolation(
                "fleet-access-accounting",
                f"VM {self.name}: hits ({self.hits}) + faults "
                f"({self.faults}) != accesses ({self.accesses})",
                details={"vm": self.name},
            )
        if self.first_touches + self.swap_faults != self.faults:
            raise InvariantViolation(
                "fleet-fault-accounting",
                f"VM {self.name}: first touches ({self.first_touches}) + "
                f"swap faults ({self.swap_faults}) != faults "
                f"({self.faults})",
                details={"vm": self.name},
            )
        return 3


# ---------------------------------------------------------------------------
# Parallel blocks
# ---------------------------------------------------------------------------

def fleet_vm_names(
    spec: FleetSpec, quick: bool
) -> List[Tuple[FleetTenantSpec, str]]:
    """The full fleet in canonical order: tenant order, then index."""
    out: List[Tuple[FleetTenantSpec, str]] = []
    for tenant in spec.tenants:
        for index in range(tenant.vm_count(quick)):
            out.append((tenant, f"{tenant.name}-{index:03d}"))
    return out


def fleet_payloads(
    spec: FleetSpec, seed: int, quick: bool, invariants: bool
) -> List[Dict[str, object]]:
    """Fixed-size VM blocks for :func:`repro.parallel.run_tasks`.

    Block boundaries depend only on the scenario (``block_vms``), never
    on the worker count, so the same blocks merge in the same order at
    any parallelism.
    """
    vms = fleet_vm_names(spec, quick)
    payloads = []
    for start in range(0, len(vms), spec.block_vms):
        payloads.append({
            "seed": seed,
            "ticks": spec.tick_count(quick),
            "chaos": spec.chaos,
            "invariants": invariants,
            "vms": vms[start:start + spec.block_vms],
        })
    return payloads


def run_fleet_block(payload: Dict[str, object]) -> Dict[str, object]:
    """Simulate one block of VMs for the whole run (worker entry).

    Pure function of the payload: every VM's RNG and chaos windows are
    derived from the scenario seed and the VM's name, so this block
    produces identical results whether it runs in the parent, a worker
    process, or a different partitioning entirely.
    """
    seed = payload["seed"]
    ticks = payload["ticks"]
    chaos = payload["chaos"]
    vms = [
        FleetVM(name, tenant, seed, ticks, chaos)
        for tenant, name in payload["vms"]
    ]
    histogram = [0] * len(LATENCY_BUCKETS_US)
    events: List[Tuple[int, str, str]] = []
    per_tick_faults = [0] * ticks
    for tick in range(ticks):
        for vm in vms:
            per_tick_faults[tick] += vm.run_tick(tick, histogram, events)
    audits = 0
    if payload["invariants"]:
        for vm in vms:
            audits += vm.audit()
    tenants: Dict[str, Dict[str, int]] = {}
    for vm in vms:
        stats = tenants.setdefault(vm.spec.name, {
            "vms": 0, "accesses": 0, "hits": 0, "faults": 0,
            "first_touches": 0, "swap_faults": 0, "deaths": 0,
            "surge_ticks": 0,
        })
        stats["vms"] += 1
        stats["accesses"] += vm.accesses
        stats["hits"] += vm.hits
        stats["faults"] += vm.faults
        stats["first_touches"] += vm.first_touches
        stats["swap_faults"] += vm.swap_faults
        stats["deaths"] += vm.deaths
        stats["surge_ticks"] += vm.surge_ticks
    return {
        "per_tick_faults": per_tick_faults,
        "histogram": histogram,
        "tenants": tenants,
        "events": events,
        "audits": audits,
    }


def merge_block_results(
    results: List[Dict[str, object]], spec: FleetSpec, quick: bool
) -> Dict[str, object]:
    """Fold block results (in task order) into one fleet result.

    Everything merged here is an integer count, and events are sorted
    by (tick, vm, kind), so the merge is independent of both worker
    count and block boundaries.
    """
    ticks = spec.tick_count(quick)
    per_tick_faults = [0] * ticks
    histogram = [0] * len(LATENCY_BUCKETS_US)
    tenants: Dict[str, Dict[str, int]] = {}
    events: List[Tuple[int, str, str]] = []
    audits = 0
    for result in results:
        for tick, count in enumerate(result["per_tick_faults"]):
            per_tick_faults[tick] += count
        for index, count in enumerate(result["histogram"]):
            histogram[index] += count
        for name, stats in result["tenants"].items():
            merged = tenants.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                merged[key] += value
        events.extend(tuple(event) for event in result["events"])
        audits += result["audits"]
    events.sort(key=lambda event: (event[0], event[2], event[1]))
    # Tenant order from the scenario, not dict insertion across blocks.
    ordered = {
        tenant.name: tenants[tenant.name]
        for tenant in spec.tenants if tenant.name in tenants
    }
    return {
        "per_tick_faults": per_tick_faults,
        "histogram": histogram,
        "tenants": ordered,
        "events": events,
        "audits": audits,
    }
