"""The benchmark's four workloads, driven through the public entry points.

A workload runs in *rounds*.  One round builds everything it needs
(set-up), runs each *cell* -- one backend's workload on one freshly
built platform -- through its timed phase, checks the cell's outputs,
and reads the layers' modelled-work counters.  Every round of a run uses
the same seed, so every round must report identical modelled work; the
caller compares them (see ``run.py``).

Sizes follow the bench CLI at memory scale 1/1024.  The monitor runs the
paper configuration (one fault handler, no prefetch) explicitly, so a
later change of ``FluidMemConfig`` defaults does not silently change
what is measured.
"""

from __future__ import annotations

import gc
import resource
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.bench.fig3_latency_cdf import PAPER_FIG3_AVERAGES_US
from repro.bench.fig4_graph500 import memory_scale_for
from repro.bench.market_fleet import market_chaos_plan, market_specs
from repro.bench.platform import (
    FLUIDMEM_PLATFORMS,
    SWAP_PLATFORMS,
    build_platform,
)
from repro.check import CorrectnessChecker
from repro.core import FluidMemConfig
from repro.market import Broker, HarvestConfig, MarketFleet, QosManager
from repro.sim import Environment, RandomStreams, derive_seed
from repro.workloads import (
    Graph500,
    Graph500Config,
    KroneckerGraph,
    Pmbench,
    PmbenchConfig,
)

__all__ = ["WORKLOADS", "Round", "Workload", "cpu_seconds"]

MEMORY_SCALE = 1.0 / 1024
#: The paper's monitor: one fault handler, no prefetch.
PAPER_MONITOR = FluidMemConfig(fault_handlers=1, prefetch_pages=0)

#: pmbench (Fig 3): working set 4x local DRAM, uniform, 50 % reads.
PMBENCH_WSS_OF_DRAM = 4.0
PMBENCH_READ_RATIO = 0.5
PMBENCH_MEASURED_ACCESSES = 5_000

#: Graph500 (Fig 4a): the Fig 4 default graph at 60 % of local DRAM.
GRAPH_SCALE = 12
GRAPH_EDGEFACTOR = 16
GRAPH_BFS_ROOTS = 2
GRAPH_WSS_OF_DRAM = 0.6
FIG4A_BACKENDS = ("fluidmem-dram", "swap-dram")
#: §VI-D1: "a 2.6% slowdown" of FluidMem against swap when the graph
#: fits in local DRAM -- the one paper number not held by the repo.
PAPER_FIG4A_OVERHEAD_PCT = 2.6

#: The marketplace as ``run_market`` composes it at full size.
MARKET_FLEET_SCALE = 4
MARKET_TICKS = 30
MARKET_TICK_US = 10_000.0
MARKET_EVERY = 3


class CheckFailed(Exception):
    """A cell's output broke a promise its layers make."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Round:
    """What one round measured, checked and modelled."""

    setup_s: float = 0.0
    timed_s: float = 0.0
    timed_wall_s: float = 0.0
    #: Simulated operations retired in the timed phases.
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Modelled work: simulated, so identical in every round of a run.
    model: Dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.model[key] = self.model.get(key, 0) + value


def cpu_seconds() -> float:
    """Host CPU seconds used so far by this process and its reaped
    children.

    The benchmark times with CPU seconds, not wall seconds: on a shared
    virtual machine the wall clock also counts the time the hypervisor
    gives this machine's CPUs to other guests (steal time), which is
    noise from elsewhere, while the program is single-threaded and never
    waits on I/O in a timed phase.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Stopwatch:
    """Charges host CPU time to a round's set-up or timed phase.

    The profiler, when given, runs only around timed phases.
    """

    def __init__(self, rnd: Round, profiler=None) -> None:
        self.rnd = rnd
        self.profiler = profiler

    def setup(self, build: Callable):
        started = cpu_seconds()
        try:
            return build()
        finally:
            self.rnd.setup_s += cpu_seconds() - started

    def timed(self, work: Callable):
        gc.collect()
        profiler = self.profiler
        if profiler is not None:
            profiler.enable()
        started, wall_started = cpu_seconds(), time.perf_counter()
        try:
            return work()
        finally:
            self.rnd.timed_s += cpu_seconds() - started
            self.rnd.timed_wall_s += time.perf_counter() - wall_started
            if profiler is not None:
                profiler.disable()

    def cell(self, name: str, body: Callable[[], None]) -> None:
        """Run one cell; a cell that raises or fails a check is failed."""
        self.rnd.attempted += 1
        try:
            body()
        except Exception as exc:  # a failed cell is counted, the run goes on
            self.rnd.failed += 1
            self.rnd.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc()


def count_layers(platform, rnd: Round) -> None:
    """Add a cell's modelled work, read from the layers' counters.

    Checks the fault-path promise on FluidMem platforms: every fault
    the monitor serviced was raised by userfaultfd and answered by one
    ``wake`` ioctl.
    """
    monitor = platform.monitor
    if monitor is not None:
        faults = monitor.counters.as_dict()
        uffd = monitor.uffd.counters.as_dict()
        ioctls = monitor.ops.counters.as_dict()
        writeback = monitor.writeback.counters.as_dict()
        store = platform.store.counters.as_dict()
        expect(
            faults.get("faults", 0) == uffd.get("faults", 0)
            == ioctls.get("wake", 0),
            f"monitor faults {faults.get('faults')} != uffd faults "
            f"{uffd.get('faults')} != wake ioctls {ioctls.get('wake')}",
        )
        for key in ("faults", "zero_page_faults", "remote_reads",
                    "evictions"):
            rnd.add(f"core.monitor.{key}", faults.get(key, 0))
        rnd.add("kernel.uffd.ioctls", sum(
            count for name, count in ioctls.items()
            if name != "copy_eexist"
        ))
        for key in ("batches", "flushed", "enqueued"):
            rnd.add(f"core.writeback.{key}", writeback.get(key, 0))
        rnd.add("core.writeback.steals",
                writeback.get("steals_pending", 0)
                + writeback.get("steals_in_flight", 0))
        for key in ("reads", "writes"):
            rnd.add(f"kv.{key}", store.get(key, 0))
    if platform.mm is not None:
        mm = platform.mm.counters.as_dict()
        for key in ("major_faults", "minor_faults", "reclaimed",
                    "direct_reclaims"):
            rnd.add(f"kernel.mm.{key}", mm.get(key, 0))
        device = platform.swap_device.counters.as_dict()
        for key in ("reads", "writes"):
            rnd.add(f"blockdev.{key}", device.get(key, 0))


def finish_writeback(model: Dict[str, float]) -> None:
    """Turn the raw write-back totals into the reported ratios."""
    batches = model.pop("core.writeback.batches", 0)
    flushed = model.pop("core.writeback.flushed", 0)
    enqueued = model.pop("core.writeback.enqueued", 0)
    steals = model.pop("core.writeback.steals", 0)
    model["core.writeback.batches"] = batches
    model["core.writeback.pages_per_batch"] = (
        flushed / batches if batches else 0.0
    )
    model["core.writeback.steal_pct"] = (
        100.0 * steals / enqueued if enqueued else 0.0
    )


def pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


class Workload:
    """A named workload: ``run_round(seed, profiler)`` -> Round."""

    name = ""

    def run_round(self, seed: int, profiler=None) -> Round:
        rnd = Round()
        self._round(seed, Stopwatch(rnd, profiler), rnd)
        finish_writeback(rnd.model)
        return rnd

    def _round(self, seed: int, watch: Stopwatch, rnd: Round) -> None:
        raise NotImplementedError


class PmbenchFig3(Workload):
    """pmbench per Fig 3 on three backends."""

    def __init__(self, name: str, backends: Sequence[str]):
        self.name = name
        self.backends = tuple(backends)

    def _round(self, seed: int, watch: Stopwatch, rnd: Round) -> None:
        errors_pct: List[float] = []
        hits = faults = 0
        for backend in self.backends:
            def cell(backend=backend) -> None:
                nonlocal hits, faults
                platform = watch.setup(lambda: build_platform(
                    backend, memory_scale=MEMORY_SCALE, seed=seed,
                    fluidmem_config=PAPER_MONITOR,
                ))
                config = PmbenchConfig(
                    wss_pages=platform.shape.wss_pages(PMBENCH_WSS_OF_DRAM),
                    read_ratio=PMBENCH_READ_RATIO,
                    measured_accesses=PMBENCH_MEASURED_ACCESSES,
                )
                bench = Pmbench(
                    platform.env, platform.port, platform.workload_base,
                    config, rng=platform.streams.stream("pmbench"),
                )
                result = watch.timed(lambda: platform.run(bench.run()))
                expect(
                    result.hits + result.faults == config.measured_accesses,
                    f"{result.hits} hits + {result.faults} faults != "
                    f"{config.measured_accesses} accesses issued",
                )
                count_layers(platform, rnd)
                rnd.ops += config.wss_pages + config.measured_accesses
                hits += result.hits
                faults += result.faults
                average = result.average_latency_us
                rnd.model[f"model.{backend}.avg_us"] = average
                rnd.model[f"model.{backend}.p99_us"] = (
                    result.cdf().quantile(0.99)
                )
                paper = PAPER_FIG3_AVERAGES_US[backend]
                errors_pct.append(100.0 * abs(average - paper) / paper)
            watch.cell(backend, cell)
        rnd.model["workloads.hit_pct"] = pct(hits, hits + faults)
        rnd.model["model.paper_err_pct"] = (
            sum(errors_pct) / len(errors_pct) if errors_pct else 0.0
        )


class Graph500Fig4a(Workload):
    """Graph500 BFS per Fig 4(a): FluidMem against swap, all in DRAM."""

    name = "fig4a-graph500"

    def _round(self, seed: int, watch: Stopwatch, rnd: Round) -> None:
        graph = watch.setup(
            lambda: KroneckerGraph(GRAPH_SCALE, GRAPH_EDGEFACTOR, seed=seed)
        )
        memory_scale = memory_scale_for(graph, GRAPH_WSS_OF_DRAM)
        results = {}
        for backend in FIG4A_BACKENDS:
            def cell(backend=backend) -> None:
                platform = watch.setup(lambda: build_platform(
                    backend, memory_scale=memory_scale, seed=seed,
                    remote_factor=6, fluidmem_config=PAPER_MONITOR,
                ))
                bench = Graph500(
                    platform.env, platform.port, platform.workload_base,
                    Graph500Config(
                        scale=GRAPH_SCALE, edgefactor=GRAPH_EDGEFACTOR,
                        num_bfs_roots=GRAPH_BFS_ROOTS, seed=seed,
                    ),
                    graph=graph,
                )
                monitor = platform.monitor
                if monitor is not None:
                    hits_before = platform.port.hit_run_pages
                    faults_before = monitor.counters.as_dict()["faults"]
                result = watch.timed(lambda: platform.run(bench.run()))
                expect(
                    len(result.edges_traversed) == GRAPH_BFS_ROOTS,
                    f"{len(result.edges_traversed)} of {GRAPH_BFS_ROOTS} "
                    "BFS roots completed",
                )
                for other in results.values():
                    expect(
                        other.edges_traversed == result.edges_traversed,
                        f"edges per root differ across backends: "
                        f"{other.edges_traversed} != "
                        f"{result.edges_traversed}",
                    )
                count_layers(platform, rnd)
                if monitor is not None:
                    # The FluidMem port's hit-run diagnostics count every
                    # DRAM hit the access drivers retired; the swap port
                    # keeps no such count, so fig4a's hit share is the
                    # FluidMem cell's.
                    hits = platform.port.hit_run_pages - hits_before
                    faults = (monitor.counters.as_dict()["faults"]
                              - faults_before)
                    rnd.model["workloads.hit_pct"] = pct(hits, hits + faults)
                edges = sum(result.edges_traversed)
                rnd.ops += edges
                rnd.add("workloads.graph500.edges", edges)
                times = result.bfs_times_us
                rnd.model[f"model.{backend}.avg_us"] = sum(times) / len(times)
                rnd.model[f"model.{backend}.p99_us"] = max(times)
                results[backend] = result
            watch.cell(backend, cell)
        if len(results) == len(FIG4A_BACKENDS):
            fluid, swap = (results[name].mean_teps_millions
                           for name in FIG4A_BACKENDS)
            overhead = 100.0 * (1.0 - fluid / swap)
            rnd.model["model.fluidmem_overhead_pct"] = overhead
            rnd.model["model.paper_err_pct"] = abs(
                overhead - PAPER_FIG4A_OVERHEAD_PCT
            )


class Market(Workload):
    """The 448-VM marketplace, composed as ``run_market`` composes it."""

    name = "market"

    def _round(self, seed: int, watch: Stopwatch, rnd: Round) -> None:
        def cell() -> None:
            fleet, check, broker = watch.setup(lambda: self._build(seed))
            env = fleet.env

            def run() -> None:
                proc = env.process(fleet.run(
                    MARKET_TICKS, tick_us=MARKET_TICK_US,
                    market_every=MARKET_EVERY, check=check,
                ))
                env.run()
                if not proc.ok:
                    raise proc.value

            watch.timed(run)
            expect(not check.violations,
                   f"market checker: {len(check.violations)} violations")
            summary = fleet.tenant_summary()
            hits = sum(stats["hits"] for stats in summary.values())
            faults = sum(stats["faults"] for stats in summary.values())
            remote = sum(stats["remote_hits"] for stats in summary.values())
            violations = sum(
                stats["violations"] for stats in summary.values()
            )
            counters = broker.counters.as_dict()
            rnd.ops += hits + faults
            rnd.model.update({
                "workloads.hit_pct": pct(hits, hits + faults),
                "market.broker.grants": counters.get("grants", 0),
                "market.broker.revocations": counters.get("revocations", 0),
                "market.grant_pct": pct(counters.get("pages_granted", 0),
                                        counters.get("pages_offered", 0)),
                "market.lease_rejections": fleet.lease_rejections,
                "market.vm_crashes":
                    fleet.counters.as_dict().get("vm_crashes", 0),
                "market.qos.slo_violations": violations,
                "market.remote_hit_pct": pct(remote, faults),
                "check.violations": len(check.violations),
            })
        watch.cell("market", cell)

    @staticmethod
    def _build(seed: int):
        specs = market_specs(MARKET_FLEET_SCALE)
        plan = market_chaos_plan(specs, seed, MARKET_TICKS, MARKET_TICK_US)
        env = Environment()
        check = CorrectnessChecker(enabled=True)
        broker = Broker(env, check=check)
        fleet = MarketFleet(
            env, specs, RandomStreams(derive_seed(seed, "market")),
            broker, QosManager(), fault_plan=plan,
            harvest_config=HarvestConfig(
                interval_us=MARKET_EVERY * MARKET_TICK_US,
                spike_rate_per_ms=1.0,
                calm_rate_per_ms=0.4,
            ),
        )
        return fleet, check, broker


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        PmbenchFig3("fig3-fluidmem", FLUIDMEM_PLATFORMS),
        PmbenchFig3("fig3-swap", SWAP_PLATFORMS),
        Graph500Fig4a(),
        Market(),
    )
}
