"""Policy tournament: race every (prefetch x handlers) combo across
three workloads and rank them.

The policy lab (``repro.policy``) makes the memory-management brain
pluggable; this experiment is the harness that decides which brain to
ship.  Quick and full mode race the same combos; only the workload
sizes differ.  Every combo runs the same three workloads:

* **pmbench** — uniform-random accesses against ``fluidmem-dram``
  (Figure 3's microbenchmark; punishes wasteful prefetch).
* **graph500** — BFS over a Kronecker graph at WSS 120 % of DRAM
  (Figure 4's point (b); mixed locality).
* **market** — a custom 3-VM stack over ONE monitor: a Zipfian
  tenant, a strided scanner (stride 3 — Leap's majority-trend finds
  it, a fixed +1 prefetcher cannot), and a uniform mixer.  This is the
  cell where handler concurrency matters: three vCPUs fault at once.

Cells fan out over the :mod:`repro.parallel` pool (``--workers N``) and
are merged in task-key order, so the ranked report is **byte-identical
at any worker count**.  Each cell builds its whole simulation from the
payload (explicit seeds, no ambient observability), so a cell computes
the same bytes whether it runs in-process or in a worker.

Ranking: ascending mean fault-latency p99 across the three workloads,
ties broken by mean p50, then combo label.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core import FluidMemConfig, FluidMemoryPort, Monitor
from ..kernel import UffdLatency, UffdOps, Userfaultfd
from ..kv import DramStore
from ..mem import PAGE_SIZE, FrameAllocator
from ..obs import NULL_OBS
from ..parallel import run_tasks
from ..policy.registry import PREFETCH_POLICIES, PolicyCombo
from ..sim import Environment, RandomStreams
from ..vm import GuestVM, QemuProcess
from ..workloads import Graph500, Graph500Config, KroneckerGraph, \
    Pmbench, PmbenchConfig
from .fig4_graph500 import memory_scale_for
from .platform import build_platform, default_fault_plan, \
    default_observability
from .reporting import render_table

__all__ = [
    "TOURNAMENT_WORKLOADS",
    "HANDLER_COUNTS",
    "TournamentResult",
    "run_tournament_cell",
    "run_tournament",
]

TOURNAMENT_WORKLOADS = ("pmbench", "graph500", "market")

HANDLER_COUNTS = (1, 4)


def _cell_config(prefetch: str, handlers: int) -> FluidMemConfig:
    return FluidMemConfig(
        prefetch_policy=prefetch,
        prefetch_pages=0 if prefetch == "none" else 4,
        fault_handlers=handlers,
    )


def _collect(
    payload: Dict[str, object],
    monitor: Monitor,
    sim_time_us: float,
) -> Dict[str, object]:
    combo = PolicyCombo(
        prefetch=payload["prefetch"],  # type: ignore[arg-type]
        handlers=payload["handlers"],  # type: ignore[arg-type]
    )
    counters = monitor.counters.as_dict()
    recorder = monitor.fault_latency
    return {
        "workload": payload["workload"],
        "combo": combo.label,
        "prefetch": combo.prefetch,
        "handlers": combo.handlers,
        "faults": counters.get("faults", 0),
        "lru_hits": counters.get("lru_hits", 0),
        "p50_us": round(recorder.percentile(50.0), 3)
        if recorder.count else 0.0,
        "p99_us": round(recorder.percentile(99.0), 3)
        if recorder.count else 0.0,
        "prefetches_issued": counters.get("prefetches_issued", 0),
        "prefetch_hits": counters.get("prefetch_hits", 0),
        "prefetches_wasted": counters.get("prefetches_wasted", 0),
        "sim_time_us": round(sim_time_us, 3),
    }


def _run_pmbench_cell(payload: Dict[str, object]) -> Dict[str, object]:
    quick = payload["quick"]
    seed = payload["seed"]
    config = _cell_config(payload["prefetch"], payload["handlers"])
    platform = build_platform(
        "fluidmem-dram",
        memory_scale=1.0 / 1024,
        seed=seed,
        fluidmem_config=config,
        faults=payload["faults"],
        obs=NULL_OBS,
    )
    bench = Pmbench(
        platform.env,
        platform.port,
        platform.workload_base,
        PmbenchConfig(
            wss_pages=platform.shape.wss_pages(2.0),
            read_ratio=0.5,
            measured_accesses=400 if quick else 4000,
        ),
        rng=platform.streams.stream("pmbench"),
    )
    platform.run(bench.run())
    return _collect(payload, platform.monitor, platform.env.now)


def _run_graph500_cell(payload: Dict[str, object]) -> Dict[str, object]:
    quick = payload["quick"]
    seed = payload["seed"]
    config = _cell_config(payload["prefetch"], payload["handlers"])
    scale = 8 if quick else 10
    edgefactor = 8 if quick else 16
    graph = KroneckerGraph(scale, edgefactor, seed=seed)
    platform = build_platform(
        "fluidmem-dram",
        memory_scale=memory_scale_for(graph, 1.2),
        seed=seed,
        fluidmem_config=config,
        faults=payload["faults"],
        obs=NULL_OBS,
    )
    bench = Graph500(
        platform.env,
        platform.port,
        platform.workload_base,
        Graph500Config(
            scale=scale,
            edgefactor=edgefactor,
            num_bfs_roots=1 if quick else 2,
            seed=seed,
        ),
        graph=graph,
    )
    platform.run(bench.run())
    return _collect(payload, platform.monitor, platform.env.now)


def _tenant(env, port, base: int, pattern, accesses: int):
    """One tenant vCPU: drive ``accesses`` page touches through the
    FluidMem port (fastpath on LRU hits, full fault path on misses)."""
    for index in range(accesses):
        page, is_write = pattern(index)
        vaddr = base + page * PAGE_SIZE
        if not port.try_access(vaddr, is_write=is_write):
            yield from port.fault(vaddr, is_write)


def _run_market_cell(payload: Dict[str, object]) -> Dict[str, object]:
    """Three VMs on ONE monitor: the handler-concurrency showcase.

    This cell builds the stack by hand (not :func:`build_platform`,
    which is one-VM-per-monitor) and ignores fault plans — its point is
    contention, not resilience.
    """
    quick = payload["quick"]
    seed = payload["seed"]
    config = _cell_config(payload["prefetch"], payload["handlers"])
    accesses = 300 if quick else 2500
    wss = 192 if quick else 384
    lru_cap = 96 if quick else 128

    env = Environment()
    streams = RandomStreams(seed=seed)
    uffd = Userfaultfd(env, UffdLatency(), streams.stream("uffd"))
    frames = FrameAllocator(16384)
    ops = UffdOps(env, UffdLatency(), streams.stream("ops"), frames)
    monitor = Monitor(
        env, uffd, ops,
        config=dataclasses.replace(config, lru_capacity_pages=lru_cap),
        rng=streams.stream("monitor"),
        name="tournament-market",
    )
    monitor.start()

    zipf_rng = streams.stream("zipf")
    mix_rng = streams.stream("mix")
    patterns = (
        # Zipfian-ish skew: most touches land on the lowest pages.
        lambda i: (int(wss * (zipf_rng.random() ** 4)), i % 4 == 0),
        # Stride-3 scan: Leap learns the +3 trend; sequential +1..+4
        # prefetch fetches mostly-wrong neighbours.
        lambda i: ((i * 3) % wss, False),
        # Uniform mixer.
        lambda i: (mix_rng.randrange(wss), i % 2 == 0),
    )
    processes = []
    for index, pattern in enumerate(patterns):
        vm = GuestVM(
            env, f"tenant{index}", memory_bytes=2 * wss * PAGE_SIZE
        )
        qemu = QemuProcess(vm)
        registration = monitor.register_vm(
            qemu, DramStore(env), partition=index
        )
        port = FluidMemoryPort(env, vm, qemu, monitor, registration)
        vm.attach_port(port)
        processes.append(
            env.process(_tenant(env, port, 0, pattern, accesses))
        )
    env.run()
    return _collect(payload, monitor, env.now)


_CELL_RUNNERS = {
    "pmbench": _run_pmbench_cell,
    "graph500": _run_graph500_cell,
    "market": _run_market_cell,
}


def run_tournament_cell(payload: Dict[str, object]) -> Dict[str, object]:
    """One (combo, workload) cell — module-level so the parallel pool
    can pickle it; a pure function of its payload."""
    return _CELL_RUNNERS[payload["workload"]](payload)


@dataclass
class TournamentResult:
    """Every cell plus the cross-workload ranking."""

    cells: List[Dict[str, object]]
    ranking: List[Dict[str, object]]
    quick: bool
    seed: int
    workers: int

    @property
    def winner(self) -> str:
        return self.ranking[0]["combo"]  # type: ignore[return-value]

    def rows(self) -> List[Sequence[object]]:
        out = []
        for entry in self.ranking:
            out.append((
                entry["rank"],
                entry["combo"],
                entry["mean_p99_us"],
                entry["mean_p50_us"],
                entry["faults"],
                entry["prefetch_hit_pct"],
            ))
        return out

    def table_text(self) -> str:
        return render_table(
            ("rank", "combo", "mean p99 us", "mean p50 us", "faults",
             "pf hit %"),
            self.rows(),
            title="Policy tournament: prefetch+handlers, ranked by mean "
                  "fault p99",
        )


def _rank(cells: List[Dict[str, object]]) -> List[Dict[str, object]]:
    per_combo: Dict[str, List[Dict[str, object]]] = {}
    for cell in cells:
        per_combo.setdefault(cell["combo"], []).append(cell)  # type: ignore[arg-type]
    entries = []
    for label, group in per_combo.items():
        count = len(group)
        issued = sum(c["prefetches_issued"] for c in group)
        hits = sum(c["prefetch_hits"] for c in group)
        entries.append({
            "combo": label,
            "mean_p99_us": round(
                sum(c["p99_us"] for c in group) / count, 3
            ),
            "mean_p50_us": round(
                sum(c["p50_us"] for c in group) / count, 3
            ),
            "faults": sum(c["faults"] for c in group),
            "prefetch_hit_pct": round(100.0 * hits / issued, 1)
            if issued else 0.0,
        })
    entries.sort(
        key=lambda e: (e["mean_p99_us"], e["mean_p50_us"], e["combo"])
    )
    for rank, entry in enumerate(entries, 1):
        entry["rank"] = rank
    return entries


def run_tournament(
    quick: bool = False,
    seed: int = 42,
    workers: int = 1,
    faults: Optional[str] = None,
    workloads: Optional[Sequence[str]] = None,
) -> TournamentResult:
    """Race every policy combo; byte-identical at any ``workers``."""
    if faults is None:
        # Capture the CLI's ambient plan here, in the parent, so
        # worker processes (which never see the ambient default) build
        # the same platforms the serial path does.
        faults = default_fault_plan()
    chosen = tuple(workloads) if workloads else TOURNAMENT_WORKLOADS
    payloads = [
        {
            "prefetch": prefetch,
            "handlers": handlers,
            "workload": workload,
            "quick": quick,
            "seed": seed,
            "faults": faults,
        }
        for prefetch in PREFETCH_POLICIES
        for handlers in HANDLER_COUNTS
        for workload in chosen
    ]
    cells = run_tasks(
        run_tournament_cell, payloads, workers=workers, seed=seed
    )
    ranking = _rank(cells)

    obs = default_observability()
    if obs.enabled:
        registry = obs.registry
        registry.counter("tournament_cells").inc(len(cells))
        for cell in cells:
            labels = {
                "combo": cell["combo"], "workload": cell["workload"]
            }
            registry.counter("tournament_faults", **labels).inc(
                cell["faults"]
            )
            registry.counter("tournament_prefetches_issued", **labels).inc(
                cell["prefetches_issued"]
            )
            registry.counter("tournament_prefetch_hits", **labels).inc(
                cell["prefetch_hits"]
            )
            registry.gauge("tournament_p99_us", **labels).set(
                cell["p99_us"]
            )
        for entry in ranking:
            registry.gauge(
                "tournament_rank", combo=entry["combo"]
            ).set(entry["rank"])
            registry.gauge(
                "tournament_mean_p99_us", combo=entry["combo"]
            ).set(entry["mean_p99_us"])
    return TournamentResult(
        cells=cells,
        ranking=ranking,
        quick=quick,
        seed=seed,
        workers=workers,
    )
