"""Seeded wall-clock microbenchmarks for the simulation hot path.

Four measurements, smallest scope to largest:

* **engine** — raw event throughput of the discrete-event core: N
  processes looping on ``timeout(1.0)``, reported as events/sec.  This
  isolates :mod:`repro.sim.core` (heap, Timeout pooling, ``_resume``)
  from everything above it.
* **monitor** — the FluidMem fault path end to end: pmbench against the
  ``fluidmem-dram`` platform at a tiny memory scale so every access
  faults, reported as accesses/sec.  Exercises uffd delivery, the
  monitor's charge/ioctl/wake sequence, LRU eviction, and the DRAM
  store.
* **fig3-quick** — one full ``run_fig3`` quick experiment, reported in
  wall-clock seconds.  The closest proxy for "how long does a bench
  run take".
* **prefetcher** — the Leap majority-trend prefetcher's decision loop
  (``record_fault`` + ``candidates``) on a synthetic strided/random
  fault stream, reported as ops/sec.  This code runs after *every*
  resolved read fault when prefetching is on, so its throughput bounds
  the policy lab's overhead.

Unlike every other number in this repo, these are *wall-clock*
measurements: they depend on the machine and on ambient load.  The
suite therefore reports best-of-N (max rate / min seconds), and the CI
gate compares with a deliberately generous 2x threshold.  Simulated
results are pinned elsewhere (the byte-identical ``--metrics``
determinism tests); this suite only watches speed.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..parallel.pool import run_tasks
from ..sim import Environment

__all__ = [
    "PERFBENCH_SCHEMA",
    "FULL_SIZES",
    "QUICK_SIZES",
    "bench_engine",
    "bench_monitor",
    "bench_fig3_quick",
    "bench_prefetcher",
    "run_suite",
    "run_sweep",
    "bench_sweep_scaling",
]

#: Version tag of the perfbench JSON document; bump on layout changes
#: so the CI gate can refuse mismatched baselines.
PERFBENCH_SCHEMA = "repro-perfbench-metrics/1"

#: Workload sizes for the recorded (BENCH_WALLCLOCK.json) protocol.
FULL_SIZES = {
    "engine_events": 800_000,
    "engine_procs": 4,
    "monitor_accesses": 30_000,
    "fig3_accesses": 4_000,
    "prefetcher_ops": 400_000,
}

#: CI-sized runs: same shape, a few seconds total.
QUICK_SIZES = {
    "engine_events": 200_000,
    "engine_procs": 4,
    "monitor_accesses": 8_000,
    "fig3_accesses": 1_500,
    "prefetcher_ops": 100_000,
}

#: Best-of-N repetitions per benchmark (noise rejection).
FULL_REPS = {
    "engine": 3, "monitor": 2, "fig3": 2, "prefetcher": 2,
}
QUICK_REPS = {
    "engine": 2, "monitor": 1, "fig3": 1, "prefetcher": 1,
}


def bench_engine(total_events: int = 800_000, procs: int = 4) -> float:
    """Raw engine throughput in events/sec.

    ``procs`` concurrent loopers each yield ``total_events / procs``
    unit timeouts — the dominant fire-once Timeout pattern the pool
    and drain fast path are built for.
    """
    per = total_events // procs
    env = Environment()

    def looper(env: Environment, n: int):
        timeout = env.timeout
        for _ in range(n):
            yield timeout(1.0)

    for _ in range(procs):
        env.process(looper(env, per))
    started = time.perf_counter()
    env.run()
    return total_events / (time.perf_counter() - started)


def bench_monitor(accesses: int = 30_000, seed: int = 42) -> float:
    """Monitor fault-path throughput in accesses/sec.

    pmbench against ``fluidmem-dram`` at 1/1024 memory scale: the
    working set dwarfs local memory, so nearly every access walks the
    full fault path (uffd event, charge, read/zero-fill, wake, evict).
    """
    from ..bench.platform import build_platform
    from ..workloads import Pmbench, PmbenchConfig

    platform = build_platform(
        "fluidmem-dram", memory_scale=1.0 / 1024, seed=seed
    )
    wss_pages = platform.shape.wss_pages(4.0)
    bench = Pmbench(
        platform.env,
        platform.port,
        platform.workload_base,
        PmbenchConfig(
            wss_pages=wss_pages,
            read_ratio=0.5,
            measured_accesses=accesses,
        ),
        rng=platform.streams.stream("pmbench"),
    )
    started = time.perf_counter()
    platform.run(bench.run())
    return accesses / (time.perf_counter() - started)


def bench_fig3_quick(measured_accesses: int = 4_000, seed: int = 42) -> float:
    """One quick Figure 3 run, in wall-clock seconds (lower is better)."""
    from ..bench.fig3_latency_cdf import run_fig3

    started = time.perf_counter()
    run_fig3(measured_accesses=measured_accesses, seed=seed)
    return time.perf_counter() - started


class _FlatRegion:
    """Just enough region protocol for candidate filtering."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi

    def __contains__(self, addr: int) -> bool:
        return self.lo <= addr < self.hi


def bench_prefetcher(ops: int = 400_000, seed: int = 42) -> float:
    """Leap decision-loop throughput in ops/sec.

    One op = one ``record_fault`` + one ``candidates`` call.  The
    stream alternates strided scans (a majority trend exists, so the
    vote and candidate generation both run) with uniform jumps (no
    majority: the vote runs, generation short-circuits) — both shapes
    the monitor feeds it in production.
    """
    import random

    from ..mem import PAGE_SIZE
    from ..policy.prefetch import LeapPrefetcher

    rng = random.Random(seed)
    prefetcher = LeapPrefetcher(depth=4)
    region = _FlatRegion(0, 1 << 30)
    span_pages = (1 << 30) // PAGE_SIZE
    addrs = []
    cursor = 0
    for index in range(ops):
        if (index // 64) % 2 == 0:
            cursor = (cursor + 3) % span_pages  # strided scan burst
        else:
            cursor = rng.randrange(span_pages)  # random burst
        addrs.append(cursor * PAGE_SIZE)
    record_fault = prefetcher.record_fault
    candidates = prefetcher.candidates
    started = time.perf_counter()
    for addr in addrs:
        record_fault(0, addr)
        candidates(0, addr, region)
    return ops / (time.perf_counter() - started)


def run_suite(
    quick: bool = False,
    seed: int = 42,
    reps: Optional[int] = None,
    sizes: Optional[Dict[str, int]] = None,
) -> Dict[str, object]:
    """Run all four benchmarks; returns the perfbench JSON document.

    ``reps`` overrides the per-benchmark best-of-N count (handy for
    tests); ``sizes`` overrides individual workload sizes.
    """
    chosen = dict(QUICK_SIZES if quick else FULL_SIZES)
    if sizes:
        chosen.update(sizes)
    repetitions = dict(QUICK_REPS if quick else FULL_REPS)
    if reps is not None:
        repetitions = {name: reps for name in repetitions}

    engine = max(
        bench_engine(chosen["engine_events"], chosen["engine_procs"])
        for _ in range(repetitions["engine"])
    )
    monitor = max(
        bench_monitor(chosen["monitor_accesses"], seed=seed)
        for _ in range(repetitions["monitor"])
    )
    fig3 = min(
        bench_fig3_quick(chosen["fig3_accesses"], seed=seed)
        for _ in range(repetitions["fig3"])
    )
    prefetcher = max(
        bench_prefetcher(chosen["prefetcher_ops"], seed=seed)
        for _ in range(repetitions["prefetcher"])
    )
    return {
        "schema": PERFBENCH_SCHEMA,
        "mode": "quick" if quick else "full",
        "seed": seed,
        "sizes": chosen,
        "engine_events_per_sec": engine,
        "monitor_ops_per_sec": monitor,
        "fig3_quick_seconds": fig3,
        "prefetcher_ops_per_sec": prefetcher,
    }


def _sweep_one(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One seed's sweep cell: monitor + fig3 at the given sizes.

    Module-level so :func:`repro.parallel.pool.run_tasks` can ship it
    to worker processes.
    """
    seed = payload["seed"]
    sizes = payload["sizes"]
    return {
        "seed": seed,
        "monitor_ops_per_sec": bench_monitor(
            sizes["monitor_accesses"], seed=seed
        ),
        "fig3_quick_seconds": bench_fig3_quick(
            sizes["fig3_accesses"], seed=seed
        ),
    }


def run_sweep(
    seeds: Sequence[int],
    quick: bool = False,
    workers: int = 1,
    sizes: Optional[Dict[str, int]] = None,
    emit: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Sweep the seeded benchmarks (monitor, fig3) over ``seeds``.

    The sweep is the perfbench path that parallelizes: each seed's
    cell is an independent simulation, fanned out over ``workers``
    processes via :mod:`repro.parallel` and merged back in seed order.
    Rows are wall-clock rates and therefore host-dependent; the *row
    order and structure* are deterministic at any worker count.
    """
    chosen = dict(QUICK_SIZES if quick else FULL_SIZES)
    if sizes:
        chosen.update(sizes)
    payloads: List[Dict[str, Any]] = [
        {"seed": seed, "sizes": chosen} for seed in seeds
    ]
    started = time.perf_counter()
    rows = run_tasks(_sweep_one, payloads, workers=workers, emit=emit)
    elapsed = time.perf_counter() - started
    return {
        "schema": PERFBENCH_SCHEMA,
        "mode": "sweep",
        "quick": quick,
        "workers": max(1, workers),
        "seeds": [int(seed) for seed in seeds],
        "sizes": chosen,
        "wall_seconds": elapsed,
        "rows": rows,
    }


def bench_sweep_scaling(
    seeds: int = 8,
    workers: int = 4,
    quick: bool = True,
    emit: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Measure the multi-core speedup of the parallel seed sweep.

    Runs the same ``seeds``-cell sweep twice — serially and with
    ``workers`` processes — and reports the wall-clock ratio.  The
    achievable speedup is bounded by the host's cores (recorded as
    ``host_cpus``): on a 1-core host the parallel run degenerates to
    time-slicing and the ratio measures pool overhead instead.
    """
    try:
        host_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        host_cpus = os.cpu_count() or 1
    serial = run_sweep(range(seeds), quick=quick, workers=1, emit=emit)
    parallel = run_sweep(
        range(seeds), quick=quick, workers=workers, emit=emit
    )
    serial_s = serial["wall_seconds"]
    parallel_s = parallel["wall_seconds"]
    return {
        "schema": PERFBENCH_SCHEMA,
        "mode": "sweep-scaling",
        "quick": quick,
        "sweep_seeds": seeds,
        "workers": workers,
        "host_cpus": host_cpus,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s else 0.0,
    }
