"""Repository benchmark: simulator speed, paper fidelity, layer breakdown.

Run from the repository root::

    python3 layerbench/run.py --workload fig3-fluidmem --seed 42 \\
        --seconds 20 --trace 0

It runs one workload in this process (no workers), repeating *rounds* of
it until ``--seconds`` wall seconds of timed phases have passed, and
prints a summary followed by one JSON line: ``correct``, ``attempted``,
``failed`` (cells) and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` is the separate traced run: untraced rounds for
half of ``--seconds``, then one round under the profiler; it reports the
per-layer metrics.  Every round uses the same ``--seed``.

Times are host CPU seconds of this process (``cells.cpu_seconds``), not
wall seconds: on a shared virtual machine the wall clock also counts
time the hypervisor hands to other guests.  CPU seconds still drift with
the load other guests put on the host's cores and caches: on a 2-vCPU
Xeon VM the same round ran up to twice as fast from one minute to the
next.  So every end-to-end time is *calibrated*: a fixed pure-Python
loop (``probe``) is timed before and after every round, and a round's
CPU seconds are scaled by ``PROBE_REF_S`` over the mean of its two
probes.  The probe runs no ``repro`` code, so a change to the program
moves only the calibrated time, while host drift moves both and largely
cancels.  In two sets of seeds 1-10 on that VM the quartile spread of
``ops_per_s``, as a share of its median, was 9-35 % uncalibrated and
4-11 % calibrated, and the two sets' calibrated medians agreed within
5 %.  Calibration is not exact: the probe reacts more strongly to host
load than the fault path does, so in one quiet set fig3-fluidmem read
9 % uncalibrated and 11 % calibrated.  The summary lines print the
uncalibrated figures too.  Import samples are calibrated the same way,
each by a probe timed just before it.  Every end-to-end time is a median
over rounds or repeats.

Workloads (``cells.py``), at the bench CLI's memory scale of 1/1024:

``fig3-fluidmem``
    pmbench per Fig 3 on ``fluidmem-dram``, ``fluidmem-ramcloud`` and
    ``fluidmem-memcached``: working set 4x local DRAM, uniform random,
    50 % reads, pmbench's own warm-up, the paper monitor (one fault
    handler, no prefetch).  Three in four measured accesses fault, so the
    fault path (``sim.core``, ``core.monitor``, ``kernel.uffd``, ``kv``,
    ``net``) does the most work here.
``fig3-swap``
    The same pmbench on ``swap-dram``, ``swap-nvmeof`` and ``swap-ssd``:
    the guest-kernel swap path.  It never touches the monitor, uffd or
    kv, so a monitor change should not move it.
``fig4a-graph500``
    Graph500 BFS on the Fig 4 default graph (scale 12, edgefactor 16,
    2 roots) with the working set at 60 % of DRAM, on ``fluidmem-dram``
    and ``swap-dram``.  Almost every access is a DRAM hit: the hit path
    (``core.port``, ``workloads.driver``, ``mem``, ``vm``) carries it and
    the monitor and engine are nearly idle.
``market``
    The 448-VM marketplace (``fleet_scale=4``, 30 ticks, chaos on,
    checker on, one partition) from cold, composed from the classes
    ``run_market`` composes.  30 ticks rather than ``run_market``'s 90
    keep a round near a second, so a run has enough rounds for a steady
    median.  A fleet model with no event engine and no fault path:
    ``market.fleet`` and ``kernel.lru`` do most of the work.  The market
    model has no paper reference; it is unvalidated and gets no fidelity
    number (``model.paper_err_pct`` reads 0 there).

End-to-end metrics (``--trace 0``):

``ops_per_s``
    Simulated operations per calibrated host CPU second of the timed
    phases, median over rounds.  The operation is a guest page access on
    fig3-* (warm-up plus measured accesses) and market (hits plus faults
    from ``MarketFleet.tenant_summary()``), and a BFS edge traversed on
    fig4a.
``setup_s``
    Calibrated host CPU seconds of set-up: the median of seven fresh
    imports of the program (numpy imported once before them), plus the
    median over rounds of a round's platform builds, guest boots, graph
    generation and fleet construction.  The one-off interpreter start is
    left out.
``peak_rss_mb``
    Peak resident set of this process.

Per-layer metrics (``--trace 1``), named ``<layer>.<metric>``; layer
names are module paths under ``repro`` (see ``layers.py``):

* ``<layer>.self_s`` and ``<layer>.calls``: host seconds in the layer's
  own functions and calls into them, from the stdlib profiler run around
  one round's timed phases.  Stdlib and builtin calls are charged to the
  calling layer.  Calls repeat exactly; times do not.
* ``trace.overhead_x``: traced ÷ untraced host CPU time of a round.
* ``host.probe_s``: median CPU seconds of the calibration loop, timed
  before and after every round (also printed by untraced runs).  It
  tells host drift apart from a slow change.
* Modelled work, read after an untraced round from the layers' public
  ``counters`` and result objects: ``core.monitor.*``,
  ``core.writeback.*``, ``kernel.uffd.ioctls``, ``kv.*``,
  ``kernel.mm.*``, ``blockdev.*``, ``workloads.hit_pct``,
  ``workloads.graph500.edges``, ``model.<backend>.{avg_us,p99_us}``
  (simulated µs; on fig4a the mean and slowest BFS root),
  ``model.fluidmem_overhead_pct``, ``model.paper_err_pct``,
  ``market.*`` and ``check.violations``.  A metric a workload does not
  exercise reads 0.

``model.paper_err_pct`` is the fidelity number.  On fig3-* it is the mean
absolute % error of each backend's simulated average latency against
``PAPER_FIG3_AVERAGES_US`` (imported from ``repro.bench``); on fig4a the
distance in points between the simulated FluidMem-vs-swap overhead and
the 2.6 % of §VI-D1.  It is simulated, so a pure speed-up leaves it
unchanged.  It is a per-layer metric, not an end-to-end one, because it
has no value on the market and because it varies between seeds more
than any end-to-end bound allows: over seeds 1-8 its quartile spread on
fig3-fluidmem was 43 % of its median even with 20,000-access cells.

Checks.  Each cell checks what its layers promise: pmbench hits plus
faults equal the accesses issued; on FluidMem the monitor's faults equal
uffd's faults and the ``wake`` ioctls; both fig4a backends traverse the
same edges per root; the market checker reports no violation.  A cell
that fails a check or raises is failed.  Modelled work must be identical
in every round of a run and between a traced and an untraced round;
a mismatch means tracing or host state leaked into the simulation and
makes the run incorrect.

Which end-to-end number each layer should move.  Shares are profiler
self time of the traced run at seed 42.

* Fault path: ``sim.core``, ``sim.resources``, ``core.monitor``,
  ``core.writeback``, ``core.lru_buffer``, ``kernel.uffd``,
  ``kernel.latency``, ``kv``, ``net``, ``obs``, ``policy``.  Largest on
  fig3-fluidmem (``sim.core`` 21 %, ``core.monitor`` 18 %, ``obs`` 8 %,
  ``kv`` 6 %, ``net`` 5 %, ``core.writeback`` 5 %, ``kernel.uffd`` 4 %).
  Should move ``ops_per_s`` on fig3-fluidmem; predicted unchanged on
  fig3-swap, fig4a and market.
* Swap path: ``kernel.mm``, ``kernel.swap``, ``kernel.kswapd``,
  ``blockdev``, ``sim.stats``.  Largest on fig3-swap (``kernel.mm``
  19 %, ``kernel.swap`` 15 %, ``blockdev`` 10 %, ``sim.stats`` 8 %).
  Should move ``ops_per_s`` on fig3-swap; predicted unchanged on
  fig3-fluidmem and market.
* Hit path: ``core.port``, ``workloads.driver``, ``workloads.pmbench``,
  ``workloads.graph500``, ``mem``, ``vm``.  Largest on fig4a (``core.port``
  23 %, ``workloads.graph500`` 21 %, ``mem`` 19 %, ``workloads.driver``
  18 %, ``vm`` 10 %); about a fifth of fig3-fluidmem and a quarter of
  fig3-swap.  Should move ``ops_per_s`` on fig4a, and on fig3-* in
  proportion; predicted unchanged on market.
* Fleet: ``market.*``, ``kernel.lru``, ``workloads.ycsb``, ``faults``,
  ``check``.  Largest on market (``market.fleet`` 39 %, ``kernel.lru``
  26 %, ``workloads.ycsb`` 13 %, ``faults`` 6 %); ``kernel.lru`` is also
  8 % of fig3-swap.  Should move ``ops_per_s`` on market; predicted
  unchanged on fig3-fluidmem and fig4a.
* Modelled-work counts and ``model.*``: simulated.  Move
  ``model.paper_err_pct`` on fig3-* and fig4a; identical under any pure
  speed-up.
* Platform build, guest boot, graph generation, fleet construction and
  module imports: ``setup_s``.
* Per-access latency recorders and fleet page maps: ``peak_rss_mb`` on
  fig3-* and market.

Not measured here: the monitor's ``fault_handlers > 1`` and prefetch
paths, the scenario fleet engine (``scenario.workloads``), ``cluster``,
``coord`` and ``parallel``, and time spent waiting inside the model
(uffd and device queues).  A change to any of them adds its workload in
a benchmark change of its own first.

``repro.perfbench`` and ``BENCH_WALLCLOCK.json`` (best-of-N against a 2x
gate) stay as they are, but back no performance claim; this benchmark
does.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Calibrated times read as they would on a host where the probe takes
#: this many CPU seconds.
PROBE_REF_S = 0.05
#: Fewest rounds a run measures, whatever ``--seconds`` says.
MIN_ROUNDS = 3
#: Fresh imports of the program timed for ``setup_s``.
IMPORT_REPEATS = 7
#: A run starts no round after this many wall seconds.
WALL_LIMIT_S = 120.0

END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Layers reported in the JSON line (every executed layer is printed in
#: the table above it).
LAYERS = (
    "sim.core", "sim.resources", "sim.stats", "sim.randomness",
    "kernel.uffd", "kernel.latency", "kernel.mm", "kernel.swap",
    "kernel.kswapd", "kernel.lru",
    "core.monitor", "core.writeback", "core.lru_buffer", "core.port",
    "core.page_tracker", "core.profiling",
    "workloads.driver", "workloads.pmbench", "workloads.graph500",
    "workloads.ycsb",
    "market.fleet", "market.broker", "market.harvester", "market.qos",
    "kv", "net", "blockdev", "mem", "vm", "obs", "policy", "check",
    "faults",
)
BACKENDS = (
    "fluidmem-dram", "fluidmem-ramcloud", "fluidmem-memcached",
    "swap-dram", "swap-nvmeof", "swap-ssd",
)
MODEL_METRICS = {
    **{f"core.monitor.{key}": "count" for key in (
        "faults", "zero_page_faults", "remote_reads", "evictions")},
    "core.writeback.batches": "count",
    "core.writeback.pages_per_batch": "pages",
    "core.writeback.steal_pct": "%",
    "kernel.uffd.ioctls": "count",
    "kv.reads": "count",
    "kv.writes": "count",
    **{f"kernel.mm.{key}": "count" for key in (
        "major_faults", "minor_faults", "reclaimed", "direct_reclaims")},
    "blockdev.reads": "count",
    "blockdev.writes": "count",
    "workloads.hit_pct": "%",
    "workloads.graph500.edges": "count",
    **{f"model.{backend}.{stat}": "us"
       for backend in BACKENDS for stat in ("avg_us", "p99_us")},
    "model.fluidmem_overhead_pct": "%",
    "model.paper_err_pct": "%",
    "market.broker.grants": "count",
    "market.broker.revocations": "count",
    "market.grant_pct": "%",
    "market.lease_rejections": "count",
    "market.vm_crashes": "count",
    "market.qos.slo_violations": "count",
    "market.remote_hit_pct": "%",
    "check.violations": "count",
}


def probe() -> float:
    """Host CPU seconds of a fixed pure-Python loop (no ``repro`` code)."""
    started = time.process_time()
    table = {}
    state = 1
    for step in range(200_000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        table[state & 4095] = step
    return time.process_time() - started


def calibrate(seconds: float, probe_s: float) -> float:
    """Host seconds as they would read on a host where the probe takes
    ``PROBE_REF_S``: the same work, with the host's speed divided out."""
    return seconds * PROBE_REF_S / probe_s


def import_program():
    """Import the program ``IMPORT_REPEATS`` times, each time afresh.

    Returns the ``cells`` module of the last import and the median
    calibrated CPU seconds of one import, each import calibrated by a
    probe timed just before it.  Third-party dependencies are imported
    once, before the first timed import, so every sample does the same
    work.
    """
    import numpy  # noqa: F401

    sys.path.insert(0, str(SRC))
    probe()  # the first probe of a process reads slow; discard it
    samples = []
    for _ in range(IMPORT_REPEATS):
        for name in [name for name in sys.modules
                     if name in ("cells", "repro")
                     or name.startswith("repro.")]:
            del sys.modules[name]
        gc.collect()
        probe_s = probe()
        started = time.process_time()
        cells = importlib.import_module("cells")
        samples.append(calibrate(time.process_time() - started, probe_s))
    return cells, statistics.median(samples)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Simulator-speed, paper-fidelity and per-layer "
                    "benchmark of the FluidMem reproduction."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="wall seconds of timed phases to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the separate traced run (per-layer)")
    return parser.parse_args(argv)


def measure(workload, seed: int, seconds: float, min_rounds: int,
            deadline: float):
    """Untraced rounds until ``seconds`` wall seconds of timed phases
    have passed."""
    rounds, probes = [], [probe()]
    while True:
        rounds.append(workload.run_round(seed))
        probes.append(probe())
        measured = sum(rnd.timed_wall_s for rnd in rounds)
        if len(rounds) >= min_rounds and measured >= seconds:
            break
        if time.perf_counter() > deadline:
            break
    return rounds, probes


def rate(rnd, probe_s: float) -> float:
    """Simulated operations per calibrated host second of ``rnd``."""
    if rnd.timed_s <= 0:
        return 0.0
    return rnd.ops / calibrate(rnd.timed_s, probe_s)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def model_mismatches(reference, other, label: str):
    keys = sorted(set(reference) | set(other))
    return [
        f"{label}: {key} {reference.get(key)} != {other.get(key)}"
        for key in keys if reference.get(key) != other.get(key)
    ]


def summarize(name: str, seed: int, rounds, probes, import_s: float):
    """The end-to-end metrics; each round is calibrated by the mean of
    the probes timed just before and just after it."""
    around = [(before + after) / 2
              for before, after in zip(probes, probes[1:])]
    rates = [rate(rnd, probe_s) for rnd, probe_s in zip(rounds, around)]
    raw_rates = [rate(rnd, PROBE_REF_S) for rnd in rounds]
    q1, q3 = quartiles(rates)
    setups = [calibrate(rnd.setup_s, probe_s)
              for rnd, probe_s in zip(rounds, around)]
    print(f"layerbench {name} seed={seed}: {len(rounds)} rounds, "
          f"{sum(rnd.timed_s for rnd in rounds):.2f} CPU s timed")
    print(f"  ops_per_s    {statistics.median(rates):14.1f} 1/s "
          f"(quartiles {q1:.1f} .. {q3:.1f}; "
          f"uncalibrated {statistics.median(raw_rates):.1f})")
    print(f"  setup_s      {import_s + statistics.median(setups):14.4f} s   "
          f"(import median {import_s:.4f} + round median "
          f"{statistics.median(setups):.4f})")
    print(f"  host.probe_s {statistics.median(probes):14.4f} s   "
          f"(min {min(probes):.4f}, max {max(probes):.4f})")
    return {
        "ops_per_s": statistics.median(rates),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def print_layers(profile, traced_s: float) -> None:
    total = profile.total_s or 1.0
    print(f"  per-layer self time (traced timed phases {traced_s:.3f} s):")
    for layer in profile.layers():
        print(f"    {layer:24s} {profile.self_s[layer]:9.4f} s "
              f"{100.0 * profile.self_s[layer] / total:6.2f} % "
              f"{profile.calls.get(layer, 0):11d} calls")


def main(argv=None) -> int:
    deadline = time.perf_counter() + WALL_LIMIT_S
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"layerbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    cells, import_s = import_program()
    import layers

    workload = cells.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"layerbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(cells.WORKLOADS)}", file=sys.stderr)
        return 2

    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds, probes = measure(workload, args.seed, seconds,
                             1 if args.trace else MIN_ROUNDS, deadline)
    problems = []
    for index, rnd in enumerate(rounds[1:], start=2):
        problems += model_mismatches(rounds[0].model, rnd.model,
                                     f"round {index} vs round 1")
    end_to_end = summarize(args.workload, args.seed, rounds, probes,
                           import_s)

    if args.trace:
        profiler = cProfile.Profile()
        traced = workload.run_round(args.seed, profiler)
        rounds.append(traced)
        problems += model_mismatches(rounds[0].model, traced.model,
                                     "traced vs untraced")
        profile = layers.attribute(pstats.Stats(profiler),
                                   SRC / "repro", HERE)
        print_layers(profile, traced.timed_s)
        untraced_s = statistics.median(rnd.timed_s for rnd in rounds[:-1])
        overhead = traced.timed_s / untraced_s if untraced_s > 0 else 0.0
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = (profile.self_s.get(layer, 0.0), "s")
            metrics[f"{layer}.calls"] = (profile.calls.get(layer, 0), "count")
        metrics["trace.overhead_x"] = (overhead, "x")
        metrics["host.probe_s"] = (statistics.median(probes), "s")
        for key, unit in MODEL_METRICS.items():
            metrics[key] = (rounds[0].model.get(key, 0), unit)
    else:
        metrics = {key: (value, END_TO_END_UNITS[key])
                   for key, value in end_to_end.items()}

    for rnd in rounds:
        for error in rnd.errors:
            print(f"  FAILED {error}")
    for problem in problems:
        print(f"  NONDETERMINISTIC {problem}")
    failed = sum(rnd.failed for rnd in rounds)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": sum(rnd.attempted for rnd in rounds),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
