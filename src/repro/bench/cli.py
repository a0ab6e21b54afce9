"""Command-line entry point: regenerate any table or figure.

Usage::

    python -m repro.bench fig3            # Figure 3 latency CDFs
    python -m repro.bench table1          # Table I code paths
    python -m repro.bench table2          # Table II optimizations
    python -m repro.bench fig4            # Figure 4 Graph500
    python -m repro.bench fig5            # Figure 5 MongoDB/YCSB
    python -m repro.bench table3          # Table III footprint
    python -m repro.bench ablations       # design-choice ablations
    python -m repro.bench cluster         # shard scale-out + recovery
    python -m repro.bench market          # multi-tenant marketplace
    python -m repro.bench all             # everything
    python -m repro.bench fig3 table1     # any subset, in order

``--quick`` shrinks the runs for smoke testing; ``--csv DIR`` exports
each experiment's rows; ``--metrics PATH`` writes a machine-readable
metrics summary (per-code-path latency percentiles, op counts, retry
and failover tallies — the BENCH_*.json baseline format); ``--trace
PATH`` writes a ``chrome://tracing`` event trace keyed to simulated
time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from ..faults import NAMED_PLANS
from ..obs import EventTracer, Observability, export_chrome_trace
from .ablations import run_all_ablations
from .cluster_scaleout import run_cluster
from .fig3_latency_cdf import run_fig3
from .fig4_graph500 import run_fig4
from .fig5_mongodb import run_fig5
from .market_fleet import run_market
from .platform import set_default_fault_plan, set_default_observability
from .reporting import write_csv
from .table1_codepaths import run_table1
from .table2_optimizations import run_table2
from .table3_footprint import run_table3
from .tournament import run_tournament

__all__ = ["main", "METRICS_SCHEMA"]

#: Experiment name -> one-line description (``--list-experiments``).
EXPERIMENT_DESCRIPTIONS = {
    "fig3": "Figure 3 page-fault latency CDFs across backends",
    "table1": "Table I per-code-path latency breakdown",
    "table2": "Table II optimization ablations (bare processes)",
    "fig4": "Figure 4 Graph500 BFS under shrinking local memory",
    "fig5": "Figure 5 MongoDB/YCSB latency vs WiredTiger cache",
    "table3": "Table III VM footprint squeeze toward zero pages",
    "ablations": "Design-choice ablations (LRU, batching, policies)",
    "cluster": "Shard-cluster scale-out 1->8 nodes: key balance, "
               "crash recovery time",
    "market": "Multi-tenant memory marketplace: fleet-scale harvest/"
              "lease with per-tenant SLOs and an audited broker",
    "tournament": "Policy tournament: every prefetch x handler-count "
                  "combo raced over pmbench/graph500/market workloads, "
                  "ranked by fault p99",
}

EXPERIMENTS = ("fig3", "table1", "table2", "fig4", "fig5", "table3",
               "ablations", "cluster", "market", "tournament")

#: Version tag of the ``--metrics`` JSON document; bump on layout
#: changes so the CI regression gate can refuse mismatched baselines.
METRICS_SCHEMA = "repro-bench-metrics/1"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Regenerate the FluidMem paper's tables and figures",
    )
    parser.add_argument(
        "experiment",
        nargs="*",
        metavar="EXPERIMENT",
        help="which tables/figures to regenerate: "
             + ", ".join(EXPERIMENTS)
             + ", or 'all' (any subset, run in canonical order)",
    )
    parser.add_argument(
        "--list-experiments",
        action="store_true",
        help="print every experiment name with a one-line description "
             "and exit",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller runs (smoke-test scale)",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write each experiment's rows as CSV into DIR",
    )
    parser.add_argument(
        "--cdf",
        action="store_true",
        help="fig3: also print ASCII CDF plots per backend",
    )
    parser.add_argument(
        "--faults",
        metavar="PLAN",
        default=None,
        help="run the experiment under a named fault plan: FluidMem "
             "stores become 2 fault-injected replicas behind "
             "retry/failover (plans: "
             + ", ".join(sorted(NAMED_PLANS))
             + "); swap platforms are unaffected",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan the tournament experiment's cells over N processes "
             "(repro.parallel); results are byte-identical at any N. "
             "Other experiments ignore it",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write a machine-readable metrics summary (counters, "
             "gauges, per-code-path latency percentiles) as JSON",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a chrome://tracing event trace (load in "
             "chrome://tracing or Perfetto; timestamps are simulated "
             "microseconds)",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const=25,
        type=int,
        default=None,
        metavar="N",
        help="wrap the selected experiments in cProfile and print the "
             "top-N functions by cumulative wall-clock time "
             "(default N: 25)",
    )
    return parser


def _maybe_csv(csv_dir: Optional[str], name: str, headers, rows) -> None:
    if csv_dir is None:
        return
    os.makedirs(csv_dir, exist_ok=True)
    write_csv(os.path.join(csv_dir, f"{name}.csv"), headers, rows)


def _run_one(name: str, args) -> None:
    quick = args.quick
    seed = args.seed
    if args.faults and name in ("table2", "ablations", "cluster", "market"):
        if name == "cluster":
            reason = "schedules its own node crashes"
        elif name == "market":
            reason = "schedules its own seeded fleet chaos"
        else:
            reason = "drives bare test processes, not full platforms"
        print(
            f"note: {name} {reason}; --faults {args.faults} has no "
            f"effect on it",
            file=sys.stderr,
        )
    if args.workers > 1 and name != "tournament":
        print(
            f"note: {name} runs serially; --workers {args.workers} "
            f"only fans out the tournament experiment",
            file=sys.stderr,
        )
    if name == "fig3":
        result = run_fig3(
            measured_accesses=4000 if quick else 20000, seed=seed
        )
        print(result.table_text())
        if args.cdf:
            for platform in result.results:
                print()
                print(result.cdf_text(platform))
        print(
            "\nFluidMem->RAMCloud faults are "
            f"{100 * result.speedup_over('fluidmem-ramcloud', 'swap-nvmeof'):.0f}% "
            "faster than NVMeoF swap (paper: 40%) and "
            f"{100 * result.speedup_over('fluidmem-ramcloud', 'swap-ssd'):.0f}% "
            "faster than SSD swap (paper: 77%)."
        )
        _maybe_csv(args.csv, "fig3",
                   ("backend", "avg_us", "paper_us", "ratio", "hit_pct",
                    "sub10us_pct"),
                   result.rows())
    elif name == "table1":
        result = run_table1(
            measured_accesses=3000 if quick else 10000, seed=seed
        )
        print(result.table_text())
        _maybe_csv(args.csv, "table1",
                   ("path", "avg", "paper_avg", "stdev", "paper_stdev",
                    "p99", "paper_p99"),
                   result.rows())
    elif name == "table2":
        result = run_table2(
            accesses=1500 if quick else 5000, seed=seed
        )
        print(result.table_text())
        _maybe_csv(args.csv, "table2",
                   ("optimization", "dram_seq", "paper", "dram_rand",
                    "paper", "rc_seq", "paper", "rc_rand", "paper"),
                   result.rows())
    elif name == "fig4":
        result = run_fig4(
            graph_scale=11 if quick else 12,
            num_bfs_roots=1 if quick else 2,
            seed=seed,
        )
        print(result.table_text())
        print(
            "\nFluidMem overhead with an all-local working set: "
            f"{100 * result.overhead_at_local():.1f}% (paper: 2.6%)."
        )
        _maybe_csv(args.csv, "fig4",
                   ("wss", "graph_scale", *result.platforms),
                   result.rows())
    elif name == "fig5":
        result = run_fig5(
            operations=4000 if quick else 15000, seed=seed
        )
        print(result.table_text())
        headers = ["wt_cache"]
        for platform in result.platforms:
            headers += [f"{platform}_us", "paper_us", "cv"]
        _maybe_csv(args.csv, "fig5", headers, result.rows())
    elif name == "table3":
        result = run_table3(
            boot_scale=1.0 / 16 if quick else 1.0 / 8, seed=seed
        )
        print(result.table_text())
        _maybe_csv(args.csv, "table3",
                   ("configuration", "pages", "mib", "ssh", "icmp",
                    "revived"),
                   result.rows())
    elif name == "cluster":
        result = run_cluster(
            pages=400 if quick else 2_000,
            max_nodes=6 if quick else 8,
            seed=seed,
        )
        print(result.table_text())
        _maybe_csv(args.csv, "cluster",
                   ("nodes", "min_keys", "max_keys", "ratio",
                    "keys_moved", "settle_us"),
                   result.rows())
    elif name == "market":
        result = run_market(
            fleet_scale=2 if quick else 4,
            ticks=30 if quick else 90,
            seed=seed,
        )
        print(result.table_text())
        _maybe_csv(args.csv, "market",
                   ("tenant", "role", "vms", "priority", "slo_us",
                    "p99_us", "slo_violations", "faults", "remote_hits",
                    "swap_faults", "deaths"),
                   result.rows())
    elif name == "tournament":
        result = run_tournament(
            quick=quick, seed=seed, workers=args.workers,
            faults=args.faults,
        )
        print(result.table_text())
        print(
            f"\nWinner: {result.winner} over "
            f"{len(result.cells)} cells ({result.workers} worker(s))."
        )
        _maybe_csv(args.csv, "tournament",
                   ("rank", "combo", "mean_p99_us", "mean_p50_us",
                    "faults", "prefetch_hit_pct"),
                   result.rows())
    elif name == "ablations":
        for ablation in run_all_ablations(seed=seed).values():
            print(ablation.table_text())
            print()
            _maybe_csv(
                args.csv,
                f"ablation-{ablation.name.split(' ')[0]}",
                ablation.headers,
                ablation.data,
            )
    else:  # pragma: no cover - guarded by argparse choices
        raise ValueError(name)


def _expand_targets(requested: Sequence[str]) -> Tuple[str, ...]:
    """Resolve 'all' and dedupe while keeping canonical order."""
    if "all" in requested:
        return EXPERIMENTS
    return tuple(name for name in EXPERIMENTS if name in requested)


def _write_json(path: str, document: object) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _validate_faults(parser: argparse.ArgumentParser, plan: str) -> None:
    if plan in NAMED_PLANS:
        return
    close = sorted(
        name for name in NAMED_PLANS
        if plan.lower() in name or name in plan.lower()
    )
    hint = f"  Did you mean {close[0]!r}?" if close else ""
    parser.error(
        f"unknown fault plan {plan!r}.{hint}\n"
        "Available plans:\n  "
        + "\n  ".join(sorted(NAMED_PLANS))
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.list_experiments:
        width = max(len(name) for name in EXPERIMENTS)
        for name in EXPERIMENTS:
            print(f"{name:<{width}}  {EXPERIMENT_DESCRIPTIONS[name]}")
        return 0
    if not args.experiment:
        parser.error(
            "no experiment given (use --list-experiments to see them)"
        )
    known = set(EXPERIMENTS) | {"all"}
    for name in args.experiment:
        if name not in known:
            parser.error(
                f"unknown experiment {name!r} (use --list-experiments "
                "to see them)"
            )
    if args.faults is not None:
        _validate_faults(parser, args.faults)
    if args.profile is not None and args.profile < 1:
        parser.error("--profile needs a positive function count")
    if args.workers < 1:
        parser.error("--workers needs a positive process count")
    targets = _expand_targets(args.experiment)
    observing = args.metrics is not None or args.trace is not None
    snapshots = {}
    tracers: List[Tuple[str, EventTracer]] = []
    set_default_fault_plan(args.faults)
    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        for index, name in enumerate(targets):
            if index:
                print("\n" + "#" * 70 + "\n")
            obs = None
            if observing:
                # A fresh sink per experiment keeps the summaries and
                # trace tracks separable in one multi-experiment run.
                obs = Observability(enabled=True)
                set_default_observability(obs)
            try:
                _run_one(name, args)
            finally:
                if obs is not None:
                    set_default_observability(None)
            if obs is not None:
                snapshots[name] = obs.registry.snapshot()
                tracers.append((name, obs.tracer))
    finally:
        if profiler is not None:
            profiler.disable()
        set_default_fault_plan(None)

    if profiler is not None:
        import pstats

        print("\n" + "=" * 70)
        print(f"cProfile: top {args.profile} functions by cumulative "
              "wall-clock time")
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(
            args.profile
        )

    if args.metrics is not None:
        _write_json(args.metrics, {
            "schema": METRICS_SCHEMA,
            "quick": args.quick,
            "seed": args.seed,
            "faults": args.faults,
            "experiments": snapshots,
        })
        print(f"\nmetrics written to {args.metrics}", file=sys.stderr)
    if args.trace is not None:
        _write_json(args.trace, export_chrome_trace(tracers))
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
