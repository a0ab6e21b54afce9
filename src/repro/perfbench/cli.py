"""Command-line entry point for the wall-clock perfbench suite.

Usage::

    python -m repro.perfbench                  # full suite, table out
    python -m repro.perfbench --quick          # CI-sized runs
    python -m repro.perfbench --json out.json  # also write the document
    python -m repro.perfbench --compare BENCH_WALLCLOCK.json

``--compare`` checks the fresh numbers against the most recent
matching-mode entry of a BENCH_WALLCLOCK.json trajectory (or a bare
result document) and exits non-zero when any metric regressed by more
than ``--max-regression`` (default 2x — generous on purpose: these are
wall-clock numbers on shared runners).  Every engine fast path is gated
only on ``Environment.scheduler is None``; a run with a
``FifoSchedule`` installed is the reference those paths must match
byte for byte, and the determinism tests, not this suite, pin that.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from .benchmarks import (
    PERFBENCH_SCHEMA,
    bench_sweep_scaling,
    run_suite,
    run_sweep,
)

__all__ = [
    "main",
    "compare",
    "missing_metrics",
    "load_reference",
    "METRIC_DIRECTIONS",
]

#: metric name -> "higher" (rates) or "lower" (seconds) is better.
METRIC_DIRECTIONS = (
    ("engine_events_per_sec", "higher"),
    ("monitor_ops_per_sec", "higher"),
    ("fig3_quick_seconds", "lower"),
    ("prefetcher_ops_per_sec", "higher"),
)


def _comparable(document: dict, metric: str) -> bool:
    value = document.get(metric)
    return isinstance(value, (int, float)) and value > 0


def load_reference(path: str, mode: str) -> Optional[dict]:
    """The baseline entry to compare against.

    Accepts either a BENCH_WALLCLOCK.json trajectory (``entries`` list:
    picks the newest entry whose ``mode`` matches, else the newest of
    any mode) or a bare perfbench result document.
    """
    with open(path) as handle:
        document = json.load(handle)
    schema = document.get("schema")
    if schema != PERFBENCH_SCHEMA:
        raise ValueError(
            f"{path}: schema {schema!r} != {PERFBENCH_SCHEMA!r}"
        )
    entries = document.get("entries")
    if entries is None:
        return document
    matching = [e for e in entries if e.get("mode") == mode] or entries
    return matching[-1] if matching else None


def compare(
    current: dict, reference: dict, max_regression: float
) -> List[Tuple[str, float, float, float, bool]]:
    """Per-metric ``(name, current, reference, factor, ok)`` rows.

    ``factor`` > 1 means the current run is worse by that factor (in
    the metric's own direction); ``ok`` is ``factor <= max_regression``.
    """
    rows = []
    for metric, direction in METRIC_DIRECTIONS:
        if not _comparable(reference, metric) or \
                not _comparable(current, metric):
            continue
        ref = reference[metric]
        cur = current[metric]
        factor = ref / cur if direction == "higher" else cur / ref
        rows.append((metric, cur, ref, factor, factor <= max_regression))
    return rows


def missing_metrics(current: dict, reference: dict) -> List[Tuple[str, str]]:
    """``(metric, side)`` pairs :func:`compare` had to skip.

    ``side`` names the document the metric is absent from (``"current
    run"`` or ``"baseline"``) while the other side has it — e.g. a
    baseline recorded before a benchmark existed.  Metrics absent from
    both documents are not reported.  Surfacing these keeps a skipped
    comparison visible instead of silently shrinking the gate.
    """
    rows = []
    for metric, _direction in METRIC_DIRECTIONS:
        cur_ok = _comparable(current, metric)
        ref_ok = _comparable(reference, metric)
        if cur_ok and not ref_ok:
            rows.append((metric, "baseline"))
        elif ref_ok and not cur_ok:
            rows.append((metric, "current run"))
    return rows


def _format_value(metric: str, value: float) -> str:
    if metric.endswith("_seconds"):
        return f"{value:.4f} s"
    return f"{value:,.0f}/s"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.perfbench",
        description="Seeded wall-clock microbenchmarks for the "
                    "simulation hot path",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized runs (seconds, not tens of seconds)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--reps",
        type=int,
        default=None,
        metavar="N",
        help="override the best-of-N repetition count per benchmark",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the result document as JSON",
    )
    parser.add_argument(
        "--compare",
        metavar="PATH",
        default=None,
        help="compare against a BENCH_WALLCLOCK.json trajectory (or a "
             "bare result file); exit 1 on regression",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        metavar="FACTOR",
        help="fail --compare when any metric is worse by more than "
             "this factor (default: 2.0)",
    )
    parser.add_argument(
        "--sweep-seeds",
        type=int,
        default=None,
        metavar="N",
        help="run the seeded benchmarks over seeds 0..N-1 instead of "
             "the four-benchmark suite",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="M",
        help="worker processes for --sweep-seeds (default 1 = serial)",
    )
    parser.add_argument(
        "--scaling",
        action="store_true",
        help="measure the sweep's multi-core speedup (serial vs "
             "--workers processes over --sweep-seeds cells)",
    )
    return parser


def _write_json(path: str, document: object) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _main_sweep(args: argparse.Namespace) -> int:
    """The --sweep-seeds / --scaling modes."""
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    seeds = args.sweep_seeds if args.sweep_seeds is not None else 8
    pool_emit = lambda line: print(line, file=sys.stderr)  # noqa: E731
    if args.scaling:
        result = bench_sweep_scaling(
            seeds=seeds, workers=args.workers, quick=args.quick,
            emit=pool_emit,
        )
        print(f"sweep scaling ({result['sweep_seeds']} seed(s), "
              f"{result['workers']} worker(s), "
              f"{result['host_cpus']} host cpu(s))")
        print(f"  serial    {result['serial_seconds']:.2f} s")
        print(f"  parallel  {result['parallel_seconds']:.2f} s")
        print(f"  speedup   {result['speedup']:.2f}x")
    else:
        result = run_sweep(
            range(seeds), quick=args.quick, workers=args.workers,
            emit=pool_emit,
        )
        print(f"seed sweep ({len(result['rows'])} seed(s), "
              f"{result['workers']} worker(s), "
              f"{result['wall_seconds']:.2f} s wall)")
        for row in result["rows"]:
            print(f"  seed {row['seed']:>3}  "
                  f"monitor {row['monitor_ops_per_sec']:,.0f}/s  "
                  f"fig3 {row['fig3_quick_seconds']:.4f} s")
    if args.json is not None:
        _write_json(args.json, result)
        print(f"results written to {args.json}", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)

    if args.sweep_seeds is not None or args.scaling:
        return _main_sweep(args)

    result = run_suite(quick=args.quick, seed=args.seed, reps=args.reps)

    width = max(len(name) for name, _ in METRIC_DIRECTIONS)
    print(f"perfbench ({result['mode']}, seed {result['seed']})")
    for metric, _direction in METRIC_DIRECTIONS:
        if metric in result:
            print(f"  {metric:<{width}}  "
                  f"{_format_value(metric, result[metric])}")

    if args.json is not None:
        _write_json(args.json, result)
        print(f"results written to {args.json}", file=sys.stderr)

    if args.compare is not None:
        reference = load_reference(args.compare, result["mode"])
        if reference is None:
            print(f"{args.compare}: no baseline entries", file=sys.stderr)
            return 2
        failed = False
        print(f"\nvs {args.compare} "
              f"(mode {reference.get('mode', '?')}, "
              f"max regression {args.max_regression:g}x):")
        for metric, cur, ref, factor, ok in compare(
            result, reference, args.max_regression
        ):
            verdict = "ok" if ok else "REGRESSION"
            print(f"  {metric:<{width}}  "
                  f"{_format_value(metric, cur)} vs "
                  f"{_format_value(metric, ref)}  "
                  f"({factor:.2f}x {'worse' if factor > 1 else 'of'} "
                  f"baseline)  {verdict}")
            failed = failed or not ok
        for metric, side in missing_metrics(result, reference):
            print(f"  {metric:<{width}}  missing from {side} "
                  "-- not compared")
        if failed:
            print("perfbench: wall-clock regression beyond threshold",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
