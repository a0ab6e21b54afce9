"""Wall-clock performance benchmarks (``python -m repro.perfbench``).

Everything else in this repo measures *simulated* time; this package
measures how fast the simulator itself runs.  See
:mod:`repro.perfbench.benchmarks` for the four measurements and the
noise-rejection protocol, and ``BENCH_WALLCLOCK.json`` at the repo
root for the recorded trajectory the CI gate compares against.
"""

from .benchmarks import (
    FULL_SIZES,
    PERFBENCH_SCHEMA,
    QUICK_SIZES,
    bench_engine,
    bench_fig3_quick,
    bench_monitor,
    run_suite,
)
from .cli import compare, load_reference, main, missing_metrics

__all__ = [
    "PERFBENCH_SCHEMA",
    "FULL_SIZES",
    "QUICK_SIZES",
    "bench_engine",
    "bench_monitor",
    "bench_fig3_quick",
    "run_suite",
    "compare",
    "missing_metrics",
    "load_reference",
    "main",
]
