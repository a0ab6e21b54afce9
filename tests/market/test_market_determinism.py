"""Determinism pin for the market experiment.

The marketplace's invariants are only auditable if its runs are
reproducible: the seed-42 quick ``market --metrics`` document must be
byte-identical run over run, and identical again in the reference run
with ``FifoSchedule`` on every ``Environment``, which forces the engine
fast paths off (fast paths may change wall-clock speed, never simulated
results).  Every decision path in
:mod:`repro.market` draws from named RNG streams and iterates sorted
collections — this test is the tripwire for anyone who breaks that.
"""

import contextlib
import io

from repro.bench.cli import main as bench_main


def _metrics_bytes(tmp_path, tag):
    path = tmp_path / f"market-metrics-{tag}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = bench_main([
            "market", "--quick", "--seed", "42", "--metrics", str(path),
        ])
    assert code == 0
    return path.read_bytes()


def test_market_metrics_byte_identical_across_runs(tmp_path):
    first = _metrics_bytes(tmp_path, "run1")
    second = _metrics_bytes(tmp_path, "run2")
    assert first == second


def test_market_metrics_byte_identical_with_fastpath_forced_off(
    tmp_path, fifo_reference
):
    fast = _metrics_bytes(tmp_path, "fast")
    with fifo_reference():
        reference = _metrics_bytes(tmp_path, "fifo")
    assert fast == reference


def test_market_metrics_differ_across_seeds(tmp_path):
    """The pin is meaningful only if the seed actually steers the run."""
    path_a = tmp_path / "seed42.json"
    path_b = tmp_path / "seed43.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert bench_main(
            ["market", "--quick", "--seed", "42",
             "--metrics", str(path_a)]
        ) == 0
        assert bench_main(
            ["market", "--quick", "--seed", "43",
             "--metrics", str(path_b)]
        ) == 0
    assert path_a.read_bytes() != path_b.read_bytes()
