"""Determinism pin for the market experiment.

The marketplace's invariants are only auditable if its runs are
reproducible: the seed-42 quick ``market --metrics`` document must be
byte-identical run over run, and identical again in the reference run
with ``FifoSchedule`` on every ``Environment``, which forces the engine
fast paths off (fast paths may change wall-clock speed, never simulated
results).  Every decision path in
:mod:`repro.market` draws from named RNG streams and iterates sorted
collections — this test is the tripwire for anyone who breaks that.

The pins are only worth something if the runs they pin exercise the
market: seed 42 must actually crash VMs, the audited ledger must come
out clean, and the no-chaos path must run too.  ``FAULT_SEED`` offsets
the ledger-audit seeds so the CI chaos matrix sweeps independent
universes.
"""

import contextlib
import io
import os

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.market_fleet import run_market

SEED_BASE = int(os.environ.get("FAULT_SEED", "0")) * 100

#: One 112-VM unit for nine ticks: three market rounds, with the chaos
#: windows (20-50 % of the horizon) inside the run.
SMALL = dict(fleet_scale=1, ticks=9)


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


def test_market_chaos_fires_at_seed_42():
    """Seed 42 is fixed on purpose: at ``fleet_scale=1`` some seeds
    (10 of 400, seed 200 among them) schedule no crash window at all."""
    assert run_market(seed=42, chaos=True, **SMALL).vm_crashes > 0


@pytest.mark.parametrize("seed", [SEED_BASE + offset for offset in
                                  (0, 1, 2)])
def test_market_ledger_audit_finds_no_violations(seed):
    result = run_market(seed=seed, chaos=True, **SMALL)
    assert result.invariant_violations == 0


def test_market_runs_without_chaos():
    result = run_market(seed=7, chaos=False, **SMALL)
    assert result.vm_crashes == 0
    assert all(row.deaths == 0 for row in result.rows_data)
    assert result.grants > 0
    assert result.invariant_violations == 0
