"""Determinism pins for the engine fast paths.

The hot-path overhaul (clock bumps, Timeout pooling, inline resource
grants) and the burst-resolution layer on top of it (batch-window
cohorts, ``Store.try_get_batch``, DESIGN.md §17) are only allowed to
change *wall-clock* speed.  Every one of those paths is gated on
``Environment.scheduler is None``, so the reference run installs
:class:`~repro.check.explorer.FifoSchedule` — the engine's native
order, with every fast path off — on every ``Environment``, and the
seed-42 ``--metrics`` document must come out byte-identical to the
no-scheduler run.
"""

import contextlib
import io

from repro.bench.cli import main as bench_main


def _metrics_bytes(tmp_path, tag, experiments):
    path = tmp_path / f"metrics-{tag}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = bench_main([
            *experiments,
            "--quick", "--seed", "42", "--metrics", str(path),
        ])
    assert code == 0
    return path.read_bytes()


def test_metrics_byte_identical_with_fastpath_forced_off(
    tmp_path, fifo_reference
):
    experiments = ("fig3", "table1", "cluster")
    fast = _metrics_bytes(tmp_path, "fast", experiments)
    with fifo_reference():
        reference = _metrics_bytes(tmp_path, "fifo", experiments)
    assert fast == reference


def test_metrics_byte_identical_with_batch_forced_off(
    tmp_path, fifo_reference
):
    """The batch-equivalence rule (DESIGN.md §17): batch-window
    cohorts may not move a single byte of the seeded --metrics
    document, fig3 through the policy-lab tournament."""
    experiments = ("fig3", "table1", "tournament")
    fast = _metrics_bytes(tmp_path, "fast", experiments)
    with fifo_reference():
        reference = _metrics_bytes(tmp_path, "fifo", experiments)
    assert fast == reference
