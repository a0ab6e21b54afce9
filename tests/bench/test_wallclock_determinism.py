"""Determinism pins for the engine fast paths.

The hot-path overhaul (clock bumps, Timeout pooling, inline resource
grants, the single-getter ``put_nowait`` hand-off and the in-place
settling of detached processes, DESIGN.md §12) is only allowed to
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
    """The same rule over the policy-lab tournament (DESIGN.md §12):
    its concurrent fault handlers, prefetchers and allocators may not
    move a single byte of the seeded --metrics document either."""
    experiments = ("fig3", "table1", "tournament")
    fast = _metrics_bytes(tmp_path, "fast", experiments)
    with fifo_reference():
        reference = _metrics_bytes(tmp_path, "fifo", experiments)
    assert fast == reference
