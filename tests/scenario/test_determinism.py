"""The byte-identity contract: same scenario + seed, same report bytes.

Pins seed-42 ``web-diurnal --quick`` two ways: workers 1 vs workers
4 byte-for-byte, and against the committed baseline the CI
``scenario-smoke`` job ``cmp``s (with and without ``FifoSchedule``
installed).
"""

import contextlib
import io
import os

import pytest

from repro.scenario.cli import main as scenario_main

BASELINE = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir,
    "benchmarks", "baselines",
    "scenario-web-diurnal-quick-seed42.json",
)


def _run_report(tmp_path, label, *argv):
    path = tmp_path / f"{label}.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert scenario_main([
            "run", *argv, "--quick", "--seed", "42",
            "--report", str(path),
        ]) == 0
    return path.read_bytes(), stdout.getvalue()


def test_web_diurnal_workers_1_vs_4_byte_identical(tmp_path):
    serial, serial_out = _run_report(
        tmp_path, "w1", "web-diurnal", "--workers", "1"
    )
    fanned, fanned_out = _run_report(
        tmp_path, "w4", "web-diurnal", "--workers", "4"
    )
    assert serial == fanned
    # stdout must match too: nothing may leak the worker count.
    assert serial_out == fanned_out


def test_web_diurnal_matches_committed_baseline(tmp_path):
    report, _ = _run_report(tmp_path, "base", "web-diurnal")
    with open(BASELINE, "rb") as handle:
        assert report == handle.read(), (
            "web-diurnal quick seed-42 drifted from the committed "
            "baseline; if the change is intentional, regenerate "
            "benchmarks/baselines/scenario-web-diurnal-quick-seed42.json"
        )


def test_web_diurnal_batch_off_matches_committed_baseline(
    tmp_path, fifo_reference
):
    """The burst layer may not move a scenario report either: in the
    reference run (``FifoSchedule`` on every ``Environment``, every fast
    path off) the quick seed-42 run must still reproduce the committed
    baseline byte-for-byte (DESIGN.md §17)."""
    with fifo_reference():
        report, _ = _run_report(tmp_path, "fifo", "web-diurnal")
    with open(BASELINE, "rb") as handle:
        assert report == handle.read()


@pytest.mark.parametrize("template", ("ml-sweep", "kv-mix"))
def test_fleet_templates_stable_across_worker_counts(template, tmp_path):
    serial, _ = _run_report(tmp_path, "s", template, "--workers", "1")
    fanned, _ = _run_report(tmp_path, "f", template, "--workers", "3")
    assert serial == fanned


def test_seed_changes_the_report(tmp_path):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert scenario_main([
            "run", "web-diurnal", "--quick", "--seed", "42",
            "--report", str(path_a),
        ]) == 0
        assert scenario_main([
            "run", "web-diurnal", "--quick", "--seed", "43",
            "--report", str(path_b),
        ]) == 0
    assert path_a.read_bytes() != path_b.read_bytes()
