"""The wall-clock perfbench suite: document shape, comparison logic,
and the CLI wiring.

Real measurements here use deliberately tiny workload sizes — these
tests pin structure and arithmetic, not speed; speed is what the suite
itself measures in CI.
"""

import contextlib
import io
import json

import pytest

from repro.perfbench import (
    PERFBENCH_SCHEMA,
    bench_engine,
    compare,
    load_reference,
    missing_metrics,
    run_suite,
)
from repro.perfbench import cli as perfbench_cli

TINY_SIZES = {
    "engine_events": 2_000,
    "engine_procs": 2,
    "monitor_accesses": 200,
    "fig3_accesses": 60,
    "prefetcher_ops": 2_000,
}


def test_run_suite_document_shape():
    result = run_suite(quick=True, reps=1, sizes=TINY_SIZES)
    assert result["schema"] == PERFBENCH_SCHEMA
    assert result["mode"] == "quick"
    assert result["seed"] == 42
    assert result["sizes"]["engine_events"] == 2_000
    assert result["engine_events_per_sec"] > 0
    assert result["monitor_ops_per_sec"] > 0
    assert result["fig3_quick_seconds"] > 0
    assert result["prefetcher_ops_per_sec"] > 0


def test_bench_engine_rate_scales_with_events():
    rate = bench_engine(total_events=5_000, procs=2)
    assert rate > 0


def _document(engine=1_000_000.0, monitor=15_000.0, fig3=1.0,
              prefetcher=150_000.0, **extra):
    document = {
        "schema": PERFBENCH_SCHEMA,
        "mode": "quick",
        "seed": 42,
        "engine_events_per_sec": engine,
        "monitor_ops_per_sec": monitor,
        "fig3_quick_seconds": fig3,
        "prefetcher_ops_per_sec": prefetcher,
    }
    document.update(extra)
    return document


def test_compare_flags_rate_and_seconds_regressions():
    baseline = _document()
    # Rates halve and seconds double: exactly at a 2x factor.
    current = _document(engine=400_000.0, monitor=15_000.0, fig3=2.5,
                        prefetcher=60_000.0)
    rows = compare(current, baseline, max_regression=2.0)
    verdicts = {metric: ok for metric, _c, _r, _f, ok in rows}
    assert verdicts == {
        "engine_events_per_sec": False,  # 2.5x slower
        "monitor_ops_per_sec": True,
        "fig3_quick_seconds": False,  # 2.5x slower
        "prefetcher_ops_per_sec": False,  # 2.5x slower
    }


def test_compare_skips_but_missing_metrics_reports():
    baseline = _document()
    del baseline["prefetcher_ops_per_sec"]  # pre-prefetcher baseline
    current = _document()
    compared = {metric for metric, *_rest in compare(current, baseline, 2.0)}
    assert "prefetcher_ops_per_sec" not in compared
    assert missing_metrics(current, baseline) == [
        ("prefetcher_ops_per_sec", "baseline")
    ]
    # And the other direction: the current run lacks a baseline metric.
    partial = _document()
    del partial["prefetcher_ops_per_sec"]
    assert missing_metrics(partial, _document()) == [
        ("prefetcher_ops_per_sec", "current run")
    ]
    # Absent from both sides: not reported.
    assert missing_metrics(baseline, dict(baseline)) == []


def test_compare_accepts_improvements_and_threshold():
    baseline = _document()
    current = _document(engine=3_000_000.0, monitor=20_000.0, fig3=0.4)
    assert all(ok for *_ignored, ok in compare(current, baseline, 2.0))
    # A 1.9x slowdown passes the generous 2x gate.
    slower = _document(engine=1_000_000.0 / 1.9)
    assert all(ok for *_ignored, ok in compare(slower, baseline, 2.0))


def test_load_reference_prefers_matching_mode(tmp_path):
    trajectory = {
        "schema": PERFBENCH_SCHEMA,
        "entries": [
            _document(engine=1.0, mode="full"),
            _document(engine=2.0, mode="quick"),
            _document(engine=3.0, mode="full"),
        ],
    }
    path = tmp_path / "wallclock.json"
    path.write_text(json.dumps(trajectory))
    assert load_reference(str(path), "quick")["engine_events_per_sec"] == 2.0
    assert load_reference(str(path), "full")["engine_events_per_sec"] == 3.0
    # Unknown mode: newest entry of any mode.
    assert load_reference(str(path), "other")["engine_events_per_sec"] == 3.0


def test_load_reference_accepts_bare_documents(tmp_path):
    path = tmp_path / "result.json"
    path.write_text(json.dumps(_document(engine=7.0)))
    assert load_reference(str(path), "quick")["engine_events_per_sec"] == 7.0


def test_load_reference_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "something-else/9"}))
    with pytest.raises(ValueError, match="schema"):
        load_reference(str(path), "quick")


@pytest.fixture
def canned_suite(monkeypatch):
    """Replace the measurement with a canned document: CLI wiring only."""

    def fake_run_suite(quick=False, seed=42, reps=None, sizes=None):
        return _document(mode="quick" if quick else "full", seed=seed)

    monkeypatch.setattr(perfbench_cli, "run_suite", fake_run_suite)


def _run_cli(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = perfbench_cli.main(argv)
    return code, stdout.getvalue()


def test_cli_prints_all_metrics_and_writes_json(canned_suite, tmp_path):
    out = tmp_path / "pb.json"
    code, text = _run_cli(["--quick", "--json", str(out)])
    assert code == 0
    for metric, _direction in perfbench_cli.METRIC_DIRECTIONS:
        assert metric in text
    with open(out) as handle:
        document = json.load(handle)
    assert document["schema"] == PERFBENCH_SCHEMA


def test_cli_compare_passes_against_equal_baseline(canned_suite, tmp_path):
    baseline = tmp_path / "base.json"
    baseline.write_text(json.dumps(_document()))
    code, text = _run_cli(["--quick", "--compare", str(baseline)])
    assert code == 0
    assert "REGRESSION" not in text


def test_cli_compare_reports_baseline_missing_metric(canned_suite, tmp_path):
    baseline = _document()
    del baseline["prefetcher_ops_per_sec"]
    path = tmp_path / "base.json"
    path.write_text(json.dumps(baseline))
    code, text = _run_cli(["--quick", "--compare", str(path)])
    assert code == 0
    assert "prefetcher_ops_per_sec" in text
    assert "missing from baseline" in text


def test_cli_compare_fails_on_regression(canned_suite, tmp_path):
    baseline = tmp_path / "base.json"
    baseline.write_text(
        json.dumps(_document(engine=5_000_000.0))  # 5x current
    )
    code, text = _run_cli(["--quick", "--compare", str(baseline)])
    assert code == 1
    assert "REGRESSION" in text
