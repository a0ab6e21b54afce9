"""The policy tournament: report shape, determinism, worker parity,
and the default-combo-equals-legacy guarantee."""

import contextlib
import io
import json

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.tournament import (
    HANDLER_COUNTS,
    TOURNAMENT_WORKLOADS,
    _cell_config,
    run_tournament,
)
from repro.core import FluidMemConfig
from repro.policy.registry import PREFETCH_POLICIES


def _dump(result):
    """Canonical bytes of a tournament result (what --metrics pins)."""
    return json.dumps(
        {"cells": result.cells, "ranking": result.ranking},
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def quick_result():
    return run_tournament(quick=True, seed=42)


# ----------------------------------------------------------------- shape

def test_quick_tournament_covers_the_full_grid(quick_result):
    combos = len(PREFETCH_POLICIES) * len(HANDLER_COUNTS)
    assert combos == 6
    assert len(quick_result.cells) == combos * len(TOURNAMENT_WORKLOADS)
    assert len(quick_result.ranking) == combos
    seen = {
        (cell["combo"], cell["workload"]) for cell in quick_result.cells
    }
    assert len(seen) == len(quick_result.cells)  # no duplicate cells


def test_cells_carry_the_policy_lab_telemetry(quick_result):
    for cell in quick_result.cells:
        assert cell["faults"] > 0
        assert cell["p99_us"] >= cell["p50_us"] >= 0.0
        if cell["prefetch"] == "none":
            assert cell["prefetches_issued"] == 0


def test_ranking_is_sorted_and_dense(quick_result):
    ranking = quick_result.ranking
    assert [entry["rank"] for entry in ranking] == list(
        range(1, len(ranking) + 1)
    )
    keys = [
        (entry["mean_p99_us"], entry["mean_p50_us"], entry["combo"])
        for entry in ranking
    ]
    assert keys == sorted(keys)
    assert quick_result.winner == ranking[0]["combo"]


def test_leap_beats_sequential_on_the_strided_market(quick_result):
    """The market cell's stride-3 scanner is the discriminating input:
    Leap learns the trend, a fixed +1..+4 prefetcher cannot."""
    def hit_rate(prefetch):
        cells = [
            c for c in quick_result.cells
            if c["workload"] == "market" and c["prefetch"] == prefetch
        ]
        issued = sum(c["prefetches_issued"] for c in cells)
        hits = sum(c["prefetch_hits"] for c in cells)
        return hits / issued if issued else 0.0

    assert hit_rate("leap") > hit_rate("sequential")


# ----------------------------------------------------------- determinism

def test_same_seed_is_byte_identical(quick_result):
    rerun = run_tournament(quick=True, seed=42)
    assert _dump(rerun) == _dump(quick_result)


def test_workers_do_not_change_the_bytes(quick_result):
    """The acceptance bar: N workers, same ranked report bytes."""
    parallel = run_tournament(quick=True, seed=42, workers=4)
    assert _dump(parallel) == _dump(quick_result)
    assert parallel.workers == 4


# ------------------------------------------------- default-combo parity

def test_default_combo_config_is_the_shipped_default():
    """Selecting none+h1 explicitly must resolve to the same
    machinery an unconfigured monitor gets — the 'default combo is
    byte-identical to today' guarantee starts here."""
    import dataclasses

    from repro.policy import resolve_prefetcher

    cell = _cell_config("none", 1)
    default = FluidMemConfig()
    # The spelled-out policy names differ ("none" vs "sequential at
    # depth 0") but both resolve to no prefetcher.
    assert cell == dataclasses.replace(default, prefetch_policy="none")
    assert resolve_prefetcher(cell.prefetch_policy,
                              cell.prefetch_pages) is None
    assert resolve_prefetcher(default.prefetch_policy,
                              default.prefetch_pages) is None
    assert cell.fault_handlers == default.fault_handlers == 1


def test_default_combo_matches_unconfigured_platform():
    """Same workload, one platform with config=None and one with the
    tournament's default combo: every counter and latency percentile
    must match bit for bit."""
    from repro.bench.platform import build_platform
    from repro.obs import NULL_OBS
    from repro.workloads import Pmbench, PmbenchConfig

    def run_one(config):
        platform = build_platform(
            "fluidmem-dram", memory_scale=1.0 / 1024, seed=11,
            fluidmem_config=config, obs=NULL_OBS,
        )
        bench = Pmbench(
            platform.env,
            platform.port,
            platform.workload_base,
            PmbenchConfig(
                wss_pages=platform.shape.wss_pages(2.0),
                read_ratio=0.5,
                measured_accesses=400,
            ),
            rng=platform.streams.stream("pmbench"),
        )
        platform.run(bench.run())
        monitor = platform.monitor
        return json.dumps({
            "counters": monitor.counters.as_dict(),
            "p50": monitor.fault_latency.percentile(50.0),
            "p99": monitor.fault_latency.percentile(99.0),
            "now": platform.env.now,
        }, sort_keys=True)

    assert run_one(None) == run_one(_cell_config("none", 1))


# ------------------------------------------------------------------- cli

def _run_cli(tmp_path, tag, extra=()):
    path = tmp_path / f"tournament-{tag}.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench_main([
            "tournament", "--quick", "--seed", "42",
            "--metrics", str(path), *extra,
        ])
    assert code == 0
    return path.read_bytes(), out.getvalue()


def test_cli_emits_one_ranked_metrics_document(tmp_path):
    payload, stdout = _run_cli(tmp_path, "serial")
    document = json.loads(payload)
    assert document["schema"] == "repro-bench-metrics/1"
    snapshot = document["experiments"]["tournament"]
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    assert "tournament_cells" in counters
    assert any(key.startswith("tournament_faults{") for key in counters)
    assert any(key.startswith("tournament_rank{") for key in gauges)
    assert any(
        key.startswith("tournament_mean_p99_us{") for key in gauges
    )
    assert "Winner:" in stdout
    assert "rank" in stdout


def test_cli_workers_metrics_are_byte_identical(tmp_path):
    serial, _ = _run_cli(tmp_path, "w1", extra=("--workers", "1"))
    parallel, _ = _run_cli(tmp_path, "w4", extra=("--workers", "4"))
    assert serial == parallel


def test_cli_rejects_bad_worker_count(tmp_path):
    with pytest.raises(SystemExit):
        with contextlib.redirect_stderr(io.StringIO()):
            bench_main(["tournament", "--quick", "--workers", "0"])


def test_market_cell_addresses_fit_the_vm():
    """The market tenants index pages [0, 2*wss): keep that inside the
    VM's memory so the cell never faults outside its region."""
    from repro.bench.tournament import _run_market_cell

    cell = _run_market_cell({
        "prefetch": "leap", "handlers": 4,
        "workload": "market", "quick": True, "seed": 3,
        "faults": "none",
    })
    assert cell["faults"] > 0
    assert cell["handlers"] == 4
    assert cell["sim_time_us"] > 0.0
