"""Campaign driver: sweep seeds × schedules × scenarios, shrink failures.

The campaign is the harness's outer loop.  For every combination it
runs :func:`repro.check.scenarios.run_scenario`; a raised
:class:`~repro.errors.InvariantViolation` is shrunk to the smallest
operation count that still reproduces (the whole stack is
deterministic for a fixed (scenario, seed, schedule, ops, faults)
tuple, so binary search over ``ops`` is sound), then reported as a
pytest-ready one-liner::

    REPRO_CHECK_SCENARIO=kv REPRO_CHECK_SEED=2 ... \\
        PYTHONPATH=src python -m pytest tests/check/test_repro_entry.py -x -q

``tests/check/test_repro_entry.py`` reads those variables back and
replays exactly that run, so a CI campaign failure lands in a
debugger-friendly single test.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import InvariantViolation, ReproError
from ..parallel.pool import PoolStats, run_tasks
from .scenarios import DEFAULT_FAULTS, SCENARIOS, run_scenario

__all__ = ["CampaignFailure", "CampaignReport", "repro_command",
           "report_json", "run_campaign"]

#: Environment variables understood by tests/check/test_repro_entry.py.
ENV_PREFIX = "REPRO_CHECK"


@dataclass
class CampaignFailure:
    """One (shrunk) failing run."""

    scenario: str
    seed: int
    schedule: str
    faults: Optional[str]
    bug: Optional[str]
    ops: int                   # smallest op count that still fails
    original_ops: int          # op count the failure was found at
    invariant: str             # which invariant fired (or "error")
    message: str

    @property
    def command(self) -> str:
        return repro_command(
            self.scenario, self.seed, self.schedule, self.ops,
            self.faults, self.bug,
        )


@dataclass
class CampaignReport:
    """Aggregate outcome of one campaign."""

    runs: int = 0
    passed: int = 0
    failures: List[CampaignFailure] = field(default_factory=list)
    summaries: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def repro_command(
    scenario: str,
    seed: int,
    schedule: str,
    ops: int,
    faults: Optional[str],
    bug: Optional[str],
) -> str:
    """The pytest one-liner that replays one exact run."""
    parts = [
        f"{ENV_PREFIX}_SCENARIO={scenario}",
        f"{ENV_PREFIX}_SEED={seed}",
        f"{ENV_PREFIX}_SCHEDULE={schedule}",
        f"{ENV_PREFIX}_OPS={ops}",
    ]
    if faults:
        parts.append(f"{ENV_PREFIX}_FAULTS={faults}")
    if bug:
        parts.append(f"{ENV_PREFIX}_BUG={bug}")
    parts.append(
        "PYTHONPATH=src python -m pytest "
        "tests/check/test_repro_entry.py -x -q"
    )
    return " ".join(parts)


def _attempt(
    scenario: str, seed: int, schedule: str, ops: int,
    faults: Optional[str], bug: Optional[str],
) -> Optional[ReproError]:
    """One run; returns the failure (if any) instead of raising."""
    try:
        run_scenario(scenario, seed=seed, schedule=schedule, ops=ops,
                     faults=faults, bug=bug)
    except ReproError as exc:
        return exc
    return None


def shrink_ops(
    scenario: str, seed: int, schedule: str, start_ops: int,
    faults: Optional[str], bug: Optional[str],
    emit: Callable[[str], None],
) -> int:
    """Binary-search the smallest ``ops`` that still fails.

    Failures are not guaranteed monotone in ``ops`` (a shorter run is
    a different schedule), so the search keeps the best *verified*
    failing count and falls back to ``start_ops`` if nothing smaller
    reproduces.
    """
    best = start_ops
    lo, hi = 1, start_ops
    probes = 0
    while lo < hi and probes < 16:
        mid = (lo + hi) // 2
        probes += 1
        if _attempt(scenario, seed, schedule, mid, faults, bug):
            best = mid
            hi = mid
        else:
            lo = mid + 1
    if best != start_ops:
        emit(f"  shrunk: ops {start_ops} -> {best} "
             f"({probes} probe(s))")
    return best


def _campaign_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one (scenario, seed, schedule) cell; never raises.

    The unit of work the campaign hands to :func:`repro.parallel.pool.
    run_tasks`: fully self-contained, picklable in and out, and with
    all human-readable output captured as ``lines`` so the parent can
    replay it in *cell order* — the campaign transcript is therefore
    byte-identical at any worker count.
    """
    scenario = payload["scenario"]
    seed = payload["seed"]
    schedule = payload["schedule"]
    plan = payload["faults"]
    ops = payload["ops"]
    quick = payload["quick"]
    bug = payload["bug"]
    shrink = payload["shrink"]
    lines: List[str] = []
    tag = (f"{scenario} seed={seed} schedule={schedule}"
           + (f" faults={plan}" if plan else "")
           + (f" bug={bug}" if bug else ""))
    try:
        summary = run_scenario(
            scenario, seed=seed, schedule=schedule,
            ops=ops, faults=plan, quick=quick, bug=bug,
        )
    except ReproError as exc:
        lines.append(f"FAIL {tag}: {exc}")
        failed_ops = ops if ops is not None else \
            _default_ops(scenario, quick)
        final_ops = failed_ops
        if shrink:
            final_ops = shrink_ops(
                scenario, seed, schedule, failed_ops,
                plan, bug, lines.append,
            )
        invariant = getattr(exc, "invariant", "error")
        failure = CampaignFailure(
            scenario=scenario, seed=seed, schedule=schedule,
            faults=plan, bug=bug, ops=final_ops,
            original_ops=failed_ops, invariant=invariant,
            message=str(exc),
        )
        lines.append(f"  reproduce with:\n    {failure.command}")
        return {"ok": False, "failure": asdict(failure), "lines": lines}
    lines.append(f"ok   {tag}")
    return {"ok": True, "summary": summary, "lines": lines}


def run_campaign(
    scenarios: Sequence[str],
    seeds: Sequence[int],
    schedules: Sequence[str],
    faults: Any = "default",
    ops: Optional[int] = None,
    quick: bool = True,
    bug: Optional[str] = None,
    shrink: bool = True,
    emit: Optional[Callable[[str], None]] = None,
    workers: int = 1,
    pool_emit: Optional[Callable[[str], None]] = None,
    pool_stats: Optional[PoolStats] = None,
) -> CampaignReport:
    """Sweep the grid; shrink and report every failure found.

    ``workers > 1`` fans the grid cells out over that many processes
    via :mod:`repro.parallel`; results (and the ``emit`` transcript)
    are merged in grid order, so the returned report is identical at
    any worker count.  ``pool_emit`` receives worker-lifecycle notices
    (crash/retry), which are timing-dependent and deliberately kept
    out of the deterministic transcript.
    """
    emit = emit or (lambda line: None)
    cells: List[Dict[str, Any]] = []
    for scenario in scenarios:
        if scenario not in SCENARIOS:
            raise ReproError(
                f"unknown scenario {scenario!r}; choose from "
                f"{sorted(SCENARIOS)}"
            )
        plan = DEFAULT_FAULTS[scenario] if faults == "default" else faults
        for seed in seeds:
            for schedule in schedules:
                cells.append({
                    "scenario": scenario, "seed": seed,
                    "schedule": schedule, "faults": plan, "ops": ops,
                    "quick": quick, "bug": bug, "shrink": shrink,
                })
    results = run_tasks(
        _campaign_cell, cells, workers=workers,
        emit=pool_emit, stats=pool_stats,
    )
    report = CampaignReport()
    for outcome in results:
        report.runs += 1
        for line in outcome["lines"]:
            emit(line)
        if outcome["ok"]:
            report.passed += 1
            report.summaries.append(outcome["summary"])
        else:
            report.failures.append(CampaignFailure(**outcome["failure"]))
    return report


def report_json(report: CampaignReport) -> str:
    """Canonical JSON rendering of a campaign report.

    Sorted keys, fixed indentation, no timing or host information, and
    — critically — nothing about how many workers produced it: the
    bytes depend only on the grid and its outcomes, which is what the
    CI ``campaign-workers`` job diffs.
    """
    doc = {
        "schema": "repro-check-report/1",
        "runs": report.runs,
        "passed": report.passed,
        "failures": [
            {**asdict(failure), "command": failure.command}
            for failure in report.failures
        ],
        "summaries": report.summaries,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _default_ops(scenario: str, quick: bool) -> int:
    from .scenarios import DEFAULT_OPS, FULL_MULTIPLIER

    return DEFAULT_OPS[scenario] * (1 if quick else FULL_MULTIPLIER)
