"""Declarative scenario platform: experiments as data, not modules.

Every experiment in :mod:`repro.bench` is hand-coded Python; this
package makes the next hundred workloads *data files*.  A scenario is a
JSON document against the strict ``repro-scenario/1`` schema — topology,
VM fleet, workload mix, fault plan, policy combo, check/obs switches —
validated with precise per-path errors and did-you-mean suggestions,
compiled onto the existing stack (:mod:`repro.bench.platform`,
:class:`~repro.core.FluidMemConfig`, :class:`~repro.faults.FaultPlan`,
:mod:`repro.policy`, the :mod:`repro.parallel` pool), and run by the
campaign CLI::

    python -m repro.scenario list
    python -m repro.scenario validate scenarios/*.json
    python -m repro.scenario run web-diurnal --quick --workers 4 \
        --report report.json --trace trace.json
    python -m repro.scenario report report.json

Every run emits a ``repro-scenario-metrics/1`` KPI report and, on
request, a replayable ``chrome://tracing`` trace via the existing
:mod:`repro.obs` tracer.  Runs are determinism-pinned: identical
scenario + seed produce a byte-identical report at any ``--workers``
count.
"""

from __future__ import annotations

from .schema import (
    REPORT_SCHEMA,
    SCENARIO_KINDS,
    SCENARIO_SCHEMA,
    Scenario,
    load_scenario,
    validate_document,
    validate_report,
)
from .runner import ScenarioOutcome, run_scenario

__all__ = [
    "REPORT_SCHEMA",
    "SCENARIO_KINDS",
    "SCENARIO_SCHEMA",
    "Scenario",
    "ScenarioOutcome",
    "load_scenario",
    "run_scenario",
    "validate_document",
    "validate_report",
]
