"""The campaign CLI: ``python -m repro.scenario run|validate|list|report``.

``run`` accepts either a path to a scenario file or a bare template
name resolved against the bundled ``scenarios/`` directory (override
with ``REPRO_SCENARIOS_DIR``).  ``--report`` writes the
``repro-scenario-metrics/1`` KPI document; ``--trace`` writes a
``chrome://tracing`` event trace.  Neither the report nor stdout ever
mentions worker or partition counts: the same scenario + seed must
produce byte-identical output at any parallelism, and the CI
``scenario-smoke`` job ``cmp``-pins exactly that.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError, ScenarioError
from ..obs import EventTracer, export_chrome_trace
from .runner import run_scenario
from .schema import load_scenario, validate_report

__all__ = ["main", "scenarios_dir", "template_names", "resolve_scenario"]


def scenarios_dir() -> Optional[str]:
    """The bundled template directory, or ``None`` outside a checkout.

    ``REPRO_SCENARIOS_DIR`` overrides; otherwise walk up from this
    package looking for a ``scenarios/`` directory (the repo keeps it
    at the root, next to ``src/``).
    """
    override = os.environ.get("REPRO_SCENARIOS_DIR")
    if override:
        return override if os.path.isdir(override) else None
    here = os.path.dirname(os.path.abspath(__file__))
    for _ in range(6):
        candidate = os.path.join(here, "scenarios")
        if os.path.isdir(candidate):
            return candidate
        parent = os.path.dirname(here)
        if parent == here:
            break
        here = parent
    return None


def template_names() -> List[str]:
    """Bundled template names (file stems), sorted."""
    directory = scenarios_dir()
    if directory is None:
        return []
    return sorted(
        name[:-len(".json")]
        for name in os.listdir(directory)
        if name.endswith(".json")
    )


def resolve_scenario(target: str) -> str:
    """A path as given, or a template name against ``scenarios/``."""
    if os.path.exists(target):
        return target
    names = template_names()
    directory = scenarios_dir()
    if directory is not None and target in names:
        return os.path.join(directory, f"{target}.json")
    close = difflib.get_close_matches(target, names, n=1, cutoff=0.6)
    hint = f"  Did you mean {close[0]!r}?" if close else ""
    known = ", ".join(names) if names else "none found"
    raise ScenarioError(
        f"no such scenario file or template {target!r}.{hint}\n"
        f"Bundled templates: {known}"
    )


def _write_json(path: str, document: object) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.scenario",
        description="Run declarative FluidMem scenarios "
                    "(repro-scenario/1 documents)",
    )
    commands = parser.add_subparsers(dest="command")

    commands.add_parser(
        "list", help="list the bundled scenario templates"
    )

    validate = commands.add_parser(
        "validate", help="validate scenario files without running them"
    )
    validate.add_argument("paths", nargs="+", metavar="PATH")

    run = commands.add_parser(
        "run", help="run a scenario (template name or file path)"
    )
    run.add_argument("target", metavar="SCENARIO")
    run.add_argument("--quick", action="store_true",
                     help="smoke-test scale (the scenario's quick_* "
                          "knobs)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario's seed")
    run.add_argument("--workers", type=int, default=1, metavar="N",
                     help="fan fleet scenarios over N processes; "
                          "reports are byte-identical at any N")
    run.add_argument("--report", metavar="PATH", default=None,
                     help="write the repro-scenario-metrics/1 KPI "
                          "report as JSON")
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="write a chrome://tracing event trace")

    report = commands.add_parser(
        "report", help="summarize a previously written KPI report"
    )
    report.add_argument("path", metavar="PATH")
    return parser


def _cmd_list() -> int:
    names = template_names()
    if not names:
        print("no scenarios/ directory found "
              "(set REPRO_SCENARIOS_DIR)", file=sys.stderr)
        return 1
    directory = scenarios_dir()
    rows = []
    for name in names:
        try:
            scenario = load_scenario(
                os.path.join(directory, f"{name}.json")
            )
            rows.append((name, scenario.kind, scenario.description))
        except ReproError as exc:
            rows.append((name, "INVALID", str(exc).splitlines()[0]))
    width = max(len(row[0]) for row in rows)
    kind_width = max(len(row[1]) for row in rows)
    for name, kind, description in rows:
        print(f"{name:<{width}}  {kind:<{kind_width}}  {description}")
    return 0


def _cmd_validate(paths: Sequence[str]) -> int:
    failures = 0
    for path in paths:
        try:
            scenario = load_scenario(path)
        except ReproError as exc:
            failures += 1
            print(f"FAIL  {path}")
            print(f"      {exc}".replace("\n", "\n      "))
            continue
        print(f"ok    {path}  ({scenario.name}, kind={scenario.kind})")
    if failures:
        noun = "file" if failures == 1 else "files"
        print(f"\n{failures} {noun} failed validation", file=sys.stderr)
        return 1
    return 0


def _print_report(document: Dict[str, object]) -> None:
    print(
        f"scenario {document['scenario']} "
        f"(kind={document['kind']}, seed={document['seed']}, "
        f"quick={document['quick']})"
    )
    if document["description"]:
        print(f"  {document['description']}")
    print("  KPIs:")
    kpis = document["kpis"]
    width = max(len(name) for name in kpis)
    for name in sorted(kpis):
        print(f"    {name:<{width}}  {kpis[name]}")
    for group_name in sorted(document["groups"]):
        group = document["groups"][group_name]
        print(f"  {group_name}:")
        for member in group:
            fields = ", ".join(
                f"{key}={value}"
                for key, value in group[member].items()
            )
            print(f"    {member}: {fields}")


def _cmd_run(args) -> int:
    path = resolve_scenario(args.target)
    scenario = load_scenario(path)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    outcome = run_scenario(
        scenario,
        quick=args.quick,
        workers=args.workers,
    )
    _print_report(outcome.report)
    if args.report is not None:
        _write_json(args.report, outcome.report)
        print(f"report written to {args.report}", file=sys.stderr)
    if args.trace is not None:
        tracers: List[Tuple[str, EventTracer]] = []
        if outcome.tracer is not None:
            tracers.append((scenario.name, outcome.tracer))
        _write_json(args.trace, export_chrome_trace(tracers))
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0


def _cmd_report(path: str) -> int:
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read report {path!r}: {exc}")
    validate_report(document)
    _print_report(document)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("no command given (list, validate, run, report)")
    if args.command == "run":
        if args.workers < 1:
            parser.error("--workers needs a positive process count")
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "validate":
            return _cmd_validate(args.paths)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_report(args.path)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
