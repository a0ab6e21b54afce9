"""The ``repro-scenario/1`` schema: strict validation with suggestions.

A scenario document is plain JSON.  Validation is *strict*: every
unknown field is an error (with a did-you-mean suggestion when a known
field is close), every value is type- and range-checked, and every name
drawn from a vocabulary — scenario kinds, bench platforms, fault plans,
prefetch policies, workload patterns — is checked against the live
registry it compiles into, so a scenario cannot name a policy the
:mod:`repro.policy` registry does not hold.

All issues are collected in document order and raised as one
:class:`~repro.errors.ScenarioError`, each line carrying the JSON path
(``workload.tenants[2].pattern.theta``) of the offending field — the
format the golden-file tests pin.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ScenarioError
from ..faults import NAMED_PLANS
from ..policy.registry import DEFAULT_PREFETCH_POLICY, PREFETCH_POLICIES

__all__ = [
    "SCENARIO_SCHEMA",
    "REPORT_SCHEMA",
    "SCENARIO_KINDS",
    "PATTERN_KINDS",
    "LOAD_KINDS",
    "PolicySpec",
    "SingleVmSpec",
    "ClusterSpec",
    "MarketSpec",
    "SpikeSpec",
    "LoadSpec",
    "PatternSpec",
    "FleetTenantSpec",
    "FleetChaosSpec",
    "FleetSpec",
    "Scenario",
    "validate_document",
    "validate_report",
    "load_scenario",
]

#: Version tag every scenario document must carry.
SCENARIO_SCHEMA = "repro-scenario/1"
#: Version tag of the KPI report ``run`` emits.
REPORT_SCHEMA = "repro-scenario-metrics/1"

#: The four scenario kinds and what they compile into.
SCENARIO_KINDS = ("single-vm", "cluster", "market", "fleet")
#: Access-pattern kinds a fleet tenant may declare.
PATTERN_KINDS = ("zipfian", "uniform", "sweep", "mixed")
#: Load-profile kinds (how a tenant's access rate varies over ticks).
LOAD_KINDS = ("constant", "diurnal")

_SINGLE_VM_ENGINES = ("pmbench",)


# ---------------------------------------------------------------------------
# Compiled scenario dataclasses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicySpec:
    """The policy combo compiled into :class:`~repro.core.FluidMemConfig`."""

    prefetch: str = DEFAULT_PREFETCH_POLICY
    prefetch_pages: int = 0
    fault_handlers: int = 1


@dataclass(frozen=True)
class SingleVmSpec:
    """One platform, one VM, one measured workload (Figure-3 shape)."""

    platform: str = "fluidmem-ramcloud"
    memory_scale_denom: int = 1024
    remote_factor: int = 4
    engine: str = "pmbench"
    wss_dram_fraction: float = 2.0
    read_ratio: float = 0.5
    accesses: int = 20_000
    quick_accesses: int = 2_000
    fault_plan: Optional[str] = None


@dataclass(frozen=True)
class ClusterSpec:
    """Shard scale-out + crash recovery (the ``cluster`` experiment)."""

    max_nodes: int = 8
    replication: int = 2
    pages: int = 2_000
    quick_pages: int = 400


@dataclass(frozen=True)
class MarketSpec:
    """The multi-tenant marketplace fleet (the ``market`` experiment)."""

    fleet_scale: int = 4
    quick_fleet_scale: int = 2
    ticks: int = 90
    quick_ticks: int = 18
    chaos: bool = True


@dataclass(frozen=True)
class SpikeSpec:
    """A short load spike on top of a tenant's base profile."""

    at_tick: int
    multiplier: float
    duration_ticks: int = 2

    def covers(self, tick: int) -> bool:
        return self.at_tick <= tick < self.at_tick + self.duration_ticks


@dataclass(frozen=True)
class LoadSpec:
    """How a tenant's access rate varies over the run."""

    kind: str = "constant"
    period_ticks: int = 48
    peak_multiplier: float = 3.0
    spikes: Tuple[SpikeSpec, ...] = ()


@dataclass(frozen=True)
class PatternSpec:
    """Which pages a tenant touches."""

    kind: str = "zipfian"
    theta: float = 0.99
    stride: int = 1
    shuffle_every_ticks: int = 0
    zipf_fraction: float = 0.8


@dataclass(frozen=True)
class FleetTenantSpec:
    """One named group of identical scenario-fleet VMs."""

    name: str
    vms: int
    footprint_pages: int
    capacity_pages: int
    accesses_per_tick: int = 24
    quick_vms: int = 0  # 0 = derived: max(1, vms // 4)
    pattern: PatternSpec = field(default_factory=PatternSpec)
    load: LoadSpec = field(default_factory=LoadSpec)

    def vm_count(self, quick: bool) -> int:
        if not quick:
            return self.vms
        return self.quick_vms or max(1, self.vms // 4)


@dataclass(frozen=True)
class FleetChaosSpec:
    """Seeded fleet chaos: fail-stop crashes and demand surges."""

    crash_fraction: float = 0.0
    surge_fraction: float = 0.0

    @property
    def enabled(self) -> bool:
        return self.crash_fraction > 0 or self.surge_fraction > 0


@dataclass(frozen=True)
class FleetSpec:
    """The scenario-owned fleet engine (:mod:`repro.scenario.workloads`)."""

    tenants: Tuple[FleetTenantSpec, ...]
    ticks: int = 96
    quick_ticks: int = 24
    tick_us: float = 10_000.0
    block_vms: int = 8
    chaos: FleetChaosSpec = field(default_factory=FleetChaosSpec)

    def tick_count(self, quick: bool) -> int:
        return self.quick_ticks if quick else self.ticks


@dataclass(frozen=True)
class Scenario:
    """One validated scenario document, ready to compile and run."""

    name: str
    kind: str
    seed: int = 42
    description: str = ""
    policy: PolicySpec = field(default_factory=PolicySpec)
    invariants: bool = True
    trace_enabled: bool = True
    single_vm: Optional[SingleVmSpec] = None
    cluster: Optional[ClusterSpec] = None
    market: Optional[MarketSpec] = None
    fleet: Optional[FleetSpec] = None


# ---------------------------------------------------------------------------
# Validation machinery
# ---------------------------------------------------------------------------

class _Issues:
    """Ordered issue collector; one ScenarioError at the end."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lines: List[str] = []

    def error(self, path: str, message: str) -> None:
        self.lines.append(f"{path}: {message}")

    def raise_if_any(self) -> None:
        if not self.lines:
            return
        noun = "issue" if len(self.lines) == 1 else "issues"
        body = "\n".join(f"  - {line}" for line in self.lines)
        raise ScenarioError(
            f"scenario {self.name!r} is invalid "
            f"({len(self.lines)} {noun}):\n{body}"
        )


def _suggest(word: str, options: Sequence[str]) -> str:
    """``"  Did you mean 'x'?"`` when a close known name exists."""
    close = difflib.get_close_matches(
        str(word), sorted(options), n=1, cutoff=0.6
    )
    return f"  Did you mean {close[0]!r}?" if close else ""


def _check_keys(
    issues: _Issues, path: str, doc: Dict[str, object],
    known: Sequence[str],
) -> None:
    for key in doc:
        if key not in known:
            suggestion = _suggest(key, known)
            issues.error(
                _join(path, str(key)),
                f"unknown field.{suggestion}" if suggestion
                else f"unknown field (known fields: "
                     f"{', '.join(sorted(known))})",
            )


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _get(
    issues: _Issues, path: str, doc: Dict[str, object], key: str,
    types, default, type_label: str, required: bool = False,
):
    """Fetch + type-check one field; returns the default on any issue."""
    if key not in doc:
        if required:
            issues.error(_join(path, key), "required field is missing")
        return default
    value = doc[key]
    # bool is an int subclass; never let true/false satisfy an int slot.
    if isinstance(value, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        issues.error(
            _join(path, key),
            f"expected {type_label}, got a boolean",
        )
        return default
    if not isinstance(value, types):
        issues.error(
            _join(path, key),
            f"expected {type_label}, got {type(value).__name__}",
        )
        return default
    return value


def _get_str(issues, path, doc, key, default="", required=False) -> str:
    return _get(issues, path, doc, key, str, default, "a string",
                required=required)


def _get_int(
    issues, path, doc, key, default, minimum=None, maximum=None,
    required=False,
) -> int:
    value = _get(issues, path, doc, key, int, default, "an integer",
                 required=required)
    if minimum is not None and value < minimum:
        issues.error(_join(path, key), f"must be >= {minimum}, got {value}")
        return default
    if maximum is not None and value > maximum:
        issues.error(_join(path, key), f"must be <= {maximum}, got {value}")
        return default
    return value


def _get_float(
    issues, path, doc, key, default, minimum=None, maximum=None,
    exclusive_min=False,
) -> float:
    value = _get(issues, path, doc, key, (int, float), default, "a number")
    value = float(value)
    if minimum is not None:
        bad = value <= minimum if exclusive_min else value < minimum
        if bad:
            op = ">" if exclusive_min else ">="
            issues.error(_join(path, key), f"must be {op} {minimum}, "
                                           f"got {value}")
            return float(default)
    if maximum is not None and value > maximum:
        issues.error(_join(path, key), f"must be <= {maximum}, got {value}")
        return float(default)
    return value


def _get_bool(issues, path, doc, key, default) -> bool:
    return _get(issues, path, doc, key, bool, default, "a boolean")


def _get_choice(
    issues, path, doc, key, options: Sequence[str], default: str,
    noun: str, required: bool = False,
) -> str:
    value = _get_str(issues, path, doc, key, default, required=required)
    if key in doc and isinstance(doc[key], str) and value not in options:
        issues.error(
            _join(path, key),
            f"unknown {noun} {value!r}.{_suggest(value, options)}"
            if _suggest(value, options) else
            f"unknown {noun} {value!r} (choose from "
            f"{', '.join(sorted(options))})",
        )
        return default
    return value


def _get_section(
    issues, path, doc, key, required=False,
) -> Optional[Dict[str, object]]:
    """An object-valued section; ``None`` when absent/null/mistyped."""
    if key not in doc or doc[key] is None:
        if required:
            issues.error(_join(path, key), "required section is missing")
        return None
    value = doc[key]
    if not isinstance(value, dict):
        issues.error(
            _join(path, key),
            f"expected an object, got {type(value).__name__}",
        )
        return None
    return value


# ---------------------------------------------------------------------------
# Section validators
# ---------------------------------------------------------------------------

def _validate_policy(issues: _Issues, doc: Dict[str, object]) -> PolicySpec:
    path = "policy"
    _check_keys(issues, path, doc,
                ("prefetch", "prefetch_pages", "fault_handlers"))
    prefetch = _get_choice(
        issues, path, doc, "prefetch", PREFETCH_POLICIES,
        DEFAULT_PREFETCH_POLICY, "prefetch policy",
    )
    prefetch_pages = _get_int(issues, path, doc, "prefetch_pages", 0,
                              minimum=0, maximum=64)
    handlers = _get_int(issues, path, doc, "fault_handlers", 1,
                        minimum=1, maximum=64)
    if prefetch == "none" and prefetch_pages > 0:
        issues.error(
            f"{path}.prefetch_pages",
            "prefetch policy 'none' cannot take a positive depth",
        )
        prefetch_pages = 0
    return PolicySpec(
        prefetch=prefetch, prefetch_pages=prefetch_pages,
        fault_handlers=handlers,
    )


def _validate_single_vm(
    issues: _Issues,
    topology: Optional[Dict[str, object]],
    workload: Optional[Dict[str, object]],
    faults: Optional[Dict[str, object]],
) -> SingleVmSpec:
    from ..bench.platform import PLATFORM_NAMES

    defaults = SingleVmSpec()
    platform = defaults.platform
    scale_denom = defaults.memory_scale_denom
    remote_factor = defaults.remote_factor
    if topology is not None:
        path = "topology"
        _check_keys(issues, path, topology,
                    ("platform", "memory_scale_denom", "remote_factor"))
        platform = _get_choice(
            issues, path, topology, "platform", PLATFORM_NAMES,
            defaults.platform, "platform",
        )
        scale_denom = _get_int(
            issues, path, topology, "memory_scale_denom",
            defaults.memory_scale_denom, minimum=1, maximum=65_536,
        )
        remote_factor = _get_int(
            issues, path, topology, "remote_factor",
            defaults.remote_factor, minimum=1, maximum=64,
        )
    engine = defaults.engine
    wss = defaults.wss_dram_fraction
    read_ratio = defaults.read_ratio
    accesses = defaults.accesses
    quick_accesses = defaults.quick_accesses
    if workload is not None:
        path = "workload"
        _check_keys(issues, path, workload,
                    ("engine", "wss_dram_fraction", "read_ratio",
                     "accesses", "quick_accesses"))
        engine = _get_choice(
            issues, path, workload, "engine", _SINGLE_VM_ENGINES,
            defaults.engine, "workload engine",
        )
        wss = _get_float(issues, path, workload, "wss_dram_fraction",
                         defaults.wss_dram_fraction, minimum=0.0,
                         exclusive_min=True, maximum=64.0)
        read_ratio = _get_float(issues, path, workload, "read_ratio",
                                defaults.read_ratio, minimum=0.0,
                                maximum=1.0)
        accesses = _get_int(issues, path, workload, "accesses",
                            defaults.accesses, minimum=1)
        quick_accesses = _get_int(issues, path, workload, "quick_accesses",
                                  defaults.quick_accesses, minimum=1)
    fault_plan = None
    if faults is not None:
        path = "faults"
        _check_keys(issues, path, faults, ("plan",))
        fault_plan = _get_choice(
            issues, path, faults, "plan", tuple(sorted(NAMED_PLANS)),
            "", "fault plan", required=True,
        ) or None
    return SingleVmSpec(
        platform=platform,
        memory_scale_denom=scale_denom,
        remote_factor=remote_factor,
        engine=engine,
        wss_dram_fraction=wss,
        read_ratio=read_ratio,
        accesses=accesses,
        quick_accesses=quick_accesses,
        fault_plan=fault_plan,
    )


def _validate_cluster(
    issues: _Issues,
    topology: Optional[Dict[str, object]],
    workload: Optional[Dict[str, object]],
) -> ClusterSpec:
    defaults = ClusterSpec()
    max_nodes = defaults.max_nodes
    replication = defaults.replication
    if topology is not None:
        path = "topology"
        _check_keys(issues, path, topology, ("max_nodes", "replication"))
        max_nodes = _get_int(issues, path, topology, "max_nodes",
                             defaults.max_nodes, minimum=2, maximum=64)
        replication = _get_int(issues, path, topology, "replication",
                               defaults.replication, minimum=1, maximum=4)
    pages = defaults.pages
    quick_pages = defaults.quick_pages
    if workload is not None:
        path = "workload"
        _check_keys(issues, path, workload, ("pages", "quick_pages"))
        pages = _get_int(issues, path, workload, "pages", defaults.pages,
                         minimum=1)
        quick_pages = _get_int(issues, path, workload, "quick_pages",
                               defaults.quick_pages, minimum=1)
    return ClusterSpec(max_nodes=max_nodes, replication=replication,
                       pages=pages, quick_pages=quick_pages)


def _validate_market(
    issues: _Issues,
    topology: Optional[Dict[str, object]],
    workload: Optional[Dict[str, object]],
) -> MarketSpec:
    defaults = MarketSpec()
    fleet_scale = defaults.fleet_scale
    quick_fleet_scale = defaults.quick_fleet_scale
    if topology is not None:
        path = "topology"
        _check_keys(issues, path, topology,
                    ("fleet_scale", "quick_fleet_scale"))
        fleet_scale = _get_int(issues, path, topology, "fleet_scale",
                               defaults.fleet_scale, minimum=1, maximum=64)
        quick_fleet_scale = _get_int(
            issues, path, topology, "quick_fleet_scale",
            defaults.quick_fleet_scale, minimum=1, maximum=64,
        )
    ticks = defaults.ticks
    quick_ticks = defaults.quick_ticks
    chaos = defaults.chaos
    if workload is not None:
        path = "workload"
        _check_keys(issues, path, workload,
                    ("ticks", "quick_ticks", "chaos"))
        ticks = _get_int(issues, path, workload, "ticks", defaults.ticks,
                         minimum=1)
        quick_ticks = _get_int(issues, path, workload, "quick_ticks",
                               defaults.quick_ticks, minimum=1)
        chaos = _get_bool(issues, path, workload, "chaos", defaults.chaos)
    return MarketSpec(
        fleet_scale=fleet_scale, quick_fleet_scale=quick_fleet_scale,
        ticks=ticks, quick_ticks=quick_ticks, chaos=chaos,
    )


def _validate_pattern(
    issues: _Issues, path: str, doc: Dict[str, object],
) -> PatternSpec:
    _check_keys(issues, path, doc,
                ("kind", "theta", "stride", "shuffle_every_ticks",
                 "zipf_fraction"))
    kind = _get_choice(issues, path, doc, "kind", PATTERN_KINDS,
                       "zipfian", "pattern kind", required=True)
    theta = _get_float(issues, path, doc, "theta", 0.99,
                       minimum=0.0, exclusive_min=True)
    if "theta" in doc and isinstance(doc["theta"], (int, float)) \
            and not isinstance(doc["theta"], bool) and theta >= 1.0:
        issues.error(_join(path, "theta"),
                     f"Zipf theta must be in (0, 1), got {theta}")
        theta = 0.99
    stride = _get_int(issues, path, doc, "stride", 1, minimum=1,
                      maximum=1_024)
    shuffle = _get_int(issues, path, doc, "shuffle_every_ticks", 0,
                       minimum=0)
    zipf_fraction = _get_float(issues, path, doc, "zipf_fraction", 0.8,
                               minimum=0.0, maximum=1.0)
    for key, owners in (("theta", ("zipfian", "mixed")),
                        ("stride", ("sweep",)),
                        ("shuffle_every_ticks", ("sweep",)),
                        ("zipf_fraction", ("mixed",))):
        if key in doc and kind not in owners:
            issues.error(
                _join(path, key),
                f"only valid for pattern kind(s) "
                f"{', '.join(repr(o) for o in owners)}, not {kind!r}",
            )
    return PatternSpec(kind=kind, theta=theta, stride=stride,
                       shuffle_every_ticks=shuffle,
                       zipf_fraction=zipf_fraction)


def _validate_load(
    issues: _Issues, path: str, doc: Dict[str, object],
) -> LoadSpec:
    _check_keys(issues, path, doc,
                ("kind", "period_ticks", "peak_multiplier", "spikes"))
    kind = _get_choice(issues, path, doc, "kind", LOAD_KINDS,
                       "constant", "load profile", required=True)
    period = _get_int(issues, path, doc, "period_ticks", 48, minimum=2)
    peak = _get_float(issues, path, doc, "peak_multiplier", 3.0,
                      minimum=1.0, maximum=64.0)
    for key in ("period_ticks", "peak_multiplier"):
        if key in doc and kind != "diurnal":
            issues.error(_join(path, key),
                         "only valid for load kind 'diurnal'")
    spikes: List[SpikeSpec] = []
    raw_spikes = doc.get("spikes", [])
    if not isinstance(raw_spikes, list):
        issues.error(_join(path, "spikes"),
                     f"expected a list, got {type(raw_spikes).__name__}")
        raw_spikes = []
    for index, raw in enumerate(raw_spikes):
        spike_path = f"{path}.spikes[{index}]"
        if not isinstance(raw, dict):
            issues.error(spike_path,
                         f"expected an object, got {type(raw).__name__}")
            continue
        _check_keys(issues, spike_path, raw,
                    ("at_tick", "multiplier", "duration_ticks"))
        spikes.append(SpikeSpec(
            at_tick=_get_int(issues, spike_path, raw, "at_tick", 0,
                             minimum=0, required=True),
            multiplier=_get_float(issues, spike_path, raw, "multiplier",
                                  2.0, minimum=1.0, maximum=64.0),
            duration_ticks=_get_int(issues, spike_path, raw,
                                    "duration_ticks", 2, minimum=1),
        ))
    return LoadSpec(kind=kind, period_ticks=period, peak_multiplier=peak,
                    spikes=tuple(spikes))


def _validate_fleet(
    issues: _Issues,
    topology: Optional[Dict[str, object]],
    workload: Optional[Dict[str, object]],
    duration: Optional[Dict[str, object]],
    faults: Optional[Dict[str, object]],
) -> FleetSpec:
    defaults = FleetSpec(tenants=())
    block_vms = defaults.block_vms
    if topology is not None:
        path = "topology"
        _check_keys(issues, path, topology, ("block_vms",))
        block_vms = _get_int(issues, path, topology, "block_vms",
                             defaults.block_vms, minimum=1, maximum=256)
    ticks = defaults.ticks
    quick_ticks = defaults.quick_ticks
    tick_us = defaults.tick_us
    if duration is not None:
        path = "duration"
        _check_keys(issues, path, duration,
                    ("ticks", "quick_ticks", "tick_us"))
        ticks = _get_int(issues, path, duration, "ticks", defaults.ticks,
                         minimum=1)
        quick_ticks = _get_int(issues, path, duration, "quick_ticks",
                               defaults.quick_ticks, minimum=1)
        tick_us = _get_float(issues, path, duration, "tick_us",
                             defaults.tick_us, minimum=0.0,
                             exclusive_min=True)
    tenants: List[FleetTenantSpec] = []
    if workload is None:
        issues.error("workload", "required section is missing "
                                 "(a fleet scenario needs tenants)")
    else:
        _check_keys(issues, "workload", workload, ("tenants",))
        raw_tenants = workload.get("tenants")
        if raw_tenants is None:
            issues.error("workload.tenants", "required field is missing")
            raw_tenants = []
        elif not isinstance(raw_tenants, list):
            issues.error(
                "workload.tenants",
                f"expected a list, got {type(raw_tenants).__name__}",
            )
            raw_tenants = []
        elif not raw_tenants:
            issues.error("workload.tenants",
                         "a fleet scenario needs at least one tenant")
        seen = set()
        for index, raw in enumerate(raw_tenants):
            tenant_path = f"workload.tenants[{index}]"
            if not isinstance(raw, dict):
                issues.error(
                    tenant_path,
                    f"expected an object, got {type(raw).__name__}",
                )
                continue
            _check_keys(issues, tenant_path, raw,
                        ("name", "vms", "quick_vms", "footprint_pages",
                         "capacity_pages", "accesses_per_tick",
                         "pattern", "load"))
            name = _get_str(issues, tenant_path, raw, "name",
                            f"tenant{index}", required=True)
            if name in seen:
                issues.error(_join(tenant_path, "name"),
                             f"duplicate tenant name {name!r}")
            seen.add(name)
            footprint = _get_int(issues, tenant_path, raw,
                                 "footprint_pages", 256, minimum=16,
                                 required=True)
            capacity = _get_int(issues, tenant_path, raw,
                                "capacity_pages", 128, minimum=16,
                                required=True)
            if capacity > footprint:
                issues.error(
                    _join(tenant_path, "capacity_pages"),
                    f"capacity ({capacity}) cannot exceed footprint "
                    f"({footprint})",
                )
                capacity = footprint
            pattern_doc = _get_section(issues, tenant_path, raw, "pattern")
            load_doc = _get_section(issues, tenant_path, raw, "load")
            tenants.append(FleetTenantSpec(
                name=name,
                vms=_get_int(issues, tenant_path, raw, "vms", 1,
                             minimum=1, maximum=4_096, required=True),
                quick_vms=_get_int(issues, tenant_path, raw, "quick_vms",
                                   0, minimum=0, maximum=4_096),
                footprint_pages=footprint,
                capacity_pages=capacity,
                accesses_per_tick=_get_int(issues, tenant_path, raw,
                                           "accesses_per_tick", 24,
                                           minimum=1, maximum=10_000),
                pattern=_validate_pattern(
                    issues, _join(tenant_path, "pattern"), pattern_doc
                ) if pattern_doc is not None else PatternSpec(),
                load=_validate_load(
                    issues, _join(tenant_path, "load"), load_doc
                ) if load_doc is not None else LoadSpec(),
            ))
    chaos = FleetChaosSpec()
    if faults is not None:
        path = "faults"
        _check_keys(issues, path, faults,
                    ("crash_fraction", "surge_fraction"))
        chaos = FleetChaosSpec(
            crash_fraction=_get_float(issues, path, faults,
                                      "crash_fraction", 0.0, minimum=0.0,
                                      maximum=0.9),
            surge_fraction=_get_float(issues, path, faults,
                                      "surge_fraction", 0.0, minimum=0.0,
                                      maximum=0.9),
        )
    return FleetSpec(
        tenants=tuple(tenants),
        ticks=ticks, quick_ticks=quick_ticks, tick_us=tick_us,
        block_vms=block_vms, chaos=chaos,
    )


# ---------------------------------------------------------------------------
# Document validation
# ---------------------------------------------------------------------------

_TOP_LEVEL_KEYS = (
    "schema", "name", "description", "kind", "seed",
    "topology", "workload", "duration", "policy", "faults",
    "checks", "obs",
)

#: Which optional sections each kind understands.
_KIND_SECTIONS = {
    "single-vm": ("topology", "workload", "policy", "faults"),
    "cluster": ("topology", "workload"),
    "market": ("topology", "workload", "checks"),
    "fleet": ("topology", "workload", "duration", "faults", "checks"),
}


def validate_document(doc: object) -> Scenario:
    """Validate one parsed scenario document into a :class:`Scenario`.

    Raises :class:`~repro.errors.ScenarioError` listing every issue
    with its JSON path; returns the compiled scenario otherwise.
    """
    if not isinstance(doc, dict):
        raise ScenarioError(
            f"scenario document must be a JSON object, got "
            f"{type(doc).__name__}"
        )
    name = doc.get("name")
    issues = _Issues(name if isinstance(name, str) and name else "<unnamed>")
    _check_keys(issues, "", doc, _TOP_LEVEL_KEYS)
    schema = _get_str(issues, "", doc, "schema", "", required=True)
    if "schema" in doc and isinstance(doc["schema"], str) \
            and schema != SCENARIO_SCHEMA:
        issues.error(
            "schema",
            f"unsupported schema {schema!r} (this loader speaks "
            f"{SCENARIO_SCHEMA!r})",
        )
    name = _get_str(issues, "", doc, "name", "<unnamed>", required=True)
    if name != "<unnamed>" and not all(
        c.isalnum() or c in "-_" for c in name
    ):
        issues.error("name", f"must be alphanumeric/dash/underscore, "
                             f"got {name!r}")
    description = _get_str(issues, "", doc, "description", "")
    kind = _get_choice(issues, "", doc, "kind", SCENARIO_KINDS, "",
                       "scenario kind", required=True)
    seed = _get_int(issues, "", doc, "seed", 42, minimum=0)

    if kind:
        allowed = _KIND_SECTIONS[kind]
        for section in ("topology", "workload", "duration", "policy",
                        "faults", "checks"):
            if section in doc and doc[section] is not None \
                    and section not in allowed:
                issues.error(
                    section,
                    f"section is not valid for kind {kind!r} (it takes: "
                    f"{', '.join(allowed)})",
                )

    topology = _get_section(issues, "", doc, "topology")
    workload = _get_section(issues, "", doc, "workload")
    duration = _get_section(issues, "", doc, "duration")
    faults = _get_section(issues, "", doc, "faults")

    policy = PolicySpec()
    policy_doc = _get_section(issues, "", doc, "policy")
    if policy_doc is not None and kind == "single-vm":
        policy = _validate_policy(issues, policy_doc)

    invariants = True
    checks_doc = _get_section(issues, "", doc, "checks")
    if checks_doc is not None:
        _check_keys(issues, "checks", checks_doc, ("invariants",))
        invariants = _get_bool(issues, "checks", checks_doc,
                               "invariants", True)
        if kind == "market" and not invariants:
            issues.error(
                "checks.invariants",
                "the marketplace broker is audited on every run; "
                "invariants cannot be disabled for kind 'market'",
            )
            invariants = True

    trace_enabled = True
    obs_doc = _get_section(issues, "", doc, "obs")
    if obs_doc is not None:
        _check_keys(issues, "obs", obs_doc, ("trace",))
        trace_enabled = _get_bool(issues, "obs", obs_doc, "trace", True)

    single_vm = cluster = market = fleet = None
    if kind == "single-vm":
        single_vm = _validate_single_vm(issues, topology, workload, faults)
    elif kind == "cluster":
        cluster = _validate_cluster(issues, topology, workload)
    elif kind == "market":
        market = _validate_market(issues, topology, workload)
    elif kind == "fleet":
        fleet = _validate_fleet(issues, topology, workload, duration,
                                faults)

    issues.raise_if_any()
    return Scenario(
        name=name,
        kind=kind,
        seed=seed,
        description=description,
        policy=policy,
        invariants=invariants,
        trace_enabled=trace_enabled,
        single_vm=single_vm,
        cluster=cluster,
        market=market,
        fleet=fleet,
    )


#: The top-level keys every ``repro-scenario-metrics/1`` report carries.
_REPORT_KEYS = (
    "schema", "scenario", "kind", "seed", "quick", "description",
    "kpis", "groups",
)


def validate_report(document: object) -> None:
    """Check a KPI report against the ``repro-scenario-metrics/1``
    layout; raises :class:`~repro.errors.ScenarioError` on mismatch."""
    if not isinstance(document, dict):
        raise ScenarioError(
            f"report must be a JSON object, got {type(document).__name__}"
        )
    missing = [key for key in _REPORT_KEYS if key not in document]
    if missing:
        raise ScenarioError(
            f"report is missing fields: {', '.join(missing)}"
        )
    if document["schema"] != REPORT_SCHEMA:
        raise ScenarioError(
            f"unsupported report schema {document['schema']!r} "
            f"(expected {REPORT_SCHEMA!r})"
        )
    if document["kind"] not in SCENARIO_KINDS:
        raise ScenarioError(
            f"report names unknown kind {document['kind']!r}"
        )
    if not isinstance(document["kpis"], dict) or not document["kpis"]:
        raise ScenarioError("report 'kpis' must be a non-empty object")
    if not isinstance(document["groups"], dict):
        raise ScenarioError("report 'groups' must be an object")


def load_scenario(path: str) -> Scenario:
    """Read, parse, and validate a scenario file."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}") \
            from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path!r} is not valid JSON: {exc}") \
            from exc
    return validate_document(doc)
