"""Schema validation: strict fields, vocabularies, golden error text.

The golden files under ``golden/`` pin the exact multi-issue error
rendering — JSON paths, messages, and did-you-mean suggestions — so a
wording change is a conscious diff, not an accident.
"""

import json
import os

import pytest

from repro.errors import ScenarioError
from repro.scenario import (
    SCENARIO_SCHEMA,
    Scenario,
    load_scenario,
    validate_document,
    validate_report,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _minimal(kind="single-vm", **extra):
    doc = {"schema": SCENARIO_SCHEMA, "name": "t", "kind": kind}
    if kind == "fleet":
        doc["workload"] = {
            "tenants": [{
                "name": "a", "vms": 1,
                "footprint_pages": 64, "capacity_pages": 32,
            }],
        }
    doc.update(extra)
    return doc


def _error_text(doc):
    with pytest.raises(ScenarioError) as excinfo:
        validate_document(doc)
    return str(excinfo.value)


def _golden(name, actual):
    path = os.path.join(GOLDEN_DIR, f"{name}.txt")
    with open(path) as handle:
        expected = handle.read().rstrip("\n")
    assert actual == expected, (
        f"golden mismatch for {name}:\n--- expected ---\n{expected}\n"
        f"--- actual ---\n{actual}"
    )


# ---------------------------------------------------------------------------
# Golden error renderings
# ---------------------------------------------------------------------------

def test_golden_unknown_field_with_suggestion():
    doc = _minimal()
    doc["topologyy"] = {"platform": "fluidmem-dram"}
    _golden("unknown-field", _error_text(doc))


def test_golden_bad_policy_names():
    doc = _minimal(policy={"prefetch": "leep"})
    _golden("bad-policy-names", _error_text(doc))


def test_policy_alloc_is_an_unknown_field():
    """Frames come from one free stack; a document that still names an
    allocation policy is refused, not silently ignored."""
    doc = _minimal(policy={"alloc": "lifo"})
    assert "policy.alloc: unknown field" in _error_text(doc)


def test_golden_multi_issue_document():
    doc = {
        "schema": "repro-scenario/99",
        "name": "broken",
        "kind": "singel-vm",
        "seed": -1,
        "workload": {"read_ratio": 2.0, "acesses": 10},
    }
    _golden("multi-issue", _error_text(doc))


def test_golden_fleet_tenant_issues():
    doc = _minimal(kind="fleet")
    doc["workload"]["tenants"] = [
        {
            "name": "web", "vms": 2, "footprint_pages": 64,
            "capacity_pages": 128,
            "pattern": {"kind": "zipfian", "stride": 4},
        },
        {
            "name": "web", "vms": 1, "footprint_pages": 64,
            "capacity_pages": 32,
            "load": {"kind": "diurnel"},
        },
    ]
    _golden("fleet-tenant-issues", _error_text(doc))


# ---------------------------------------------------------------------------
# Validation behavior
# ---------------------------------------------------------------------------

def test_minimal_documents_validate_for_every_kind():
    for kind in ("single-vm", "cluster", "market", "fleet"):
        scenario = validate_document(_minimal(kind=kind))
        assert isinstance(scenario, Scenario)
        assert scenario.kind == kind
        assert scenario.seed == 42


def test_all_issues_are_collected_not_just_the_first():
    doc = _minimal()
    doc["bogus1"] = 1
    doc["bogus2"] = 2
    doc["policy"] = {"alloc": "nope"}
    text = _error_text(doc)
    assert "(3 issues)" in text
    assert "bogus1" in text and "bogus2" in text
    assert "policy.alloc" in text


def test_unknown_fault_plan_gets_suggestion():
    doc = _minimal(faults={"plan": "chaoss"})
    text = _error_text(doc)
    assert "faults.plan" in text
    assert "Did you mean 'chaos'?" in text


def test_unknown_platform_gets_suggestion():
    doc = _minimal(topology={"platform": "fluidmem-ramclod"})
    text = _error_text(doc)
    assert "Did you mean 'fluidmem-ramcloud'?" in text


def test_kind_restricts_sections():
    doc = _minimal(kind="cluster", faults={"plan": "chaos"})
    text = _error_text(doc)
    assert "faults: section is not valid for kind 'cluster'" in text


def test_market_invariants_cannot_be_disabled():
    doc = _minimal(kind="market", checks={"invariants": False})
    text = _error_text(doc)
    assert "checks.invariants" in text
    assert "cannot be disabled" in text


def test_booleans_do_not_satisfy_integer_fields():
    doc = _minimal(seed=True)
    assert "expected an integer, got a boolean" in _error_text(doc)


def test_capacity_over_footprint_is_rejected():
    doc = _minimal(kind="fleet")
    doc["workload"]["tenants"][0]["capacity_pages"] = 999
    text = _error_text(doc)
    assert "cannot exceed footprint" in text


def test_pattern_keys_are_scoped_to_their_kind():
    doc = _minimal(kind="fleet")
    doc["workload"]["tenants"][0]["pattern"] = {
        "kind": "uniform", "theta": 0.5,
    }
    text = _error_text(doc)
    assert "theta" in text and "'uniform'" in text


def test_zipf_theta_range_is_enforced():
    doc = _minimal(kind="fleet")
    doc["workload"]["tenants"][0]["pattern"] = {
        "kind": "zipfian", "theta": 1.5,
    }
    assert "must be in (0, 1)" in _error_text(doc)


def test_non_object_document_is_rejected():
    with pytest.raises(ScenarioError, match="must be a JSON object"):
        validate_document([1, 2, 3])


def test_prefetch_none_rejects_positive_depth():
    doc = _minimal(policy={"prefetch": "none", "prefetch_pages": 4})
    assert "cannot take a positive depth" in _error_text(doc)


def test_defaults_fill_unspecified_knobs():
    scenario = validate_document(_minimal())
    spec = scenario.single_vm
    assert spec.platform == "fluidmem-ramcloud"
    assert spec.memory_scale_denom == 1024
    assert scenario.invariants is True
    assert scenario.trace_enabled is True


def test_load_scenario_reports_parse_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(str(path))
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(str(tmp_path / "missing.json"))


def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(_minimal()))
    scenario = load_scenario(str(path))
    assert scenario.name == "t"


# ---------------------------------------------------------------------------
# Report schema checks
# ---------------------------------------------------------------------------

def _report(**overrides):
    document = {
        "schema": "repro-scenario-metrics/1",
        "scenario": "t", "kind": "fleet", "seed": 42, "quick": True,
        "description": "", "kpis": {"faults": 1}, "groups": {},
    }
    document.update(overrides)
    return document


def test_validate_report_accepts_well_formed_documents():
    validate_report(_report())


@pytest.mark.parametrize("mutation,match", [
    ({"schema": "repro-scenario-metrics/2"}, "unsupported report schema"),
    ({"kind": "nope"}, "unknown kind"),
    ({"kpis": {}}, "non-empty"),
    ({"groups": []}, "must be an object"),
])
def test_validate_report_rejects_malformed_documents(mutation, match):
    with pytest.raises(ScenarioError, match=match):
        validate_report(_report(**mutation))


def test_validate_report_lists_missing_fields():
    with pytest.raises(ScenarioError, match="missing fields: .*kpis"):
        validate_report({"schema": "repro-scenario-metrics/1"})
