"""Per-tenant QoS: windowed p99, violations, throttling, priorities."""

import pytest

from repro.errors import MarketError
from repro.market import QosManager, TenantSlo
from repro.obs import Observability


def _manager(obs=None, min_samples=1):
    qos = QosManager(obs=obs, min_samples=min_samples)
    qos.register("premium", TenantSlo(50.0, priority=2))
    qos.register("standard", TenantSlo(200.0, priority=1))
    qos.register("spot", TenantSlo(1_000.0, priority=0))
    return qos


def test_windowed_p99_is_nearest_rank_and_resets_each_window():
    qos = _manager()
    for latency in range(1, 101):  # 1..100: p99 (nearest rank) = 99
        qos.record_fault("premium", float(latency))
    p99s = qos.evaluate()
    assert p99s["premium"] == 99.0
    assert qos.violating["premium"]  # 99 > 50
    # The window reset: one fast fault now owns the whole next window.
    qos.record_fault("premium", 10.0)
    assert qos.evaluate()["premium"] == 10.0
    assert not qos.violating["premium"]
    assert qos.violation_counts["premium"] == 1
    assert qos.p99_history[-2:] == [
        {"premium": 99.0}, {"premium": 10.0},
    ]


def test_no_faults_is_not_a_violation():
    qos = _manager()
    assert qos.evaluate() == {}
    assert not any(qos.violating.values())
    assert qos.total_violations() == 0


def test_min_samples_suppresses_straggler_verdicts():
    qos = _manager(min_samples=5)
    for _ in range(4):
        qos.record_fault("premium", 400.0)  # 4 slow faults: no verdict
    assert qos.evaluate() == {}
    assert not qos.violating["premium"]
    for _ in range(5):
        qos.record_fault("premium", 400.0)  # 5: now it counts
    assert qos.evaluate() == {"premium": 400.0}
    assert qos.violating["premium"]


def test_protected_violation_throttles_spot_with_escalation_and_decay():
    qos = _manager()
    assert qos.throttle_delay_us("spot") == 0.0
    # Premium (protected) violates -> spot pays the base throttle.
    qos.record_fault("premium", 500.0)
    qos.evaluate()
    first = qos.throttle_delay_us("spot")
    assert first == QosManager.BASE_THROTTLE_US
    # Protected tenants are never throttled.
    assert qos.throttle_delay_us("premium") == 0.0
    assert qos.throttle_delay_us("standard") == 0.0
    # Still violating -> the throttle doubles, up to the ceiling.
    qos.record_fault("premium", 500.0)
    qos.evaluate()
    assert qos.throttle_delay_us("spot") == 2 * first
    for _ in range(8):
        qos.record_fault("premium", 500.0)
        qos.evaluate()
    assert qos.throttle_delay_us("spot") == QosManager.MAX_THROTTLE_US
    # Violation clears -> the throttle halves, then releases.
    qos.record_fault("premium", 1.0)
    qos.evaluate()
    assert qos.throttle_delay_us("spot") == QosManager.MAX_THROTTLE_US / 2
    while qos.throttle_delay_us("spot") > 0.0:
        qos.evaluate()
    assert qos.throttle_delay_us("spot") == 0.0


def test_spot_violations_do_not_throttle_anyone():
    qos = _manager()
    qos.record_fault("spot", 5_000.0)  # spot violates its own SLO
    qos.evaluate()
    assert qos.violating["spot"]
    assert qos.throttle_delay_us("spot") == 0.0


def test_metrics_are_tenant_keyed():
    obs = Observability(enabled=True)
    qos = _manager(obs=obs)
    qos.record_fault("premium", 500.0)
    qos.record_fault("spot", 500.0)
    qos.evaluate()
    snapshot = obs.registry.snapshot()
    assert "tenant_fault_latency_us{tenant=premium}" \
        in snapshot["histograms"]
    assert snapshot["counters"][
        "slo_violations{tenant=premium}"
    ] == 1
    # Spot's 500us is under its 1000us SLO: no violation counter.
    assert "slo_violations{tenant=spot}" not in snapshot["counters"]
    assert snapshot["gauges"]["qos_spot_throttle_us"] \
        == QosManager.BASE_THROTTLE_US


def test_record_faults_equals_one_record_fault_per_sample():
    batches = [
        ("premium", [9.0, 150.0, 4.0]),
        ("spot", []),
        ("spot", [175.0]),
        ("premium", [4.0, 4.0]),
        ("unregistered", [9.0]),
        ("standard", [150.0, 9.0]),
    ]
    single_obs, batch_obs = Observability(), Observability()
    single, batched = _manager(obs=single_obs), _manager(obs=batch_obs)
    for tenant, latencies in batches:
        for latency in latencies:
            single.record_fault(tenant, latency)
        batched.record_faults(tenant, latencies)
    assert batched._window == single._window
    assert batch_obs.registry.snapshot() == single_obs.registry.snapshot()
    assert [
        (key, histogram.samples)
        for key, histogram in batch_obs.registry._histograms.items()
    ] == [
        (key, histogram.samples)
        for key, histogram in single_obs.registry._histograms.items()
    ]
    assert batched.evaluate() == single.evaluate()


def test_empty_record_faults_creates_no_histogram():
    obs = Observability()
    qos = _manager(obs=obs)
    qos.record_faults("spot", [])
    assert obs.registry.snapshot()["histograms"] == {}
    assert not obs.registry._histograms


def test_priority_of_feeds_broker_revocation_order():
    qos = _manager()
    assert qos.priority_of("premium") == 2
    assert qos.priority_of("standard") == 1
    assert qos.priority_of("spot") == 0
    assert qos.priority_of("unknown") == 1  # unregistered: standard


def test_registration_is_guarded():
    qos = _manager()
    with pytest.raises(MarketError):
        qos.register("premium", TenantSlo(10.0))
    with pytest.raises(MarketError):
        TenantSlo(0.0)
    with pytest.raises(MarketError):
        TenantSlo(10.0, priority=-1)
    with pytest.raises(MarketError):
        QosManager(min_samples=0)
    qos.deregister("premium")
    qos.record_fault("premium", 1.0)  # silently ignored once gone
    assert qos.evaluate() == {}
