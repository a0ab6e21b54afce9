"""FaultPlan / FaultWindow: schedules, queries, determinism."""

import math
import random

import pytest

from repro.bench.market_fleet import market_chaos_plan, market_specs
from repro.errors import KVError
from repro.faults import (
    DEFAULT_NODES,
    FaultKind,
    FaultPlan,
    FaultWindow,
    NAMED_PLANS,
    named_plan,
)


# ------------------------------------------------------------- FaultWindow

def test_window_covers_half_open_interval():
    window = FaultWindow(FaultKind.CRASH, "replica0", 100.0, 200.0)
    assert not window.covers(99.9)
    assert window.covers(100.0)
    assert window.covers(199.9)
    assert not window.covers(200.0)


def test_window_defaults_to_permanent():
    window = FaultWindow(FaultKind.CRASH, "replica0", 100.0)
    assert window.end_us == math.inf
    assert window.covers(1e12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind=FaultKind.CRASH, node="n", start_us=-1.0),
        dict(kind=FaultKind.CRASH, node="n", start_us=5.0, end_us=5.0),
        dict(kind=FaultKind.FLAKY, node="n", start_us=0.0, param=0.0),
        dict(kind=FaultKind.FLAKY, node="n", start_us=0.0, param=1.5),
        dict(kind=FaultKind.CORRUPT, node="n", start_us=0.0, param=-0.1),
        dict(kind=FaultKind.SLOW, node="n", start_us=0.0, param=0.0),
        dict(kind=FaultKind.SLOW, node="n", start_us=0.0, param=math.nan),
    ],
)
def test_window_validation(kwargs):
    with pytest.raises(KVError):
        FaultWindow(**kwargs)


# --------------------------------------------------------------- FaultPlan

def test_plan_liveness_queries():
    plan = FaultPlan(
        [
            FaultWindow(FaultKind.CRASH, "replica0", 100.0, 200.0),
            FaultWindow(FaultKind.PARTITION, "replica1", 150.0, 250.0),
        ]
    )
    assert plan.is_reachable("replica0", 0.0)
    assert not plan.is_reachable("replica0", 150.0)
    assert plan.is_crashed("replica0", 150.0)
    assert not plan.is_crashed("replica1", 150.0)
    assert plan.is_partitioned("replica1", 150.0)
    assert not plan.is_reachable("replica1", 200.0)
    assert plan.is_reachable("replica0", 200.0)
    assert plan.is_reachable("replica1", 250.0)


def test_plan_slow_windows_stack():
    plan = FaultPlan(
        [
            FaultWindow(FaultKind.SLOW, "replica0", 0.0, 100.0, param=30.0),
            FaultWindow(FaultKind.SLOW, "replica0", 50.0, 150.0, param=20.0),
        ]
    )
    assert plan.extra_latency_us("replica0", 25.0) == 30.0
    assert plan.extra_latency_us("replica0", 75.0) == 50.0
    assert plan.extra_latency_us("replica0", 125.0) == 20.0
    assert plan.extra_latency_us("replica1", 75.0) == 0.0


def test_plan_probability_queries_take_max():
    plan = FaultPlan(
        [
            FaultWindow(FaultKind.FLAKY, "n", 0.0, param=0.1),
            FaultWindow(FaultKind.FLAKY, "n", 0.0, param=0.3),
            FaultWindow(FaultKind.CORRUPT, "n", 0.0, param=0.2),
        ]
    )
    assert plan.flaky_probability("n", 1.0) == 0.3
    assert plan.corrupt_probability("n", 1.0) == 0.2
    assert plan.flaky_probability("n", 1.0) != \
        plan.flaky_probability("other", 1.0)


def test_plan_draws_are_seed_deterministic():
    a = FaultPlan([], seed=5)
    b = FaultPlan([], seed=5)
    c = FaultPlan([], seed=6)
    draws_a = [a.draw() for _ in range(10)]
    draws_b = [b.draw() for _ in range(10)]
    draws_c = [c.draw() for _ in range(10)]
    assert draws_a == draws_b
    assert draws_a != draws_c


def test_plan_random_is_seed_deterministic():
    a = FaultPlan.random(seed=21, horizon_us=50_000.0)
    b = FaultPlan.random(seed=21, horizon_us=50_000.0)
    assert a.windows == b.windows
    assert a.windows != FaultPlan.random(seed=22, horizon_us=50_000.0).windows


def test_plan_random_protected_nodes_never_lose_data():
    for seed in range(40):
        plan = FaultPlan.random(
            seed=seed,
            horizon_us=50_000.0,
            nodes=("replica0", "replica1"),
            protected=("replica1",),
        )
        for window in plan.windows:
            if window.node == "replica1":
                assert window.kind in (FaultKind.SLOW, FaultKind.FLAKY)
                if window.kind is FaultKind.FLAKY:
                    assert window.param <= 0.15


def _plans_under_test():
    for seed in range(25):
        yield FaultPlan.random(
            seed=seed, horizon_us=50_000.0,
            nodes=("replica0", "replica1", "surge:vm-0"),
            protected=("surge:vm-0",), max_windows=8,
        )
    for seed in (5, 42):
        yield market_chaos_plan(market_specs(1), seed, 30, 10_000.0)


def test_active_nodes_agrees_with_the_per_node_queries():
    """A node is in the CRASH set iff ``is_crashed`` holds and in the
    SLOW set iff ``extra_latency_us`` is positive, at random times and
    at every window edge."""
    rng = random.Random(7)
    for plan in _plans_under_test():
        nodes = {window.node for window in plan.windows} | {"absent"}
        edges = [
            t for window in plan.windows
            for t in (window.start_us, window.end_us)
            if t != math.inf
        ]
        horizon = max(edges)
        times = edges + [rng.uniform(0.0, horizon) for _ in range(40)]
        for now in times:
            crashed = plan.active_nodes(FaultKind.CRASH, now)
            slow = plan.active_nodes(FaultKind.SLOW, now)
            for node in nodes:
                assert (node in crashed) == plan.is_crashed(node, now)
                assert (node in slow) == (
                    plan.extra_latency_us(node, now) > 0
                )


def test_plan_random_validation():
    with pytest.raises(KVError):
        FaultPlan.random(seed=1, horizon_us=0.0)
    with pytest.raises(KVError):
        FaultPlan.random(seed=1, horizon_us=100.0, nodes=())


# -------------------------------------------------------------- named plans

def test_named_plans_build():
    for name in NAMED_PLANS:
        plan = named_plan(name, seed=3)
        assert plan.windows, name
        assert set(plan.nodes) <= set(DEFAULT_NODES), name


def test_named_plan_unknown_name():
    with pytest.raises(KVError, match="unknown fault plan"):
        named_plan("definitely-not-a-plan")


def test_rolling_outage_keeps_one_replica_alive():
    plan = named_plan("rolling-outage")
    horizon = plan.horizon_us()
    step = 500.0
    t = 0.0
    while t < horizon + step:
        assert any(
            plan.is_reachable(node, t) for node in DEFAULT_NODES
        ), t
        t += step


def test_blackout_kills_everything():
    plan = named_plan("blackout")
    assert all(plan.is_reachable(node, 0.0) for node in DEFAULT_NODES)
    assert not any(plan.is_reachable(node, 5_000.0)
                   for node in DEFAULT_NODES)
