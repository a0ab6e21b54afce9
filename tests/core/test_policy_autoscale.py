"""Tests for the provider policy layer and the autoscaler."""

import warnings

import pytest

from repro.core import (
    AutoscaleConfig,
    Autoscaler,
    FluidMemConfig,
    SharePolicy,
    ShareSpec,
)
from repro.errors import FluidMemError
from repro.mem import PAGE_SIZE

from tests.conftest import build_stack


def touch(stack, port, vm, indexes):
    base = vm.first_free_guest_addr()

    def gen(env):
        for index in indexes:
            yield from port.access(base + index * PAGE_SIZE,
                                   is_write=True)

    stack.run(gen(stack.env))


# ----------------------------------------------------------- import paths

def test_new_import_paths_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.core import SharePolicy as from_core
        from repro.policy import SharePolicy as from_policy
        from repro.policy.share import SharePolicy as from_share

    assert from_core is from_policy is from_share


# ------------------------------------------------------------- ShareSpec

def test_share_spec_validation():
    with pytest.raises(FluidMemError):
        ShareSpec(weight=0)
    with pytest.raises(FluidMemError):
        ShareSpec(min_pages=-1)
    with pytest.raises(FluidMemError):
        ShareSpec(min_pages=10, max_pages=5)


# ------------------------------------------------------------ SharePolicy

def make_two_tenants(lru=16):
    stack = build_stack()
    stack.monitor.set_lru_capacity(lru)
    policy = SharePolicy()
    stack.monitor.victim_policy = policy
    vm_a, qa, port_a, reg_a = stack.make_vm(
        store=stack.make_ramcloud_store(table_id=1), name="a")
    vm_b, qb, port_b, reg_b = stack.make_vm(
        store=stack.make_ramcloud_store(table_id=2), name="b")
    return stack, policy, (vm_a, port_a, reg_a), (vm_b, port_b, reg_b)


def test_weighted_eviction_prefers_heavier_user():
    stack, policy, a, b = make_two_tenants(lru=16)
    vm_a, port_a, reg_a = a
    vm_b, port_b, reg_b = b
    # Equal weights: tenant A floods, so A's pages become the victims.
    touch(stack, port_b, vm_b, range(4))
    touch(stack, port_a, vm_a, range(20))
    assert stack.monitor.lru.count_for(reg_b) == 4
    assert stack.monitor.lru.count_for(reg_a) == 12


def test_weight_shifts_entitlement():
    stack, policy, a, b = make_two_tenants(lru=16)
    vm_a, port_a, reg_a = a
    vm_b, port_b, reg_b = b
    # B gets 3x the weight; interleave to give the policy choices.
    policy.set_share(reg_b, ShareSpec(weight=3.0))
    for round_index in range(10):
        touch(stack, port_a, vm_a, range(round_index * 2,
                                         round_index * 2 + 2))
        touch(stack, port_b, vm_b, range(round_index * 2,
                                         round_index * 2 + 2))
    count_a = stack.monitor.lru.count_for(reg_a)
    count_b = stack.monitor.lru.count_for(reg_b)
    assert count_b > count_a


def test_min_pages_guarantee_protects_tenant():
    stack, policy, a, b = make_two_tenants(lru=16)
    vm_a, port_a, reg_a = a
    vm_b, port_b, reg_b = b
    policy.set_share(reg_b, ShareSpec(min_pages=6))
    touch(stack, port_b, vm_b, range(6))
    touch(stack, port_a, vm_a, range(40))
    # B keeps its guaranteed 6 pages despite A's flood.
    assert stack.monitor.lru.count_for(reg_b) == 6


def test_max_pages_cap_enforced_even_below_global_budget():
    stack, policy, a, _b = make_two_tenants(lru=64)
    vm_a, port_a, reg_a = a
    policy.set_share(reg_a, ShareSpec(max_pages=5))
    touch(stack, port_a, vm_a, range(20))
    # Global budget has room, but A is capped at 5 resident pages.
    assert stack.monitor.lru.count_for(reg_a) <= 5
    assert stack.monitor.counters["cap_evictions"] > 0


def test_policy_falls_back_to_fifo_when_all_protected():
    stack, policy, a, b = make_two_tenants(lru=8)
    vm_a, port_a, reg_a = a
    vm_b, port_b, reg_b = b
    policy.set_share(reg_a, ShareSpec(min_pages=1000))
    policy.set_share(reg_b, ShareSpec(min_pages=1000))
    touch(stack, port_a, vm_a, range(6))
    touch(stack, port_b, vm_b, range(6))
    # Overcommitted guarantees: FIFO fallback keeps the system moving.
    assert len(stack.monitor.lru) == 8


def test_policy_spec_lookup_and_forget():
    policy = SharePolicy()
    sentinel = object()
    assert policy.spec_for(sentinel) == ShareSpec()
    policy.set_share(sentinel, ShareSpec(weight=2.0))
    assert policy.spec_for(sentinel).weight == 2.0
    policy.forget(sentinel)
    assert policy.spec_for(sentinel).weight == 1.0


# -------------------------------------------------------------- Autoscaler

def test_autoscale_config_validation():
    with pytest.raises(FluidMemError):
        AutoscaleConfig(interval_us=0)
    with pytest.raises(FluidMemError):
        AutoscaleConfig(grow_threshold=1.0, shrink_threshold=2.0)
    with pytest.raises(FluidMemError):
        AutoscaleConfig(step_pages=0)
    with pytest.raises(FluidMemError):
        AutoscaleConfig(min_pages=10, max_pages=5)


def test_autoscaler_grows_under_thrash():
    stack = build_stack(config=FluidMemConfig(lru_capacity_pages=8))
    vm, _qemu, port, _reg = stack.make_vm(store=stack.make_dram_store())
    scaler = Autoscaler(
        stack.env, stack.monitor,
        AutoscaleConfig(interval_us=500.0, grow_threshold=0.5,
                        shrink_threshold=0.01, step_pages=16,
                        min_pages=8, max_pages=256),
    )
    scaler.start()
    base = vm.first_free_guest_addr()

    def thrash(env):
        for round_index in range(40):
            for index in range(24):  # WSS 24 > budget 8: fault storm
                yield from port.access(base + index * PAGE_SIZE, True)

    stack.env.process(thrash(stack.env))
    stack.env.run(until=stack.env.now + 40_000.0)
    scaler.stop()
    stack.env.run()
    # It grew while the VM thrashed (then harvested the idle DRAM back
    # once the working set fit and faults stopped — the full cycle).
    assert stack.monitor.counters["autoscale_grows"] > 0
    peak = max(capacity for _t, capacity, _r in scaler.history)
    assert peak >= 24  # grew past the 24-page working set
    assert stack.monitor.counters["autoscale_shrinks"] > 0
    assert stack.monitor.lru.capacity == 8  # harvested back to the floor


def test_autoscaler_shrinks_when_idle():
    stack = build_stack(config=FluidMemConfig(lru_capacity_pages=128))
    vm, qemu, port, _reg = stack.make_vm(store=stack.make_dram_store())
    touch(stack, port, vm, range(64))
    scaler = Autoscaler(
        stack.env, stack.monitor,
        AutoscaleConfig(interval_us=500.0, grow_threshold=10.0,
                        shrink_threshold=0.5, step_pages=32,
                        min_pages=16, max_pages=256),
    )
    scaler.start()
    stack.env.run(until=stack.env.now + 10_000.0)  # idle VM
    scaler.stop()
    stack.env.run()
    assert stack.monitor.lru.capacity == 16   # floored at min_pages
    assert qemu.page_table.present_pages <= 16
    assert stack.monitor.counters["autoscale_shrinks"] > 0
    assert len(scaler.history) > 0


def test_autoscaler_lifecycle():
    stack = build_stack()
    scaler = Autoscaler(stack.env, stack.monitor)
    assert not scaler.running
    scaler.start()
    assert scaler.running
    with pytest.raises(FluidMemError):
        scaler.start()
    scaler.stop()
    stack.env.run()
    assert not scaler.running
    scaler.stop()  # idempotent
