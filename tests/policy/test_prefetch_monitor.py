"""Monitor-side prefetch bookkeeping: in-flight dedupe, the accuracy
ledger (hits / wasted), and tracer breadcrumbs on silent drop paths."""

import pytest

from repro.core import FluidMemConfig
from repro.errors import TransientStoreError
from repro.kv import DramStore
from repro.mem import PAGE_SIZE
from repro.obs import Observability
from repro.workloads import AccessDriver

from tests.conftest import build_stack


class FakeFault:
    """Just the two fields _maybe_prefetch reads off a UffdFault."""

    def __init__(self, addr, region):
        self.addr = addr
        self.region = region


class SwitchableStore(DramStore):
    """DramStore whose reads can be flipped to fail transiently."""

    def __init__(self, env):
        super().__init__(env)
        self.fail_reads = False

    def get(self, key):
        if self.fail_reads:
            yield self.env.timeout(1.0)
            raise TransientStoreError("injected read failure")
        return (yield from super().get(key))


def make_prefetch_stack(obs=None, store_cls=DramStore):
    config = FluidMemConfig(lru_capacity_pages=8, prefetch_pages=4)
    stack = build_stack(config=config, obs=obs)
    store = store_cls(stack.env)
    vm, qemu, port, reg = stack.make_vm(store=store)
    return stack, store, vm, qemu, port, reg


def evict_and_drain(stack, vm, port, pages=16):
    """Touch ``pages`` pages (past the 8-page LRU) and flush, so the
    low pages live only in the store — prefetchable on re-access."""
    base = vm.first_free_guest_addr()

    def gen(env):
        for i in range(pages):
            yield from port.access(base + i * PAGE_SIZE, is_write=True)
        yield from stack.monitor.writeback.drain()

    stack.run(gen(stack.env))
    return base


def test_prefetch_inflight_dedupe():
    """Regression: a second fault proposing addresses already in
    flight must not issue duplicate store reads."""
    stack, _store, vm, qemu, _port, reg = make_prefetch_stack()
    monitor = stack.monitor
    base = evict_and_drain(stack, vm, _port)
    host = qemu.guest_to_host(base)
    fault = FakeFault(host, reg.handles[0].region)

    monitor._maybe_prefetch(fault, reg)
    issued = monitor.counters["prefetches_issued"]
    assert issued == 4  # pages 1..4, all store-resident

    # Same candidates again while every read is still in flight.
    monitor._maybe_prefetch(fault, reg)
    assert monitor.counters["prefetches_issued"] == issued

    stack.env.run()
    assert monitor.counters["prefetches_completed"] == issued
    assert not monitor._prefetch_inflight


def test_transient_prefetch_failure_leaves_tracer_breadcrumb():
    """A prefetch read that dies with TransientStoreError is dropped
    silently on the counters' happy path — the tracer must record it."""
    obs = Observability(enabled=True)
    stack, store, vm, qemu, _port, reg = make_prefetch_stack(
        obs=obs, store_cls=SwitchableStore
    )
    monitor = stack.monitor
    base = evict_and_drain(stack, vm, _port)

    store.fail_reads = True
    host = qemu.guest_to_host(base)
    monitor._maybe_prefetch(FakeFault(host, reg.handles[0].region), reg)
    issued = monitor.counters["prefetches_issued"]
    assert issued == 4
    stack.env.run()

    assert monitor.counters["prefetches_failed"] == issued
    assert not monitor._prefetch_inflight
    drops = [
        event for event in obs.tracer.events
        if event.name == "prefetch_drop"
    ]
    assert len(drops) == issued
    assert {event.args["reason"] for event in drops} == {"transient-error"}
    assert all(event.cat == "prefetch" for event in drops)


def test_prefetch_hit_and_wasted_ledger():
    """Installed prefetches are credited on touch (hits) and debited on
    untouched eviction (wasted); the two never double-count."""
    stack, _store, vm, qemu, port, reg = make_prefetch_stack()
    monitor = stack.monitor
    base = evict_and_drain(stack, vm, port)
    host = qemu.guest_to_host(base)

    monitor._maybe_prefetch(FakeFault(host, reg.handles[0].region), reg)
    stack.env.run()  # pages 1..4 installed by prefetch
    installed = len(monitor._prefetched_addrs)
    assert installed == 4

    def touch_two(env):
        for i in (1, 2):
            yield from port.access(base + i * PAGE_SIZE, is_write=False)

    stack.run(touch_two(stack.env))
    assert monitor.counters["prefetch_hits"] == 2

    # Evict everything still resident: the untouched installs (3, 4)
    # are wasted work.
    monitor.set_lru_capacity(2)

    def churn(env):
        for i in range(8, 16):
            yield from port.access(base + i * PAGE_SIZE, is_write=True)

    stack.run(churn(stack.env))
    assert monitor.counters["prefetches_wasted"] == installed - 2
    assert monitor.counters["prefetch_hits"] == 2


def _driver_touch_try_hit(driver, vaddr):
    if not driver.try_hit(vaddr):
        yield from driver.access(vaddr)


def _driver_touch_access(driver, vaddr):
    yield from driver.access(vaddr)


@pytest.mark.parametrize("touch", [
    _driver_touch_try_hit, _driver_touch_access,
], ids=["try_hit", "access"])
def test_prefetch_ledger_credits_access_driver_hits(touch):
    """The ledger is the same when the workload touches through an
    AccessDriver (pmbench, Graph500, the Mongo model): the port's one
    hit body credits the prefetcher, so a touched install is a hit and
    is not later debited as wasted.  Driver hits are not LRU hits."""
    stack, _store, vm, qemu, port, reg = make_prefetch_stack()
    monitor = stack.monitor
    base = evict_and_drain(stack, vm, port)
    host = qemu.guest_to_host(base)

    monitor._maybe_prefetch(FakeFault(host, reg.handles[0].region), reg)
    stack.env.run()  # pages 1..4 installed by prefetch
    installed = len(monitor._prefetched_addrs)
    assert installed == 4
    lru_hits = monitor.counters["lru_hits"]

    driver = AccessDriver(stack.env, port)

    def touch_two(env):
        for i in (1, 2):
            yield from touch(driver, base + i * PAGE_SIZE)
        yield from driver.flush()

    stack.run(touch_two(stack.env))
    assert (driver.hits, driver.faults) == (2, 0)
    assert monitor.counters["prefetch_hits"] == 2
    assert monitor.counters["lru_hits"] == lru_hits

    monitor.set_lru_capacity(2)

    def churn(env):
        for i in range(8, 16):
            yield from port.access(base + i * PAGE_SIZE, is_write=True)

    stack.run(churn(stack.env))
    assert monitor.counters["prefetches_wasted"] == installed - 2
    assert monitor.counters["prefetch_hits"] == 2


def test_deregister_clears_prefetch_ledger():
    stack, _store, vm, qemu, port, reg = make_prefetch_stack()
    monitor = stack.monitor
    base = evict_and_drain(stack, vm, port)
    host = qemu.guest_to_host(base)
    monitor._maybe_prefetch(FakeFault(host, reg.handles[0].region), reg)
    stack.env.run()
    assert monitor._prefetched_addrs

    def teardown(env):
        yield from monitor.deregister_vm(reg)

    stack.run(teardown(stack.env))
    assert not monitor._prefetched_addrs
