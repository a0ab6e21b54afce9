"""Split-halves drivers: nothing waits on them, so they settle in place.

``read_async``/``write_async`` run their bottom half in a driver
process that reports only through the handle's event.  With no
scheduler installed the driver finishes without a heap event; under
every schedule policy its completion is scheduled as before, so the
policy's reference run does not change (DESIGN.md §12).
"""

import pytest

from repro.check.explorer import SCHEDULES
from repro.core import FluidMemConfig
from repro.errors import FluidMemError, KeyNotFoundError
from repro.mem import PAGE_SIZE
from repro.sim.core import DetachedProcess

from tests.conftest import build_stack

from .conftest import run_op


@pytest.fixture(params=["ramcloud", "memcached"])
def remote_store(request, ramcloud_store, memcached_store):
    """Backends whose async halves run the generic driver process."""
    return {"ramcloud": ramcloud_store,
            "memcached": memcached_store}[request.param]


def test_finished_read_driver_leaves_no_heap_entry(env, remote_store):
    run_op(env, remote_store.put(7, "page", PAGE_SIZE))
    handle = remote_store.read_async(7)
    assert env.run(until=handle.event) == "page"
    assert env._heap == []


def test_failed_read_driver_still_fails_its_handle(env, remote_store):
    handle = remote_store.read_async(404)
    with pytest.raises(KeyNotFoundError):
        env.run(until=handle.event)
    assert env._heap == []


def test_finished_write_driver_leaves_no_heap_entry(env, remote_store):
    items = [(1, "a", PAGE_SIZE), (2, "b", PAGE_SIZE)]
    handle = remote_store.write_async(items)
    assert env.run(until=handle.event) == 2
    assert env._heap == []
    assert remote_store.contains(1) and remote_store.contains(2)


def test_failed_write_driver_still_fails_its_handle(env, dram_store):
    # DramStore refuses a non-positive size after charging the copy.
    handle = dram_store.write_async([(1, "a", 0)])
    with pytest.raises(ValueError):
        env.run(until=handle.event)
    assert env._heap == []


class Recording:
    """Delegates to a schedule policy, keeping every scheduled event."""

    def __init__(self, policy):
        self.policy = policy
        self.events = []

    def perturb_delay(self, delay, priority, event):
        return self.policy.perturb_delay(delay, priority, event)

    def tiebreak(self, when, priority, seq, event):
        self.events.append(event)
        return self.policy.tiebreak(when, priority, seq, event)


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_every_schedule_still_schedules_the_completion(env, ramcloud_store,
                                                       schedule):
    run_op(env, ramcloud_store.put(7, "page", PAGE_SIZE))
    recording = Recording(SCHEDULES[schedule](3))
    env.scheduler = recording
    read = ramcloud_store.read_async(7)
    write = ramcloud_store.write_async([(8, "other", PAGE_SIZE)])
    env.run()
    assert read.event.value == "page"
    assert write.event.value == 1
    drivers = [event for event in recording.events
               if isinstance(event, DetachedProcess)]
    # Each driver's completion went through the policy.
    assert len(drivers) == 2
    assert all(driver.processed for driver in drivers)


def test_lost_page_still_reaches_the_monitor_as_data_loss():
    """KeyNotFoundError from the detached driver becomes the monitor's
    loud "remote memory lost page" error."""
    stack = build_stack(config=FluidMemConfig(
        lru_capacity_pages=4, writeback_batch_pages=1,
    ))
    store = stack.make_ramcloud_store()
    vm, _qemu, port, registration = stack.make_vm(store=store)
    base = vm.first_free_guest_addr()

    def gen(env):
        for index in range(8):
            yield from port.access(base + index * PAGE_SIZE, True)
        yield from stack.monitor.writeback.drain()
        host = registration.qemu.guest_to_host(base)
        store.server.delete(store.table_id,
                            registration.codec.key_for(host))
        yield from port.access(base)

    stack.env.process(gen(stack.env))
    with pytest.raises(FluidMemError, match="remote memory lost page"):
        stack.env.run()
