"""The engine fast paths: ``try_advance``, Timeout pooling, inline
resource grants — and the invariants that keep them safe.

Every fast path here must be *invisible*: same simulated clock, same
event outcomes, and automatic shutdown whenever a schedule-exploration
policy is installed (the explorer must see every scheduling decision).
The byte-identical ``--metrics`` pins live in
``tests/bench/test_wallclock_determinism.py``; these are the unit-level
contracts.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Event, Resource, Store
from repro.check.explorer import SCHEDULES, FifoSchedule


@pytest.fixture
def env():
    return Environment()


# -- satellite bugfixes ------------------------------------------------------


def test_trigger_from_untriggered_event_raises_clearly(env):
    target = Event(env)
    source = Event(env)
    with pytest.raises(SimulationError, match="untriggered"):
        target.trigger(source)
    # The failed trigger must leave the target untouched and usable.
    assert not target.triggered
    target.trigger(source.succeed("payload"))
    env.run()
    assert target.value == "payload"


def test_trigger_propagates_failure(env):
    target = Event(env)
    source = Event(env)
    source.fail(RuntimeError("boom"))
    source._defused = True
    target.trigger(source)
    target._defused = True
    env.run()
    assert not target.ok
    assert isinstance(target.value, RuntimeError)


def test_run_until_event_leaves_no_callbacks_behind(env):
    """A drained heap must not leave stop-flag state on the event."""
    never = Event(env)

    def ticker(env):
        yield env.timeout(5.0)

    env.process(ticker(env))
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=never)
    assert never.callbacks == []

    # Repeated runs against the same pending event must not accumulate
    # anything on it either.
    for _ in range(3):
        env.process(ticker(env))
        with pytest.raises(SimulationError, match="drained"):
            env.run(until=never)
    assert never.callbacks == []


def test_run_until_event_returns_its_value(env):
    done = Event(env)

    def firer(env):
        yield env.timeout(2.0)
        done.succeed("finished")

    env.process(firer(env))
    assert env.run(until=done) == "finished"
    assert env.now == 2.0


# -- try_advance semantics ---------------------------------------------------


def test_try_advance_bumps_the_clock_when_nothing_is_earlier(env):
    assert env.try_advance(5.0)
    assert env.now == 5.0
    assert env.try_advance(0.0)
    assert env.now == 5.0


def test_try_advance_refuses_when_an_event_is_due_first(env):
    def sleeper(env):
        yield env.timeout(3.0)

    env.process(sleeper(env))
    # Process-start event sits at t=0: nothing may jump past it.
    assert not env.try_advance(1.0)
    env.run()
    assert env.now == 3.0


def test_try_advance_refuses_equal_time_head(env):
    """An equal-time event would have fired first (FIFO): no advance."""

    def sleeper(env):
        yield env.timeout(4.0)

    env.process(sleeper(env))
    env.run(until=0.0)  # consume the process-start event; head is t=4
    assert not env.try_advance(4.0)
    assert env.try_advance(3.999)
    assert env.now == 3.999


def test_try_advance_refuses_negative_delta(env):
    assert not env.try_advance(-0.001)


def test_try_advance_disabled_under_scheduler(env):
    env.scheduler = FifoSchedule(seed=0)
    assert not env.try_advance(1.0)
    env.scheduler = None
    assert env.try_advance(1.0)


def test_try_advance_respects_run_until_cap(env):
    seen = []

    def prober(env):
        yield env.timeout(1.0)
        # Inside run(until=10): a bump past the stop time must refuse.
        seen.append(env.try_advance(100.0))
        seen.append(env.try_advance(2.0))
        yield env.timeout(0.5)

    env.process(prober(env))
    env.run(until=10.0)
    assert seen == [False, True]
    assert env.now == 10.0


# -- pooling and ordering safety ---------------------------------------------


def test_pooled_timeouts_preserve_interleaving(env):
    """Recycled Timeout objects must not change event order."""
    log = []

    def worker(env, name, delay):
        for step in range(50):
            yield env.timeout(delay)
            log.append((env.now, name, step))

    env.process(worker(env, "a", 1.0))
    env.process(worker(env, "b", 1.5))
    env.run()
    assert log == sorted(log, key=lambda item: item[0])
    assert sum(1 for _, name, _ in log if name == "a") == 50
    assert sum(1 for _, name, _ in log if name == "b") == 50
    assert env.now == 75.0


def test_fastpath_off_produces_identical_timeline(fifo_reference):
    def workload(env, log):
        for step in range(20):
            yield env.timeout(1.0 + (step % 3) * 0.25)
            log.append(env.now)

    def timeline():
        env = Environment()
        log = []
        env.process(workload(env, log))
        env.run()
        return env.now, tuple(log)

    fast = timeline()
    with fifo_reference():
        reference = timeline()
    assert fast == reference


# -- Resource.try_acquire ----------------------------------------------------


def test_try_acquire_grants_a_free_slot(env):
    resource = Resource(env, capacity=1)
    token = resource.try_acquire()
    assert token is not None
    assert resource.count == 1
    resource.release(token)
    assert resource.count == 0


def test_try_acquire_refuses_when_full_or_queued(env):
    resource = Resource(env, capacity=1)
    first = resource.try_acquire()
    assert first is not None
    assert resource.try_acquire() is None  # full

    waiter = resource.request()  # queue a real waiter
    resource.release(first)
    env.run()
    assert waiter.ok  # FIFO: the queued waiter got the slot
    assert resource.try_acquire() is None or resource.count <= 1
    resource.release(waiter)


def test_try_acquire_refuses_under_every_schedule_policy():
    for name in sorted(SCHEDULES):
        env = Environment()
        env.scheduler = SCHEDULES[name](seed=0)
        resource = Resource(env, capacity=1)
        assert resource.try_acquire() is None, name
        assert resource.count == 0


def test_try_acquire_token_release_wakes_waiters(env):
    resource = Resource(env, capacity=1)
    order = []

    def fast_holder(env):
        token = resource.try_acquire()
        assert token is not None
        yield env.timeout(2.0)
        order.append("fast-release")
        resource.release(token)

    def queued_waiter(env):
        request = resource.request()
        yield request
        order.append("queued-granted")
        resource.release(request)

    env.process(fast_holder(env))
    env.process(queued_waiter(env))
    env.run()
    assert order == ["fast-release", "queued-granted"]


# -- Store.put_nowait --------------------------------------------------------


def test_put_nowait_appends_and_serves_getters(env):
    store = Store(env)
    store.put_nowait("first")
    assert len(store) == 1

    got = []

    def getter(env):
        item = yield store.get()
        got.append(item)
        item = yield store.get()
        got.append(item)

    env.process(getter(env))
    env.run()
    assert got == ["first"]  # second get still pending
    store.put_nowait("second")
    env.run()
    assert got == ["first", "second"]


def test_put_nowait_rejects_bounded_stores(env):
    store = Store(env, capacity=2)
    with pytest.raises(SimulationError, match="unbounded"):
        store.put_nowait("item")


def test_put_nowait_serves_single_waiting_getter(env):
    store = Store(env)
    received = []

    def consumer():
        item = yield store.get()
        received.append(item)

    env.process(consumer())
    env.run()  # parks the consumer on the empty store
    store.put_nowait("payload")
    env.run()
    assert received == ["payload"]
    assert not store.items


def test_put_nowait_hand_off_matches_general_dispatch(env):
    """Two getters (the non-fast shape) drain in FIFO order, same as
    the single-getter hand-off would chain."""
    store = Store(env)
    received = []

    def consumer(tag):
        item = yield store.get()
        received.append((tag, item))

    env.process(consumer("first"))
    env.process(consumer("second"))
    env.run()
    store.put_nowait(1)
    store.put_nowait(2)
    env.run()
    assert received == [("first", 1), ("second", 2)]
