"""Edge cases for composite events and store/resource internals."""

import pytest

from repro.errors import SimulationError
from repro.sim import AnyOf, Environment, Store


def test_any_of_with_failed_event_propagates():
    env = Environment()
    caught = []

    def proc(env):
        good = env.timeout(10.0, value="slow")
        bad = env.event()
        bad.fail(RuntimeError("boom"))
        try:
            yield env.any_of([good, bad])
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(proc(env))
    env.run()
    assert caught == ["boom"]


def test_all_of_with_failed_event_propagates():
    env = Environment()
    caught = []

    def proc(env):
        good = env.timeout(1.0)
        bad = env.event()

        def failer(env):
            yield env.timeout(2.0)
            bad.fail(ValueError("late failure"))

        env.process(failer(env))
        try:
            yield env.all_of([good, bad])
        except ValueError as exc:
            caught.append(str(exc))

    env.process(proc(env))
    env.run()
    assert caught == ["late failure"]


def test_condition_includes_already_processed_events():
    env = Environment()
    results = []

    def proc(env):
        first = env.timeout(1.0, value="a")
        yield env.timeout(5.0)  # first is long processed
        second = env.timeout(1.0, value="b")
        done = yield env.all_of([first, second])
        results.append(sorted(done.values()))

    env.process(proc(env))
    env.run()
    assert results == [["a", "b"]]


def test_condition_rejects_cross_environment_events():
    env_a, env_b = Environment(), Environment()
    foreign = env_b.timeout(1.0)
    with pytest.raises(SimulationError):
        AnyOf(env_a, [env_a.timeout(1.0), foreign])


def test_any_of_empty_fires_vacuously():
    env = Environment()
    fired = []

    def proc(env):
        done = yield env.any_of([])
        fired.append(done)

    env.process(proc(env))
    env.run()
    assert fired == [{}]


def test_bounded_store_with_predicate_unblocks_producer():
    """A predicate getter draining the buffer makes room for a blocked
    put — and a predicate waiting for a value that cannot enter a full
    buffer would deadlock, which is the expected bounded-buffer rule."""
    env = Environment()
    store = Store(env, capacity=2)
    got = []

    def consumer(env):
        item = yield store.get(lambda x: x == 1)
        got.append(item)

    def producer(env):
        for value in (1, 3, 4):
            yield store.put(value)
        got.append("produced-all")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [1, "produced-all"]
    assert list(store.items) == [3, 4]


def test_store_many_getters_fifo_service():
    env = Environment()
    store = Store(env)
    order = []

    def consumer(env, name):
        item = yield store.get()
        order.append((name, item))

    for name in ("a", "b", "c"):
        env.process(consumer(env, name))

    def producer(env):
        yield env.timeout(1.0)
        for value in (1, 2, 3):
            yield store.put(value)

    env.process(producer(env))
    env.run()
    assert order == [("a", 1), ("b", 2), ("c", 3)]


def test_peek_and_advance_interplay():
    env = Environment()
    env.timeout(10.0)
    # The event due at 10.0 would fire first, so no bump to it.
    assert not env.try_advance(10.0)
    assert env.now == 0.0
    assert env.try_advance(9.5)
    assert env.now == 9.5
    assert env.peek() == 10.0
