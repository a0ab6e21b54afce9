"""Unit contracts for the burst-resolution layer (DESIGN.md §17).

``try_advance_batch`` / ``batch_window`` / ``Store.try_get_batch`` are
the primitives the monitor's fault path stands on.  Every one of them
must refuse to act — returning False/None and mutating nothing —
unless it can prove equivalence to the event-driven path: no
schedule-exploration policy, and the heap shape that guarantees
nothing else could have run.  The byte-identical ``--metrics`` pins
live in ``tests/bench/test_wallclock_determinism.py``; these are the
unit-level guards.
"""

import pytest

from repro.check.explorer import SCHEDULES
from repro.sim import Environment, Store


@pytest.fixture
def env():
    return Environment()


# -- batch_window ------------------------------------------------------------


def test_batch_window_open_on_idle_env(env):
    assert env.batch_window()


def test_batch_window_closed_by_heap_entry(env):
    env.timeout(5.0)
    assert not env.batch_window()


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_batch_window_closed_under_every_schedule_policy(env, name):
    env.scheduler = SCHEDULES[name](seed=0)
    assert not env.batch_window()


def test_batch_window_closed_by_until_cap(env):
    done = []

    def prober():
        done.append(env.batch_window())
        yield env.timeout(1.0)

    env.process(prober())
    # Inside run(until=<time>) the cap is set, closing the window even
    # though the heap is momentarily empty when the process starts.
    env.run(until=10.0)
    assert done == [False]


# -- try_advance_batch -------------------------------------------------------


def test_try_advance_batch_commits_absolute_target(env):
    assert env.try_advance_batch(12.5)
    assert env.now == 12.5
    # Equal-to-now targets are legal (an empty cohort commits nothing).
    assert env.try_advance_batch(12.5)
    assert env.now == 12.5


def test_try_advance_batch_refuses_backwards_target(env):
    assert env.try_advance_batch(4.0)
    assert not env.try_advance_batch(3.0)
    assert env.now == 4.0


def test_try_advance_batch_refuses_with_heap_entry(env):
    # Even an entry *after* the target closes the window: the window
    # proof requires an empty heap, not merely a far-away head.
    env.timeout(100.0)
    assert not env.try_advance_batch(1.0)
    assert env.now == 0.0


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_try_advance_batch_refuses_under_every_schedule_policy(env, name):
    env.scheduler = SCHEDULES[name](seed=0)
    assert not env.try_advance_batch(1.0)
    assert env.now == 0.0


def test_cohort_accumulation_matches_granular_advances(env):
    """The absolute-target rule: accumulate in cohort order, commit
    once — bit-identical to N per-member try_advance calls."""
    costs = [0.1, 0.2, 0.3, 0.07]
    granular = Environment()
    for cost in costs:
        assert granular.try_advance(cost)
    clock = env.now
    for cost in costs:
        clock += cost
    assert env.try_advance_batch(clock)
    # Bit-identical, not just approximately equal: the batch layer's
    # whole contract is that --metrics bytes cannot move.
    assert env.now == granular.now


# -- Store.try_get_batch -----------------------------------------------------


def test_try_get_batch_takes_fifo_order(env):
    store = Store(env)
    store.put_nowait("a")
    store.put_nowait("b")
    assert store.try_get_batch() == "a"
    assert store.try_get_batch() == "b"
    assert store.try_get_batch() is None  # empty


def test_try_get_batch_refuses_with_competing_getter(env):
    store = Store(env)
    store.put_nowait("x")
    # A pending getter with a predicate that matches nothing yet: the
    # granular get would have to rendezvous through the event, so the
    # synchronous take must refuse.
    store.get(predicate=lambda item: False)
    assert store.try_get_batch() is None


def test_try_get_batch_refuses_with_blocked_putter(env):
    store = Store(env, capacity=1)
    store.put("first")
    env.run()
    store.put("blocked")  # over capacity: parks as a putter
    assert store._putters
    assert store.try_get_batch() is None


def test_try_get_batch_refuses_with_due_heap_event(env):
    store = Store(env)
    store.put_nowait("x")
    env.timeout(0.0)  # due *now*: would have fired before the get
    assert store.try_get_batch() is None


def test_try_get_batch_allows_future_heap_event(env):
    store = Store(env)
    store.put_nowait("x")
    env.timeout(5.0)  # strictly later: the get's success fires first
    assert store.try_get_batch() == "x"


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_try_get_batch_refuses_under_every_schedule_policy(env, name):
    store = Store(env)
    store.put_nowait("x")
    env.scheduler = SCHEDULES[name](seed=0)
    assert store.try_get_batch() is None
    assert list(store.items) == ["x"]


# -- put_nowait single-getter hand-off ---------------------------------------


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
