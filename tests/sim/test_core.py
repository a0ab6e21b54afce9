"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import InterruptError, SimulationError
from repro.sim import Environment, Timeout

NAN = float("nan")


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_initial_time():
    env = Environment(initial_time=42.0)
    assert env.now == 42.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(10.0)

    env.process(proc(env))
    env.run()
    assert env.now == 10.0


def test_timeout_value_delivered():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_nan_timeout_rejected():
    """A NaN delay passes a ``delay < 0`` guard; the engine refuses it
    as it refuses a negative one, and schedules nothing."""
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(NAN)
    with pytest.raises(SimulationError):
        Timeout(env, NAN)
    assert env.peek() == float("inf")


def test_nan_timeout_in_a_process_fails_the_process():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(NAN)

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run()
    assert env.now == 1.0


def test_try_advance_refuses_nan():
    env = Environment(initial_time=3.0)
    assert not env.try_advance(NAN)
    assert env.now == 3.0
    env.timeout(10.0)
    assert not env.try_advance(NAN)
    assert env.now == 3.0


def test_run_until_nan_rejected():
    env = Environment()
    env.timeout(10.0)
    with pytest.raises(SimulationError):
        env.run(until=NAN)
    assert env.now == 0.0
    assert env.peek() == 10.0


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3.0)
        return "done"

    p = env.process(proc(env))
    env.run()
    assert p.value == "done"
    assert not p.is_alive


def test_processes_interleave_in_time_order():
    env = Environment()
    order = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        order.append((name, env.now))

    env.process(proc(env, "b", 2.0))
    env.process(proc(env, "a", 1.0))
    env.process(proc(env, "c", 3.0))
    env.run()
    assert order == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_ties_fire_in_schedule_order():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    for name in "abcde":
        env.process(proc(env, name))
    env.run()
    assert order == list("abcde")


def test_process_waits_on_process():
    env = Environment()

    def inner(env):
        yield env.timeout(5.0)
        return 99

    def outer(env):
        value = yield env.process(inner(env))
        return value + 1

    p = env.process(outer(env))
    env.run()
    assert p.value == 100


def test_yield_already_processed_event_continues_immediately():
    env = Environment()

    def inner(env):
        yield env.timeout(1.0)
        return "x"

    results = []

    def outer(env):
        child = env.process(inner(env))
        yield env.timeout(10.0)
        # child finished long ago; yielding it must not block forever
        value = yield child
        results.append((env.now, value))

    env.process(outer(env))
    env.run()
    assert results == [(10.0, "x")]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    seen = []

    def waiter(env):
        value = yield gate
        seen.append((env.now, value))

    def opener(env):
        yield env.timeout(7.0)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert seen == [(7.0, "open")]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_failed_event_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env):
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer(env):
        yield env.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_failure_propagates_to_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("oops")

    env.process(bad(env))
    with pytest.raises(ValueError, match="oops"):
        env.run()


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10.0)

    env.process(proc(env))
    env.run(until=35.0)
    assert env.now == 35.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=100.0)
    with pytest.raises(SimulationError):
        env.run(until=50.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(4.0)
        return "finished"

    p = env.process(proc(env))
    assert env.run(until=p) == "finished"
    assert env.now == 4.0


def test_run_until_event_never_fires_raises():
    env = Environment()
    orphan = env.event()

    def proc(env):
        yield env.timeout(1.0)

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run(until=orphan)


def test_interrupt_delivers_cause():
    env = Environment()
    caught = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except InterruptError as exc:
            caught.append((env.now, exc.cause))

    def interrupter(env, victim):
        yield env.timeout(5.0)
        victim.interrupt(cause="wakeup")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert caught == [(5.0, "wakeup")]


def test_interrupt_detaches_from_timeout():
    """After interruption the old timeout must not resume the process."""
    env = Environment()
    resumed = []

    def sleeper(env):
        try:
            yield env.timeout(10.0)
            resumed.append("timeout")
        except InterruptError:
            yield env.timeout(100.0)
            resumed.append("after-interrupt")

    def interrupter(env, victim):
        yield env.timeout(1.0)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert resumed == ["after-interrupt"]
    assert env.now == 101.0


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_self_interrupt_rejected():
    env = Environment()
    errors = []

    def selfish(env):
        me = env.active_process
        try:
            me.interrupt()
        except SimulationError:
            errors.append(True)
        yield env.timeout(1.0)

    env.process(selfish(env))
    env.run()
    assert errors == [True]


def test_yield_non_event_raises_in_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_any_of_fires_on_first():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(5.0, value="slow")
        t2 = env.timeout(2.0, value="fast")
        done = yield env.any_of([t1, t2])
        results.append((env.now, sorted(done.values())))

    env.process(proc(env))
    env.run()
    assert results == [(2.0, ["fast"])]


def test_all_of_waits_for_all():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(5.0, value="slow")
        t2 = env.timeout(2.0, value="fast")
        done = yield env.all_of([t1, t2])
        results.append((env.now, sorted(done.values())))

    env.process(proc(env))
    env.run()
    assert results == [(5.0, ["fast", "slow"])]


def test_all_of_empty_fires_immediately():
    env = Environment()
    results = []

    def proc(env):
        yield env.all_of([])
        results.append(env.now)

    env.process(proc(env))
    env.run()
    assert results == [0.0]


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(3.0)
    assert env.peek() == 3.0


def test_step_on_empty_schedule_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_deep_process_chain():
    """Many processes waiting on each other complete in order."""
    env = Environment()

    def link(env, upstream):
        if upstream is None:
            yield env.timeout(1.0)
            return 0
        value = yield upstream
        return value + 1

    proc = None
    for _ in range(200):
        proc = env.process(link(env, proc))
    env.run()
    assert proc.value == 199


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok
