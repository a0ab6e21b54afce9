"""Discrete-event simulation core.

This module implements a small, dependency-free discrete-event engine in
the style of SimPy: an :class:`Environment` owns a virtual clock and an
event heap; :class:`Process` objects are Python generators that ``yield``
events (most commonly :class:`Timeout`) and are resumed when those events
fire.

Time is a ``float`` in **microseconds** throughout the FluidMem
reproduction — the paper reports every latency in µs, so the calibration
constants can be used verbatim.

Hot-path design (DESIGN.md §12)
-------------------------------
Workloads push millions of events through this engine, so the common
case — a :class:`Timeout` yielded by exactly one :class:`Process` —
is aggressively optimized:

* every event class uses ``__slots__`` (no per-event ``__dict__``);
* fire-once timeouts are recycled through a per-environment free list,
  so the dominant ``yield env.timeout(x)`` pattern allocates nothing
  at steady state;
* scheduling inlines the no-:attr:`Environment.scheduler` case (no
  perturb/tiebreak dispatch, module-level ``heappush``);
* :meth:`Environment.run` drives a local-variable event loop instead of
  calling :meth:`Environment.step` per event;
* :meth:`Environment.try_advance` lets callers replace a solo timeout
  with a direct clock bump when (and only when) the two are provably
  equivalent.

All of it is behavior-preserving: with a fixed seed the simulated-time
trajectory is byte-identical to the straightforward implementation.
Every fast path has one global gate, ``scheduler is None``: when a
schedule-exploration policy is installed on
:attr:`Environment.scheduler`, the fast paths disable themselves so the
policy sees every scheduling decision.  Installing
:class:`~repro.check.explorer.FifoSchedule`, which keeps the engine's
native order, therefore gives the reference run that the determinism
pins compare against.

Example
-------
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(5.0)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
5.0
"""

from __future__ import annotations

import heapq
from itertools import count as _count
from typing import (
    Any,
    Callable,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
)

from ..errors import InterruptError, SimulationError

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "DetachedProcess",
    "AnyOf",
    "AllOf",
    "PENDING",
]

#: Sentinel for an event value that has not been set yet.
PENDING = object()

#: Normal scheduling priority. Lower runs first at equal times.
PRIORITY_NORMAL = 1
#: Urgent priority, used for process initialization and interrupts.
PRIORITY_URGENT = 0

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Maximum recycled Timeout objects kept per environment.
_TIMEOUT_POOL_MAX = 1024

class Event:
    """An outcome that may happen at some point in simulated time.

    Events move through three states: *pending* (just created),
    *triggered* (scheduled on the environment's heap with a value), and
    *processed* (callbacks have run).  Processes wait on events by
    yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: Set when a failure's exception has been handed to some consumer.
        self._defused = False

    # -- state predicates -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Schedule the event to fire successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        if env.scheduler is None:
            # Inlined no-scheduler _schedule — succeed() is hot.
            _heappush(
                env._heap,
                (env._now, PRIORITY_NORMAL, next(env._seq), self),
            )
        else:
            env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule the event to fire with ``exception``.

        Any process waiting on the event will have the exception thrown
        into it.  If nothing is waiting, the environment raises it at the
        end of the step so failures never pass silently.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the same outcome as ``event`` (callback helper)."""
        if event._value is PENDING:
            raise SimulationError(
                f"cannot trigger {self!r} from an untriggered event "
                f"{event!r}"
            )
        if event._ok:
            self.succeed(event._value)
        else:
            event._defused = True
            self.fail(event._value)

    def __repr__(self) -> str:
        status = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {status} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` µs after it is created."""

    __slots__ = ("delay", "poolable")

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # One comparison refuses a negative delay and a NaN alike.
        if not delay >= 0:
            raise SimulationError(f"invalid timeout delay {delay!r}")
        # Inlined Event.__init__ — this constructor is hot.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        #: Marked by Process._resume when the sole waiter is a parked
        #: process — the only shape safe to recycle (DESIGN.md §12).
        self.poolable = False
        env._schedule(self, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Initialize(Event):
    """Internal event that starts a process on the next urgent step."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        # Inlined Event.__init__ and no-scheduler _schedule: one of
        # these starts every process.
        self.env = env
        self.callbacks = [process._resume_cb]
        self._value = None
        self._ok = True
        self._defused = False
        if env.scheduler is None:
            _heappush(
                env._heap,
                (env._now, PRIORITY_URGENT, next(env._seq), self),
            )
        else:
            env._schedule(self, priority=PRIORITY_URGENT)


class Interruption(Event):
    """Internal event that throws :class:`InterruptError` into a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        if process.processed:
            raise SimulationError("cannot interrupt a finished process")
        if process is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        self.process = process
        self.callbacks.append(self._interrupt)
        # A failed event whose exception is pre-defused: _resume throws
        # it into the generator, which is the delivery we want.
        self._ok = False
        self._value = InterruptError(cause)
        self._defused = True
        self.env._schedule(self, priority=PRIORITY_URGENT)

    def _interrupt(self, event: "Event") -> None:
        if self.process.processed:
            return  # finished before the interrupt was delivered
        # Detach the process from whatever it was waiting on.
        target = self.process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self.process._resume_cb)
            except ValueError:
                pass
        self.process._resume(self)


class Process(Event):
    """A running generator.  Completes (as an event) when it returns.

    The generator yields :class:`Event` objects; each resumes the
    generator with the event's value when it fires (or throws the event's
    exception into it on failure).
    """

    __slots__ = ("_generator", "_target", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        # Inlined Event.__init__ (process creation is hot).
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._generator = generator
        #: Cached bound method: parking on an event happens once per
        #: yield, and rebuilding the bound method each time is garbage.
        self._resume_cb = self._resume
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def name(self) -> str:
        return getattr(self._generator, "__name__", repr(self._generator))

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptError` into the process."""
        Interruption(self, cause)

    # -- generator driving -------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Resume the generator with ``event``'s outcome and keep driving
        it until it parks on a pending event or finishes.

        This is the single hottest function in the engine — it is the
        callback for every parked process, runs once per fired event,
        and deliberately has no helper-call indirection.
        """
        self._target = None
        if event._ok:
            send: Any = event._value
            throw: Optional[BaseException] = None
        else:
            event._defused = True
            send, throw = None, event._value
        env = self.env
        generator = self._generator
        prev_active = env.active_process
        env.active_process = self
        try:
            while True:
                try:
                    if throw is None:
                        target = generator.send(send)
                    else:
                        target = generator.throw(throw)
                except StopIteration as stop:
                    self.succeed(getattr(stop, "value", None))
                    return
                except BaseException as exc:
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    self.fail(exc)
                    return

                if type(target) is Timeout or isinstance(target, Event):
                    callbacks = target.callbacks
                    if callbacks is not None:
                        # Hot path: a pending event — park until it
                        # fires.  A Timeout we are the only waiter of is
                        # safe to recycle once it fires.
                        if target.env is env:
                            if not callbacks and type(target) is Timeout:
                                target.poolable = True
                            callbacks.append(self._resume_cb)
                            self._target = target
                            return
                        send, throw = None, SimulationError(
                            f"process {self.name!r} yielded an event "
                            "from another environment"
                        )
                        continue
                    if target.env is not env:
                        send, throw = None, SimulationError(
                            f"process {self.name!r} yielded an event "
                            "from another environment"
                        )
                        continue
                    # Already processed: continue with its outcome.
                    if target._ok:
                        send, throw = target._value, None
                    else:
                        target._defused = True
                        send, throw = None, target._value
                    continue
                send, throw = None, SimulationError(
                    f"process {self.name!r} yielded a non-event: "
                    f"{target!r}"
                )
        finally:
            env.active_process = prev_active

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"


class DetachedProcess(Process):
    """A process nothing waits on, such as the kv split-halves drivers.

    Its creator keeps no reference to it and reports the outcome
    through an event of its own, so the completion event would fire
    with no callbacks and change nothing.  With no scheduler installed
    it settles in place: no heap event, no sequence number.  Under any
    schedule policy, :class:`~repro.check.explorer.FifoSchedule`
    included, the completion is scheduled like any process's, so the
    policy sees every decision it saw before (DESIGN.md §12).
    """

    __slots__ = ()

    def succeed(self, value: Any = None) -> "Event":
        if self.env.scheduler is None and not self.callbacks:
            self._ok = True
            self._value = value
            self.callbacks = None
            return self
        return Event.succeed(self, value)


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("_events", "_unfired")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._unfired = len(self._events)
        for event in self._events:
            if event.env is not env:
                raise SimulationError("condition mixes environments")
            if event.callbacks is None:
                self._observe(event)
            else:
                event.callbacks.append(self._observe)
        if not self.triggered:
            self._check_vacuous()

    def _check_vacuous(self) -> None:
        raise NotImplementedError

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._unfired -= 1
        self._on_fire(event)

    def _on_fire(self, event: Event) -> None:
        raise NotImplementedError

    def _results(self) -> dict:
        # Only events that have actually fired (been processed) count;
        # a Timeout carries its value from creation but hasn't happened yet.
        return {
            ev: ev._value for ev in self._events if ev.processed and ev._ok
        }


class AnyOf(_Condition):
    """Fires when any constituent event fires (value: dict of done events)."""

    __slots__ = ()

    def _check_vacuous(self) -> None:
        if not self._events:
            self.succeed({})

    def _on_fire(self, event: Event) -> None:
        self.succeed(self._results())


class AllOf(_Condition):
    """Fires when all constituent events have fired."""

    __slots__ = ()

    def _check_vacuous(self) -> None:
        if self._unfired == 0:
            self.succeed(self._results())

    def _on_fire(self, event: Event) -> None:
        if self._unfired == 0:
            self.succeed(self._results())


class Environment:
    """The simulation environment: virtual clock plus event heap."""

    __slots__ = (
        "_now",
        "_heap",
        "_seq",
        "active_process",
        "scheduler",
        "_timeout_pool",
        "_until_cap",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._heap: List[Tuple[float, int, Any, Event]] = []
        #: Monotonic tiebreaker for FIFO ordering of equal-time events.
        self._seq = _count(1)
        #: The process currently being resumed, if any.
        self.active_process: Optional[Process] = None
        #: Optional schedule-perturbation policy (an object with
        #: ``perturb_delay``/``tiebreak``, see repro.check.explorer).
        #: When None the engine behaves exactly as before: FIFO order
        #: among same-timestamp events, no delay perturbation.  Setting
        #: a policy also disables the fast paths (timeout pooling and
        #: try_advance) so the policy sees every scheduling decision.
        self.scheduler: Optional[Any] = None
        #: Recycled fire-once Timeouts (see DESIGN.md §12).
        self._timeout_pool: List[Timeout] = []
        #: Upper clock bound while inside ``run(until=<time>)``; guards
        #: try_advance against overshooting the stop time.
        self._until_cap: Optional[float] = None

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` µs from now."""
        if self.scheduler is None:
            if not delay >= 0:
                raise SimulationError(f"invalid timeout delay {delay!r}")
            pool = self._timeout_pool
            if pool:
                # Recycled events come back with their (cleared)
                # callbacks list attached and _ok/_defused already in
                # the fired-successfully shape; only value, delay and
                # the poolable mark need refreshing.
                event = pool.pop()
                event._value = value
                event.delay = delay
            else:
                # Inlined Timeout construction (no __init__ dispatch).
                event = Timeout.__new__(Timeout)
                event.env = self
                event.callbacks = []
                event._value = value
                event._ok = True
                event._defused = False
                event.delay = delay
                event.poolable = False
            _heappush(
                self._heap,
                (self._now + delay, PRIORITY_NORMAL, next(self._seq), event),
            )
            return event
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _schedule(
        self,
        event: Event,
        delay: float = 0.0,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        seq = next(self._seq)
        if self.scheduler is None:
            # Fast path: FIFO tiebreak, no perturbation dispatch.
            _heappush(
                self._heap, (self._now + delay, priority, seq, event)
            )
            return
        delay = self.scheduler.perturb_delay(delay, priority, event)
        tiebreak = self.scheduler.tiebreak(
            self._now + delay, priority, seq, event
        )
        _heappush(
            self._heap, (self._now + delay, priority, tiebreak, event)
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if not self._heap:
            return float("inf")
        return self._heap[0][0]

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        when, _prio, _seq, event = _heappop(self._heap)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failure nobody consumed: surface it.
            raise event._value
        self._maybe_recycle(event, callbacks)

    def _maybe_recycle(self, event: Event, callbacks: list) -> None:
        """Return a fire-once process Timeout to the free list.

        Only the dominant ``yield env.timeout(x)`` shape qualifies: the
        exact Timeout type whose single callback is a parked process
        (``poolable`` is set by :meth:`Process._resume` at park time,
        and only when it was the first waiter).  Conditions and explicit
        waiters keep references to the event (``processed``/``value``
        stay readable), so they never recycle.  The callbacks list is
        cleared and rides along with the pooled event, so reuse
        allocates nothing.
        """
        if (
            self.scheduler is None
            and type(event) is Timeout
            and event.poolable
            and len(callbacks) == 1
            and len(self._timeout_pool) < _TIMEOUT_POOL_MAX
        ):
            event.poolable = False
            callbacks.clear()
            event.callbacks = callbacks
            self._timeout_pool.append(event)

    def run(self, until: Any = None) -> Any:
        """Run until the schedule drains, a time, or an event fires.

        ``until`` may be ``None`` (drain), a number (stop when the clock
        would pass it; the clock is then set to exactly that time), or an
        :class:`Event` (stop when it fires and return its value).
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                # Already processed.
                if stop_event._ok:
                    return stop_event._value
                stop_event._defused = True
                raise stop_event._value
        else:
            stop_time = float(until)
            if not stop_time >= self._now:
                raise SimulationError(
                    f"until={stop_time} is in the past or not a time "
                    f"(now={self._now})"
                )

        heap = self._heap
        pool = self._timeout_pool
        # Pool headroom doubles as the scheduler gate: 0 disables.
        pool_room = _TIMEOUT_POOL_MAX if self.scheduler is None else 0

        if stop_event is None and stop_time is None:
            # Drain fast path: the dominant mode — hoisted locals, no
            # per-event step() dispatch, inline timeout recycling.
            while heap:
                when, _prio, _seq, event = _heappop(heap)
                self._now = when
                callbacks = event.callbacks
                event.callbacks = None
                if type(event) is Timeout and len(callbacks) == 1:
                    # Dominant shape: a timeout (always ok, never
                    # defused) waking one parked process — no iterator,
                    # no failure bookkeeping.
                    callbacks[0](event)
                    if event.poolable and len(pool) < pool_room:
                        event.poolable = False
                        callbacks.clear()
                        event.callbacks = callbacks
                        pool.append(event)
                    continue
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            return None

        # General loop: a stop time and/or a stop event is in play.
        # Stop-event completion is detected via its processed state
        # (callbacks is None), so nothing is ever attached to — or left
        # dangling on — stop_event.callbacks, whatever the exit path.
        self._until_cap = stop_time
        try:
            while heap:
                if stop_time is not None and heap[0][0] > stop_time:
                    self._now = stop_time
                    return None
                when, _prio, _seq, event = _heappop(heap)
                self._now = when
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if event._ok:
                    self._maybe_recycle(event, callbacks)
                elif not event._defused:
                    raise event._value
                if stop_event is not None and stop_event.callbacks is None:
                    if stop_event._ok:
                        return stop_event._value
                    stop_event._defused = True
                    raise stop_event._value
        finally:
            self._until_cap = None

        if stop_event is not None:
            raise SimulationError(
                "schedule drained before the until-event fired"
            )
        if stop_time is not None:
            self._now = stop_time
        return None

    def try_advance(self, delta: float) -> bool:
        """Bump the clock by ``delta`` iff it is provably equivalent to
        ``yield env.timeout(delta)`` for the calling process.

        Equivalence requires that the hypothetical timeout would have
        been the *only* event to fire before its own deadline: no heap
        entry at or before ``now + delta`` (strictly — an equal-time
        event would have fired first, FIFO), no schedule-exploration
        policy installed (it must see every scheduling decision), and no
        ``run(until=<time>)`` stop time that the bump would overshoot.
        Returns False when any of that fails, and for a negative or NaN
        ``delta``; callers then fall back to a real timeout, which
        raises for the delta this refused.
        """
        if self.scheduler is not None or not delta >= 0.0:
            return False
        target = self._now + delta
        heap = self._heap
        if heap and heap[0][0] <= target:
            return False
        cap = self._until_cap
        if cap is not None and target > cap:
            return False
        self._now = target
        return True

    def __repr__(self) -> str:
        return f"<Environment now={self._now} pending={len(self._heap)}>"
