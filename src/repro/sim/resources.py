"""Shared resources for simulation processes.

Three classic primitives:

* :class:`Resource` — a semaphore with ``capacity`` slots and a FIFO wait
  queue (models CPUs, device queue depth, NICs).
* :class:`Store` — an unbounded-or-bounded buffer of items with blocking
  ``get``/``put`` (models message queues, event fds, work lists).
* :class:`Container` — a continuous quantity with blocking ``get``/``put``
  (models byte pools, credit counters).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from ..errors import SimulationError
from .core import PENDING, Environment, Event

__all__ = ["Resource", "Request", "Store", "Container"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Fires when the slot is granted.  Must be released with
    :meth:`Resource.release` (or used as a context manager inside a
    process via ``with``-less convention: yield then release).
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._queue.append(self)
        resource._trigger_requests()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.resource.release(self)


class Resource:
    """A semaphore with FIFO granting."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._queue: Deque[Request] = deque()
        self._users: List[Request] = []

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests still waiting."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        return Request(self)

    def try_acquire(self) -> Optional[Request]:
        """Claim a free slot with no event machinery.

        Returns an already-granted token when the fast path applies
        (no scheduler installed, no waiters, a slot free) — grant order is decided at request time either way, so
        skipping the grant event cannot change who gets the slot.
        Returns ``None`` otherwise; the caller falls back to
        ``yield self.request()``.  Release the token with
        :meth:`release` as usual.
        """
        if self.env.scheduler is not None:
            return None
        if self._queue or len(self._users) >= self.capacity:
            return None
        request = Request.__new__(Request)
        request.env = self.env
        request.callbacks = None  # already processed: a pure token
        request._value = None
        request._ok = True
        request._defused = False
        request.resource = self
        self._users.append(request)
        return request

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        try:
            self._users.remove(request)
        except ValueError:
            # Never granted: remove from the wait queue if still there.
            try:
                self._queue.remove(request)
            except ValueError:
                raise SimulationError("release() of an unknown request")
        self._trigger_requests()

    def _trigger_requests(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            request = self._queue.popleft()
            self._users.append(request)
            request.succeed()


class StoreGet(Event):
    """Pending ``get`` on a :class:`Store`; fires with the item."""

    __slots__ = ("predicate",)

    def __init__(self, store: "Store", predicate: Optional[Callable[[Any], bool]]) -> None:
        # Inlined Event.__init__: the monitor parks on one of these for
        # every fault that finds the queue empty.
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.predicate = predicate
        store._getters.append(self)
        # With no item and no blocked put nothing can be served, so the
        # sweep would change nothing that the next one does not.
        if store.items or store._putters:
            store._dispatch()


class StorePut(Event):
    """Pending ``put`` on a bounded :class:`Store`; fires when stored."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._putters.append(self)
        store._dispatch()


class Store:
    """A FIFO buffer of items with blocking get/put.

    ``capacity`` of ``None`` means unbounded (puts never block).
    ``get`` accepts an optional predicate to take the first matching item
    (a FilterStore in SimPy terms).
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()
        self._putters: Deque[StorePut] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Add ``item``; the event fires once it is actually stored."""
        return StorePut(self, item)

    def put_nowait(self, item: Any) -> None:
        """Synchronous put with no event machinery.

        Only valid on unbounded stores (a bounded put may have to
        block, which needs the event).  Any waiting getter is served
        exactly as a ``put`` would serve it.
        """
        if self.capacity is not None:
            raise SimulationError("put_nowait() requires an unbounded store")
        items = self.items
        items.append(item)
        getters = self._getters
        if getters:
            # Dominant shape (the monitor's single fault-event getter):
            # one unconditional live getter, no blocked putters — hand
            # the oldest item over without the general dispatch sweep.
            if len(getters) == 1 and not self._putters:
                getter = getters[0]
                if getter.predicate is None and getter._value is PENDING:
                    getters.popleft()
                    getter.succeed(items.popleft())
                    return
            self._dispatch()

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Take the oldest item (or oldest matching ``predicate``)."""
        return StoreGet(self, predicate)

    def try_get(self) -> Any:
        """Non-blocking take; returns the item or ``None`` if empty."""
        if not self.items:
            return None
        item = self.items.popleft()
        self._dispatch()
        return item

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Admit pending puts while there is room.
            while self._putters and (
                self.capacity is None or len(self.items) < self.capacity
            ):
                putter = self._putters.popleft()
                self.items.append(putter.item)
                putter.succeed()
                progress = True
            # Serve getters.
            for getter in list(self._getters):
                if getter._value is not PENDING:
                    self._getters.remove(getter)
                    continue
                item = self._match(getter)
                if item is not _NO_ITEM:
                    self._getters.remove(getter)
                    getter.succeed(item)
                    progress = True

    _NO_ITEM = object()

    def _match(self, getter: StoreGet) -> Any:
        if getter.predicate is None:
            if self.items:
                return self.items.popleft()
            return _NO_ITEM
        for index, item in enumerate(self.items):
            if getter.predicate(item):
                del self.items[index]
                return item
        return _NO_ITEM


#: Module-level sentinel shared by Store._match.
_NO_ITEM = Store._NO_ITEM


class ContainerGet(Event):
    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise SimulationError(f"get amount must be > 0, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        container._getters.append(self)
        container._dispatch()


class ContainerPut(Event):
    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise SimulationError(f"put amount must be > 0, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        container._putters.append(self)
        container._dispatch()


class Container:
    """A continuous quantity between 0 and ``capacity``."""

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be > 0, got {capacity}")
        if not 0 <= init <= capacity:
            raise SimulationError(f"init {init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: Deque[ContainerGet] = deque()
        self._putters: Deque[ContainerPut] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        return ContainerGet(self, amount)

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                putter = self._putters[0]
                if self._level + putter.amount <= self.capacity:
                    self._putters.popleft()
                    self._level += putter.amount
                    putter.succeed()
                    progress = True
            if self._getters:
                getter = self._getters[0]
                if self._level >= getter.amount:
                    self._getters.popleft()
                    self._level -= getter.amount
                    getter.succeed(getter.amount)
                    progress = True
