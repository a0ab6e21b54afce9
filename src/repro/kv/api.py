"""Generic key-value backend API (paper §IV).

FluidMem "interfaces with key-value stores via a generic API that
supports partitions and allows multiple VMs to share the same key-value
store".  The monitor needs four things from a backend:

* blocking ``get`` / ``put`` / ``remove`` (used on the synchronous path),
* ``multi_write`` — RAMCloud's batched write, used by async writeback,
* *split* asynchronous operations — a non-blocking **top half** that
  issues the request and returns a handle, and a **bottom half** that
  waits for completion.  The monitor interleaves ``UFFD_REMAP`` evictions
  into the gap (paper §V-B, "Asynchronous reads"),
* a partition notion — native (RAMCloud tables) or virtual (12-bit key
  suffix managed through ZooKeeper).

Blocking operations are simulation generators: call them as
``value = yield from backend.get(key)`` inside a process.
"""

from __future__ import annotations

import abc
from typing import Any, Generator, List, Sequence, Tuple

from ..mem import PAGE_SIZE
from ..sim import CounterSet, Environment, Event
from ..sim.core import DetachedProcess

__all__ = [
    "KeyValueBackend",
    "ReadHandle",
    "WriteHandle",
    "WriteItem",
    "recorded",
]

#: (key, value, nbytes) triple for batched writes.
WriteItem = Tuple[int, Any, int]


class ReadHandle:
    """In-flight asynchronous read.  ``event`` fires with the value."""

    __slots__ = ("key", "event", "issued_at")

    def __init__(self, env: Environment, key: int) -> None:
        self.key = key
        self.event: Event = Event(env)
        self.issued_at = env._now


class WriteHandle:
    """In-flight asynchronous (multi-)write.  ``event`` fires when durable."""

    __slots__ = ("keys", "event", "issued_at")

    def __init__(self, env: Environment, keys: Sequence[int]) -> None:
        self.keys = tuple(keys)
        self.event: Event = Event(env)
        self.issued_at = env._now


class KeyValueBackend(abc.ABC):
    """Abstract remote-memory backend."""

    #: Human-readable backend name ("ramcloud", "memcached", "dram").
    name: str = "abstract"
    #: True when the store has native partitions (RAMCloud tables);
    #: False means FluidMem must encode a virtual partition in the key.
    supports_partitions: bool = False

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.counters = CounterSet()

    @property
    def is_alive(self) -> bool:
        """Whether the backend is currently reachable.

        Plain backends are always up; fault-injecting wrappers
        (:class:`repro.faults.FaultyStore`) override this to consult
        their fault plan, and :class:`repro.kv.ReplicatedStore` skips
        replicas whose ``is_alive`` is False instead of timing out
        against them.
        """
        return True

    # -- blocking operations (simulation generators) -------------------------

    @abc.abstractmethod
    def get(self, key: int) -> Generator:
        """Fetch the value for ``key``; raises KeyNotFoundError."""

    @abc.abstractmethod
    def put(self, key: int, value: Any, nbytes: int = PAGE_SIZE) -> Generator:
        """Store ``value`` under ``key``."""

    @abc.abstractmethod
    def remove(self, key: int) -> Generator:
        """Delete ``key``; raises KeyNotFoundError if absent."""

    def multi_write(self, items: List[WriteItem]) -> Generator:
        """Write a batch; default is sequential puts (RAMCloud overrides)."""
        for key, value, nbytes in items:
            yield from self.put(key, value, nbytes)

    def multi_read(self, keys: List[int]) -> Generator:
        """Read a batch; values in key order, all-or-nothing.

        Default is sequential gets.  RAMCloud overrides with a single
        round trip; wrappers delegate so batching survives end to end
        (a wrapper that silently fell back to per-key gets would undo
        the batch's latency win).  Raises KeyNotFoundError if any key
        is absent.
        """
        results = []
        for key in keys:
            value = yield from self.get(key)
            results.append(value)
        if keys:
            self.counters.incr("multi_reads")
        return results

    # -- asynchronous halves ---------------------------------------------------

    # The drivers report only through the handle's event; nothing can
    # wait on the driver process itself, so it runs detached and, with
    # no scheduler installed, finishes without a heap event.  The
    # networked stores override ``_drive_read`` as one generator frame
    # over ``Fabric.rpc`` (DESIGN.md §12).

    def read_async(self, key: int) -> ReadHandle:
        """Top half of a read: issue and return immediately."""
        handle = ReadHandle(self.env, key)
        DetachedProcess(self.env, self._drive_read(handle))
        return handle

    def write_async(self, items: List[WriteItem]) -> WriteHandle:
        """Top half of a batched write: issue and return immediately."""
        handle = WriteHandle(self.env, [item[0] for item in items])
        DetachedProcess(self.env, self._drive_write(handle, list(items)))
        return handle

    def _drive_read(self, handle: ReadHandle) -> Generator:
        try:
            value = yield from self.get(handle.key)
        except Exception as exc:  # delivered to whoever awaits the handle
            _park_failure(handle.event, exc)
            return
        handle.event.succeed(value)

    def _drive_write(
        self, handle: WriteHandle, items: List[WriteItem]
    ) -> Generator:
        try:
            yield from self.multi_write(items)
        except Exception as exc:
            _park_failure(handle.event, exc)
            return
        handle.event.succeed(len(items))

    # -- introspection (no simulated latency; for tests and accounting) --------

    @abc.abstractmethod
    def contains(self, key: int) -> bool:
        """Whether the store currently holds ``key``."""

    @abc.abstractmethod
    def stored_keys(self) -> int:
        """Number of keys currently stored."""

    @property
    def used_bytes(self) -> int:
        """Bytes of values currently stored (0 if the backend can't say)."""
        return 0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} keys={self.stored_keys()}>"


def recorded(store: KeyValueBackend, checker=None) -> KeyValueBackend:
    """Wrap ``store`` in a :class:`repro.check.RecordingStore` so every
    read is validated against the acked-write history (read-your-writes
    / no-stale-read-after-ack).  Imported lazily: ``repro.check`` is an
    optional layer over the kv API, not a dependency of it."""
    from ..check.history import RecordingStore

    return RecordingStore(store, checker)


def _park_failure(event: Event, exc: Exception) -> None:
    """Fail a handle's event without tripping the engine's
    unconsumed-failure check: the bottom half may not have attached yet
    (it could still be interleaving an eviction) and will receive the
    exception when it does."""
    event._defused = True
    event.fail(exc)


class PeekableValue:
    """Optional mixin-ish helper: wraps stored values with byte size."""

    __slots__ = ("value", "nbytes")

    def __init__(self, value: Any, nbytes: int) -> None:
        self.value = value
        self.nbytes = nbytes
