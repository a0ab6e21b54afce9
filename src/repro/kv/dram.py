"""Local-DRAM backend.

The "FluidMem DRAM" configuration of Figure 3: pages are "evicted" into a
plain in-memory table on the hypervisor itself.  There is no network; each
operation costs roughly a 4 KB memcpy plus call overhead.  This isolates
the FluidMem mechanism's own cost from remote-memory cost, exactly how the
paper uses it.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from ..errors import KeyNotFoundError
from ..mem import PAGE_SIZE
from ..sim import Environment
from ..sim.core import PRIORITY_URGENT, Event
from .api import KeyValueBackend, PeekableValue, ReadHandle, _park_failure

__all__ = ["DramStore"]


class DramStore(KeyValueBackend):
    """Dictionary-backed store with memcpy-scale latencies."""

    name = "dram"
    supports_partitions = True  # trivially: separate dicts would do

    #: Cost of moving one 4 KB page within DRAM (µs): ~0.5 µs memcpy
    #: plus bookkeeping, consistent with Table I's cache-management costs.
    COPY_US = 0.7
    #: Metadata-only operations (lookup, delete).
    TOUCH_US = 0.2

    def __init__(self, env: Environment, capacity_bytes: int = 0) -> None:
        super().__init__(env)
        #: 0 means unbounded.
        self.capacity_bytes = capacity_bytes
        self._table: Dict[int, PeekableValue] = {}
        self._used = 0

    def get(self, key: int) -> Generator:
        if not self.env.try_advance(self.COPY_US):
            yield self.env.timeout(self.COPY_US)
        entry = self._table.get(key)
        if entry is None:
            self.counters.incr("misses")
            raise KeyNotFoundError(key)
        self.counters.incr("reads")
        return entry.value

    def read_async(self, key: int) -> ReadHandle:
        """Top half of a read without the per-read driver process.

        The generic :meth:`KeyValueBackend.read_async` spawns a
        :class:`~repro.sim.core.DetachedProcess` per read — an
        ``Initialize`` heap event and a generator frame; with no
        scheduler it settles without a completion event (DESIGN.md
        §12).  A DRAM read is RNG-free with a fixed ``COPY_US``
        charge, so with no scheduler installed the whole bottom half
        collapses to two callbacks and no generator at all:

        * a bare start event scheduled exactly where ``Initialize``
          would sit — ``(now, PRIORITY_URGENT, seq)`` — whose callback
          charges ``COPY_US`` (``try_advance`` else a chained timeout),
        * a settle step that resolves the handle's event with the same
          value/exception, counters, and timestamp the driver process
          would have produced.

        The heap sees the same events as on the generic path; the
        equivalence pins (tests/bench) hold this byte-identical to the
        driver-process read that a ``FifoSchedule`` run takes.
        """
        env = self.env
        if (
            env.scheduler is not None
            # A subclass that overrides get() (e.g. fault-injecting test
            # stores) must keep driving reads through it.
            or type(self).get is not DramStore.get
        ):
            return super().read_async(key)
        handle = ReadHandle(env, key)
        start = Event.__new__(Event)
        start.env = env
        start._value = None
        start._ok = True
        start._defused = False
        start.callbacks = [
            lambda _evt, begin=self._begin_fast_read, handle=handle: begin(
                handle
            )
        ]
        env._schedule(start, priority=PRIORITY_URGENT)
        return handle

    def _begin_fast_read(self, handle: ReadHandle) -> None:
        """Charge the copy cost, then settle (possibly via a timeout)."""
        env = self.env
        if env.try_advance(self.COPY_US):
            self._settle_fast_read(handle)
            return
        timeout = env.timeout(self.COPY_US)
        timeout.callbacks.append(
            lambda _evt, settle=self._settle_fast_read, handle=handle: settle(
                handle
            )
        )

    def _settle_fast_read(self, handle: ReadHandle) -> None:
        """The tail of :meth:`get`, resolved onto the handle's event."""
        entry = self._table.get(handle.key)
        if entry is None:
            self.counters.incr("misses")
            _park_failure(handle.event, KeyNotFoundError(handle.key))
            return
        self.counters["reads"] += 1
        handle.event.succeed(entry.value)

    def put(self, key: int, value: Any, nbytes: int = PAGE_SIZE) -> Generator:
        if not self.env.try_advance(self.COPY_US):
            yield self.env.timeout(self.COPY_US)
        self._insert(key, value, nbytes)

    def remove(self, key: int) -> Generator:
        if not self.env.try_advance(self.TOUCH_US):
            yield self.env.timeout(self.TOUCH_US)
        entry = self._table.pop(key, None)
        if entry is None:
            raise KeyNotFoundError(key)
        self._used -= entry.nbytes
        self.counters.incr("removes")

    def multi_write(self, items) -> Generator:
        # Batched local writes amortize nothing interesting; charge
        # one copy per page.
        cost = self.COPY_US * max(1, len(items))
        if not self.env.try_advance(cost):
            yield self.env.timeout(cost)
        for key, value, nbytes in items:
            self._insert(key, value, nbytes)

    def _insert(self, key: int, value: Any, nbytes: int) -> None:
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        old = self._table.get(key)
        new_used = self._used + nbytes - (old.nbytes if old else 0)
        if self.capacity_bytes and new_used > self.capacity_bytes:
            raise MemoryError(
                f"DramStore over capacity: {new_used} > {self.capacity_bytes}"
            )
        self._table[key] = PeekableValue(value, nbytes)
        self._used = new_used
        self.counters["writes"] += 1

    def contains(self, key: int) -> bool:
        return key in self._table

    def stored_keys(self) -> int:
        return len(self._table)

    @property
    def used_bytes(self) -> int:
        return self._used
