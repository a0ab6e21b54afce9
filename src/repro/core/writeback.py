"""Asynchronous write-back (paper §V-B).

"Rather than waiting for the write to complete before handling the next
page fault, the critical path in the monitor only evicts the page from
the VM and puts the page on a write list before moving on.  A separate
thread periodically flushes the write list to the key-value store when
its size has reached a configured batch size of pages or a stale file
descriptor has been found."

Implementation notes:

* Batches group entries by VM registration so RAMCloud's multi-write
  operates on "pages belonging to the same userfaultfd region".
* The stale check is piggybacked on monitor activity (``check_stale``)
  instead of a free-running timer, so an idle simulation drains cleanly.
* Page **stealing**: a fault on a page still in ``pending`` takes it
  back directly (shortcutting two network round trips); a fault on a
  page in an in-flight batch must wait for the batch to complete and
  then resumes immediately with the buffered copy.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, Generator, List, Optional, Tuple

from ..check.invariants import NULL_CHECKER, CorrectnessChecker
from ..errors import FluidMemError, StoreUnavailableError
from ..faults.retry import RetryPolicy, retry_call
from ..mem import FrameAllocator, Page, PageTable
from ..obs import NULL_OBS, Observability
from ..sim import Environment, Event, Store
from .profiling import CodePath, Profiler

__all__ = ["WritebackEntry", "StealResult", "WritebackQueue"]


class WritebackEntry:
    """One evicted page parked in the monitor's user-space buffer."""

    __slots__ = ("key", "page", "buffer_vaddr", "registration", "queued_at")

    def __init__(
        self,
        key: int,
        page: Page,
        buffer_vaddr: int,
        registration: object,
        queued_at: float,
    ) -> None:
        self.key = key
        self.page = page
        self.buffer_vaddr = buffer_vaddr
        self.registration = registration
        self.queued_at = queued_at


class StealResult:
    """Outcome of a steal attempt."""

    __slots__ = ("state", "entry", "completion")

    #: Entry was still pending: taken synchronously.
    PENDING = "pending"
    #: Entry is in an in-flight batch: wait for ``completion``.
    IN_FLIGHT = "in-flight"

    def __init__(
        self,
        state: str,
        entry: WritebackEntry,
        completion: Optional[Event] = None,
    ) -> None:
        self.state = state
        self.entry = entry
        self.completion = completion


class WritebackQueue:
    """The write list plus its flusher process."""

    def __init__(
        self,
        env: Environment,
        buffer_table: PageTable,
        frames: FrameAllocator,
        batch_pages: int,
        stale_us: float,
        retry_policy: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        profiler: Optional[Profiler] = None,
        obs: Optional[Observability] = None,
        owner: str = "monitor",
        check: Optional[CorrectnessChecker] = None,
    ) -> None:
        if batch_pages < 1:
            raise FluidMemError(f"batch must be >= 1, got {batch_pages}")
        self.env = env
        self.buffer_table = buffer_table
        self.frames = frames
        self.batch_pages = batch_pages
        self.stale_us = stale_us
        #: When set, flushes retry transient store failures with this
        #: policy; a batch whose retries exhaust is re-enqueued (the
        #: buffered pages are NOT dropped) before the error surfaces.
        self.retry_policy = retry_policy
        self._rng = rng
        self._profiler = profiler
        self.obs = obs if obs is not None else NULL_OBS
        self.owner = owner
        self.check = check if check is not None else NULL_CHECKER
        self._pending: "OrderedDict[int, WritebackEntry]" = OrderedDict()
        self._in_flight: Dict[int, Tuple[WritebackEntry, Event]] = {}
        # A token channel so kicks raised before the flusher arms its
        # wait are never lost.
        self._kicks = Store(env)
        self._flusher = env.process(self._run())
        self.counters = self.obs.counters_for(
            vm=owner, component="writeback"
        )

    # -- producer side (the monitor's eviction path) ---------------------------

    def enqueue(self, entry: WritebackEntry) -> None:
        if entry.key in self._pending or entry.key in self._in_flight:
            raise FluidMemError(
                f"key {entry.key:#x} is already queued for write-back"
            )
        self._pending[entry.key] = entry
        if self.check.enabled:
            self.check.writeback.on_enqueued(entry.key)
        self.counters["enqueued"] += 1
        if len(self._pending) >= self.batch_pages:
            self._wake_flusher()

    def check_stale(self) -> None:
        """Flush early if the oldest pending write has gone stale."""
        if not self._pending:
            return
        oldest = next(iter(self._pending.values()))
        if self.env._now - oldest.queued_at >= self.stale_us:
            self._wake_flusher()

    def steal(self, key: int) -> Optional[StealResult]:
        """Try to resolve a fault from the write list (paper §V-B)."""
        entry = self._pending.pop(key, None)
        if entry is not None:
            if self.check.enabled:
                self.check.pages.on_steal_pending(key)
                self.check.writeback.on_stolen(key)
            self.counters["steals_pending"] += 1
            return StealResult(StealResult.PENDING, entry)
        in_flight = self._in_flight.get(key)
        if in_flight is not None:
            entry, completion = in_flight
            self.counters["steals_in_flight"] += 1
            return StealResult(StealResult.IN_FLIGHT, entry, completion)
        return None

    # -- introspection -------------------------------------------------------

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def in_flight_count(self) -> int:
        return len(self._in_flight)

    def holds(self, key: int) -> bool:
        return key in self._pending or key in self._in_flight

    # -- flusher ----------------------------------------------------------------

    def _wake_flusher(self) -> None:
        if not self._kicks.items:  # coalesce outstanding kicks
            self._kicks.put(None)

    def _run(self) -> Generator:
        while True:
            yield self._kicks.get()
            if self._pending and self._should_flush():
                # Once triggered, drain the whole list (in per-region
                # batches) — "flushes the write list ... when its size
                # has reached a configured batch size".
                while self._pending:
                    yield from self._flush_batch()

    def _should_flush(self) -> bool:
        if len(self._pending) >= self.batch_pages:
            return True
        oldest = next(iter(self._pending.values()))
        return self.env.now - oldest.queued_at >= self.stale_us

    def _flush_batch(self) -> Generator:
        """Take up to a batch (single registration) and multi-write it."""
        batch: List[WritebackEntry] = []
        registration = None
        for key in list(self._pending):
            entry = self._pending[key]
            if registration is None:
                registration = entry.registration
            if entry.registration is not registration:
                continue  # next batch; multi-write is per region
            del self._pending[key]
            batch.append(entry)
            if len(batch) >= self.batch_pages:
                break
        if not batch:
            return

        completion = Event(self.env)
        for entry in batch:
            self._in_flight[entry.key] = (entry, completion)

        flush_started = self.env._now
        store = registration.store  # type: ignore[attr-defined]
        items = [(entry.key, entry.page, 4096) for entry in batch]
        try:
            yield from self._write_items(store, items)
        except StoreUnavailableError as exc:
            # Retries exhausted.  The pages are still buffered: put the
            # batch back at the FRONT of the write list so nothing is
            # lost — a recovered store (or a drain after the fault
            # window closes) flushes them later — then surface the
            # failure.  The completion is defused because a waiter may
            # not be attached.
            self._requeue(batch)
            completion._defused = True
            completion.fail(exc)
            raise
        except Exception as exc:
            completion.fail(exc)
            raise
        finally:
            for entry in batch:
                self._in_flight.pop(entry.key, None)

        # Release the buffered copies now that the store is durable.
        if self.check.enabled:
            for entry in batch:
                self.check.pages.on_writeback_durable(entry.key)
                self.check.writeback.on_durable(entry.key)
        for entry in batch:
            pte = self.buffer_table.unmap(entry.buffer_vaddr)
            self.frames.free(pte.frame)
        counters = self.counters
        counters["flushed"] += len(batch)
        counters["batches"] += 1
        if self.obs.enabled:
            duration = self.env.now - flush_started
            self.obs.registry.histogram(
                "path_latency_us", path="writeback_flush", vm=self.owner
            ).observe(duration)
            self.obs.tracer.complete(
                "writeback_flush", flush_started, duration,
                cat="writeback", track=f"{self.owner}/writeback",
                pages=len(batch), store=store.name,
            )
        completion.succeed(len(batch))

    def _write_items(self, store, items: List[Tuple]) -> Generator:
        """One multi-write, retried under the queue's policy if set."""
        if self.retry_policy is None:
            yield from store.multi_write(items)
            return

        def on_retry(attempt: int, delay_us: float, exc: Exception) -> None:
            self.counters.incr("flush_retries")
            if self._profiler is not None:
                self._profiler.record(CodePath.WRITE_RETRY, delay_us)
            if self.obs.enabled:
                self.obs.registry.histogram(
                    "path_latency_us", path="retry_backoff",
                    vm=self.owner,
                ).observe(delay_us)
                self.obs.tracer.instant(
                    "retry", self.env.now, cat="resilience",
                    track=f"{self.owner}/writeback",
                    op=CodePath.WRITE_RETRY.value, attempt=attempt,
                    error=type(exc).__name__,
                )

        yield from retry_call(
            self.env,
            lambda: store.multi_write(list(items)),
            self.retry_policy,
            rng=self._rng,
            on_retry=on_retry,
            what=f"write-back flush of {len(items)} page(s) to "
                 f"{store.name!r}",
            obs=self.obs,
            op=CodePath.WRITE_RETRY.value,
        )

    def _requeue(self, batch: List[WritebackEntry]) -> None:
        """Put a failed batch back at the front of the write list."""
        for entry in reversed(batch):
            self._pending[entry.key] = entry
            self._pending.move_to_end(entry.key, last=False)
        if self.check.enabled:
            self.check.writeback.on_requeued(
                [entry.key for entry in batch]
            )
        self.counters.incr("reenqueued", by=len(batch))
        if self.obs.enabled:
            self.obs.tracer.instant(
                "writeback_reenqueue", self.env.now, cat="writeback",
                track=f"{self.owner}/writeback", pages=len(batch),
            )

    def wait_durable(self, key: int) -> Generator:
        """Block until ``key`` is safely in the store.

        Used when write-list stealing is disabled: a fault on a page
        with a pending write has "no other choice than to wait for the
        write to complete" (§V-B) before reading it back.
        """
        while self.holds(key):
            in_flight = self._in_flight.get(key)
            if in_flight is not None:
                _entry, completion = in_flight
                if not completion.processed:
                    yield completion
                continue
            # Still pending: push batches out until ours goes.
            yield from self._flush_batch()

    def drain(self) -> Generator:
        """Flush everything and wait (used at shutdown / in tests)."""
        while self._pending:
            yield from self._flush_batch()
        # In-flight batches were flushed by this coroutine or the
        # flusher; wait for any the flusher still owns.
        while self._in_flight:
            _entry, completion = next(iter(self._in_flight.values()))
            if not completion.processed:
                yield completion
            else:  # pragma: no cover - defensive
                yield self.env.timeout(0.1)
