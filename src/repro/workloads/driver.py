"""Access driver: the workload side of a memory port.

Workloads issue millions of page touches; creating one simulation event
per DRAM hit would dominate runtime without adding fidelity.  The
driver therefore accounts hit costs arithmetically and only enters the
event machinery on faults (where all the interesting latency lives),
flushing the accumulated hit time as a single timeout every
``flush_every`` hits so the clock stays honest relative to background
processes (kswapd, the write-back flusher).

Hot loops should prefer :meth:`AccessDriver.try_hit` — a plain method
(no generator) that handles the DRAM-hit case entirely without the
event machinery, settling due flushes through
:meth:`~repro.sim.Environment.try_advance` when that is provably
equivalent to the timeout it replaces.  When it returns False the
caller falls back to ``yield from driver.access(...)``, which behaves
exactly as before — so workloads written either way produce
byte-identical simulated results (DESIGN.md §12).

A hit is retired through one of three port bodies, each marking a page
as ``Page.read``/``Page.write`` would:

* **One-page:** :meth:`~repro.vm.MemoryPort.try_touch`, a single
  page-table probe that touches the page iff it is resident.
  ``try_hit`` and ``access`` use it.  The one exception is the hit
  that makes a flush due in ``try_hit`` (one in ``flush_every``): it
  asks ``is_resident`` first and touches only after its clock advance
  succeeded, because a False return must leave everything unchanged.
* **Run:** :meth:`~repro.vm.MemoryPort.touch_run`.  A caller that knows
  a run of addresses before it touches the first hands them to
  :meth:`AccessDriver.try_hits`, which retires the hits that make no
  flush due through the run body and gives every other access to
  ``try_hit``: it is ``try_hit`` per access, in fewer calls.  A run of
  hits passes no simulated time, draws nothing and yields to no one, so
  nothing can tell the two apart.
* **Set:** :meth:`~repro.vm.MemoryPort.resident_set`.  A caller that
  holds a run as numpy arrays (Graph500's BFS, a chunk of frontier
  vertices at a time) offers it to :meth:`AccessDriver.try_hit_set`
  first.  When every distinct page of the run is resident, the port
  hands back their page objects, and the driver settles each flush
  the run makes due and marks each flush window's distinct pages once,
  at the instant the per-access run marks them.  Otherwise it declines
  and changes nothing, and the caller hands the run to ``try_hits``.

Driver hits are not port-level hits: FluidMem's ``lru_hits`` counts
only the port's own ``try_access``/``access`` hits.  A driver with a
latency recorder retires every access through ``try_hit``, the one
body that draws hit samples.  Callers that learn one address at a time
(pmbench, whose page draws share an RNG with its hit samples) keep
``try_hit``.

``_pending_us`` is always the in-order sum of ``hit_cost_us`` over the
``_hits_since_flush`` hits since the last flush, so each driver adds
those sums up once, into a table of ``flush_every + 1`` floats, and the
run and set bodies read the table instead of adding one hit at a time;
the floats are the same.

A miss costs one probe too when it reaches ``try_hit`` directly.  When
``try_hit`` returns False because its own probe missed, the ``access``
fallback that follows at once does not probe again: it settles the
pending hit time and calls the port's one miss body,
:meth:`~repro.vm.MemoryPort.fault`.  Only when that settling had to
wait on a timeout -- so other processes ran and may have mapped the
page -- does it call the port's ``access``, which probes again.  A miss
inside a ``try_hits`` run costs two probes: the run body stops at the
absent page without saying why, and ``try_hit`` probes it again.
"""

from __future__ import annotations

import math
import random
from typing import Generator, Optional, Sequence

import numpy as np

from ..mem import PageKind
from ..sim import Environment, LatencyRecorder
from ..vm import MemoryPort

__all__ = ["AccessDriver", "HIT_COST_US"]

#: Cost of an access that hits DRAM (TLB walk + cache effects), µs.
HIT_COST_US = 0.15

#: Accesses :meth:`AccessDriver.try_hit_set` probes before it sorts a
#: run's pages: where a Graph500 chunk misses, its first miss is among
#: its first 16 accesses in 73 % of the full ``fig4 --seed 42``'s
#: declined offers, so most declines skip the sort.
_LEAD_ACCESSES = 16


class AccessDriver:
    """Batched-hit, faulting-miss access frontend over a MemoryPort."""

    def __init__(
        self,
        env: Environment,
        port: MemoryPort,
        hit_cost_us: float = HIT_COST_US,
        flush_every: int = 256,
        rng: Optional[random.Random] = None,
        latency: Optional[LatencyRecorder] = None,
    ) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        if not 0.0 <= hit_cost_us < math.inf:
            raise ValueError(
                f"hit_cost_us must be finite and >= 0, got {hit_cost_us}"
            )
        self.env = env
        self.port = port
        self.hit_cost_us = hit_cost_us
        self.flush_every = flush_every
        self._rng = rng or random.Random(0)
        #: Optional recorder: gets per-access latency (hits ~hit cost,
        #: misses the full fault time).
        self.latency = latency
        self._pending_us = 0.0
        self._hits_since_flush = 0
        #: ``_pending_after[n]``: ``_pending_us`` after ``n`` hits since
        #: a flush, each the one before plus ``hit_cost_us``, as the
        #: hits add it; ``_pending_after[flush_every]`` is the float
        #: that settles a flush.
        pending = [0.0]
        for _ in range(flush_every):
            pending.append(pending[-1] + hit_cost_us)
        self._pending_after = pending
        #: Length of the current run of consecutive hits; reported to
        #: the port via ``note_hit_run`` when the run ends (metrics-
        #: silent — purely batching-effectiveness accounting).
        self._run_hits = 0
        #: The address whose probe in :meth:`try_hit` just missed; the
        #: :meth:`access` fallback that follows consumes it.
        self._missed: Optional[int] = None
        self.hits = 0
        self.faults = 0

    def try_hit(self, vaddr: int, is_write: bool = False) -> bool:
        """Fast path: account a DRAM hit without the event machinery.

        Returns True iff the page was resident *and* any flush that came
        due could be settled as a pure clock advance.  On False nothing
        has been mutated; the caller must fall back to
        ``yield from access(...)`` at once, which then performs the
        access (including this hit's accounting) exactly as the slow
        path always did.  When the False came from a probe that missed,
        the address is remembered so that ``access`` skips its own.
        """
        port = self.port
        if self._hits_since_flush + 1 >= self.flush_every:
            # Committing this hit makes a flush due; take the fast path
            # only if the whole batch settles as a clock advance, and
            # touch the page only once it has.
            if not port.is_resident(vaddr):
                self._missed = vaddr
                return False
            if not self.env.try_advance(self._pending_us + self.hit_cost_us):
                return False
            self._pending_us = 0.0
            self._hits_since_flush = 0
            port.note_hit_run(self._run_hits + 1)
            self._run_hits = 0
            port.touch(vaddr, is_write)
        else:
            if not port.try_touch(vaddr, is_write):
                self._missed = vaddr
                return False
            self._pending_us += self.hit_cost_us
            self._hits_since_flush += 1
            self._run_hits += 1
        self.hits += 1
        recorder = self.latency
        if recorder is not None:
            # Sample a plausible in-DRAM access time (same draw, same
            # order as the generator path — the RNG stream is pinned).
            # Clamped, so appended in place under the cap (DESIGN.md §12).
            sample = max(0.02, self._rng.gauss(self.hit_cost_us * 8, 0.4))
            if len(recorder._samples) < recorder._cap:
                recorder._samples.append(sample)
            else:
                recorder.record(sample)
        return True

    def try_hits(
        self,
        vaddrs: Sequence[int],
        writes: Sequence[bool],
        start: int = 0,
    ) -> int:
        """:meth:`try_hit` on ``vaddrs[start:]`` in order, in fewer calls.

        ``writes[i]`` is access ``i``'s ``is_write``.  Returns the index
        of the first access not retired (``len(vaddrs)`` when all were);
        the caller falls back to ``yield from access(...)`` on it at
        once, as after a False :meth:`try_hit`, and carries on from the
        next index.  Hits that make no flush due go through the port's
        run body, ``port.touch_run``, and are accounted as
        :meth:`try_hit` accounts each, the pending hit time read from
        the table of its in-order sums.  Every other access goes to
        :meth:`try_hit`: the one a run stops at (the hit that makes a
        flush due, a miss, or an address the run body leaves to the
        one-page body) and, on a driver with a latency recorder, every
        access, so the flush rule, the miss, address errors and hit
        samples each keep their single body.  A miss is probed twice,
        by the run body that stops at it and by ``try_hit``.
        """
        stop = len(vaddrs)
        touch_run = self.port.touch_run
        index = start
        while index < stop:
            room = self.flush_every - 1 - self._hits_since_flush
            if room > 0 and self.latency is None:
                end = index + room
                done = touch_run(vaddrs, writes, index,
                                 end if end < stop else stop)
                count = done - index
                if count:
                    since = self._hits_since_flush + count
                    self._pending_us = self._pending_after[since]
                    self._hits_since_flush = since
                    self._run_hits += count
                    self.hits += count
                    index = done
                    if index == stop:
                        break
            if not self.try_hit(vaddrs[index], writes[index]):
                return index
            index += 1
        return stop

    def try_hit_set(
        self,
        vaddrs: np.ndarray,
        writes: np.ndarray,
        start: int = 0,
    ) -> Optional[int]:
        """:meth:`try_hits` on ``vaddrs[start:]`` when all its pages hit.

        ``vaddrs`` holds page addresses (int64) and ``writes`` each
        access's ``is_write`` (bool).  Returns None, having changed
        nothing, when the driver has a latency recorder or the port's
        set body, ``port.resident_set``, does not hand back the page of
        every distinct address of the rest (one probe per distinct page
        after one sorted ``np.unique``, and before it a probe of each of
        the first ``_LEAD_ACCESSES`` accesses, where a run that misses
        usually misses first); the caller then hands the rest to
        :meth:`try_hits` as Python lists.

        Otherwise it returns what :meth:`try_hits` would, with the same
        effects at the same simulated instants.  Each flush the run
        makes due (the hit that brings ``_hits_since_flush`` to
        ``flush_every``) is settled by one ``env.try_advance`` of the
        float :meth:`try_hit` passes, followed by ``note_hit_run`` with
        the count it passes; the accesses from one flush to the next (a
        *window*) are marked after the flush that opens it, each
        distinct page once: ``referenced``, and for a page the window
        writes, ``dirty`` and ``version`` plus its write count.  So
        every mark lands at the instant the per-access run sets it, and
        only their order within an instant, where marks commute,
        differs.  Nothing else runs within a window, so every page stays
        resident.  When a flush cannot advance in place, it stops before
        that access and returns its index, as after a False
        :meth:`try_hit`: the caller falls back to ``access`` on it, and
        may offer the rest again.
        """
        if self.latency is not None:
            return None
        rest = vaddrs[start:]
        port = self.port
        resident_set = port.resident_set
        if resident_set(rest[:_LEAD_ACCESSES].tolist()) is None:
            return None
        distinct, inverse = np.unique(rest, return_inverse=True)
        pages = resident_set(distinct.tolist())
        if pages is None:
            return None
        count = len(rest)
        stop = start + count
        if not count:
            return stop
        every = self.flush_every
        since = self._hits_since_flush
        run = self._run_hits
        # The rest's first flush falls due on access ``first``; the
        # others follow every ``flush_every`` accesses.
        first = every - 1 - since if since < every - 1 else 0
        width = len(pages)
        if first >= count:
            windows = 1
            key = inverse
        else:
            windows = 2 + (count - 1 - first) // every
            window_of = (np.arange(count) + (every - first)) // every
            key = window_of * width + inverse
        # One (window, page) pair per distinct page of a window, window
        # by window, with the window's writes to that page.
        size = windows * width
        touched = np.flatnonzero(np.bincount(key, minlength=size))
        bumps = np.bincount(key[writes[start:]], minlength=size)[touched]
        ends = np.searchsorted(
            touched, np.arange(1, windows + 1) * width
        ).tolist()
        marked = (touched % width).tolist()
        bumps = bumps.tolist()

        try_advance = self.env.try_advance
        pending = self._pending_after
        settle = pending[every]
        lo = 0
        for window in range(windows):
            if window:
                # Access ``at`` makes this window's flush due, with
                # ``since`` hits pending before it.
                at = first + (window - 1) * every
                if window == 1:
                    since += first
                    run += first
                else:
                    since = run = every - 1
                if not try_advance(settle):
                    if at:
                        self._pending_us = pending[since]
                        self._hits_since_flush = since
                        self._run_hits = run
                        self.hits += at
                    return start + at
                port.note_hit_run(run + 1)
            hi = ends[window]
            for index in range(lo, hi):
                page = pages[marked[index]]
                page.referenced = True
                bump = bumps[index]
                if bump:
                    page.dirty = True
                    page.version += bump
            lo = hi
        if windows == 1:
            since += count
            run += count
        else:
            since = run = count - 1 - first - (windows - 2) * every
        self._pending_us = pending[since]
        self._hits_since_flush = since
        self._run_hits = run
        self.hits += count
        return stop

    def access(
        self,
        vaddr: int,
        is_write: bool = False,
        kind: PageKind = PageKind.ANONYMOUS,
    ) -> Generator:
        """Touch one page; cheap on a hit, the port's miss body on a miss.

        The fallback after a False :meth:`try_hit`.  It probes the page
        unless ``try_hit``'s own probe of it just missed.  On a miss it
        settles the pending hit time, then calls ``port.fault``; if the
        settling had to wait on a timeout it calls ``port.access``
        instead, which probes again, since the page may have been
        mapped meanwhile.
        """
        port = self.port
        missed, self._missed = self._missed, None
        if missed != vaddr and port.try_touch(vaddr, is_write):
            self.hits += 1
            self._pending_us += self.hit_cost_us
            self._hits_since_flush += 1
            self._run_hits += 1
            recorder = self.latency
            if recorder is not None:
                # Sample a plausible in-DRAM access time.
                sample = max(
                    0.02, self._rng.gauss(self.hit_cost_us * 8, 0.4)
                )
                if len(recorder._samples) < recorder._cap:
                    recorder._samples.append(sample)
                else:
                    recorder.record(sample)
            if self._hits_since_flush >= self.flush_every:
                yield from self.flush()
            return
        # Miss: settle accumulated hit time first so ordering is sane,
        # and end the hit run even when a zero hit cost left no time.
        fault = port.fault
        if (self._pending_us > 0.0 or self._run_hits) and (
            yield from self.flush()
        ):
            # Other processes ran during the wait: probe again.
            fault = port.access
        started = self.env._now
        yield from fault(vaddr, is_write, kind)
        self.faults += 1
        recorder = self.latency
        if recorder is not None:
            # A clock difference: appended in place under the cap.
            latency = self.env._now - started
            if len(recorder._samples) < recorder._cap:
                recorder._samples.append(latency)
            else:
                recorder.record(latency)

    def flush(self) -> Generator:
        """Charge any accumulated hit time to the clock.

        Prefers a direct clock advance when no earlier event exists (and
        no schedule policy is watching); otherwise falls back to the
        timeout this method always issued.  Returns True iff it waited
        on that timeout, so other processes may have run meanwhile.
        """
        if self._run_hits:
            self.port.note_hit_run(self._run_hits)
            self._run_hits = 0
        self._hits_since_flush = 0
        if self._pending_us > 0.0:
            pending, self._pending_us = self._pending_us, 0.0
            if not self.env.try_advance(pending):
                yield self.env.timeout(pending)
                return True
        return False

    @property
    def total_accesses(self) -> int:
        return self.hits + self.faults

    def __repr__(self) -> str:
        return (
            f"<AccessDriver hits={self.hits} faults={self.faults}>"
        )
