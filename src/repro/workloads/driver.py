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

Both retire a hit through the port's one-page hit body,
:meth:`~repro.vm.MemoryPort.try_touch`: a single page-table probe that
touches the page iff it is resident.  The one exception is the hit that
makes a flush due in :meth:`AccessDriver.try_hit` (one in
``flush_every``): it asks ``is_resident`` first and touches only after
its clock advance succeeded, because a False return must leave
everything unchanged.  Driver hits are not port-level hits: FluidMem's
``lru_hits`` counts only the port's own ``try_access``/``access`` hits.

A caller that knows a run of addresses before it touches the first
(Graph500's BFS, a chunk of frontier vertices at a time) hands them to
:meth:`AccessDriver.try_hits`, which retires the hits that make no
flush due through the port's run body,
:meth:`~repro.vm.MemoryPort.touch_run`, and gives every other access to
``try_hit``: it is ``try_hit`` per access, in fewer calls.  A run of
hits passes no simulated time, draws nothing and yields to no one, so
nothing can tell the two apart.  A driver with a latency recorder
retires every access through ``try_hit``, the one body that draws hit
samples.  Callers that learn one address at a time (pmbench, whose
page draws share an RNG with its hit samples) keep ``try_hit``.

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

import random
from typing import Generator, Optional, Sequence

from ..mem import PageKind
from ..sim import Environment, LatencyRecorder
from ..vm import MemoryPort

__all__ = ["AccessDriver", "HIT_COST_US"]

#: Cost of an access that hits DRAM (TLB walk + cache effects), µs.
HIT_COST_US = 0.15


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
        :meth:`try_hit` accounts each, ``hit_cost_us`` added one hit at
        a time.  Every other access goes to :meth:`try_hit`: the one a
        run stops at (the hit that makes a flush due, a miss, or an
        address the run body leaves to the one-page body) and, on a
        driver with a latency recorder, every access, so the flush rule,
        the miss, address errors and hit samples each keep their single
        body.  A miss is probed twice, by the run body that stops at it
        and by ``try_hit``.
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
                    cost = self.hit_cost_us
                    pending = self._pending_us
                    for _ in range(count):
                        pending += cost
                    self._pending_us = pending
                    self._hits_since_flush += count
                    self._run_hits += count
                    self.hits += count
                    index = done
                    if index == stop:
                        break
            if not self.try_hit(vaddrs[index], writes[index]):
                return index
            index += 1
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
        # Miss: settle accumulated hit time first so ordering is sane.
        fault = port.fault
        if self._pending_us > 0.0 and (yield from self.flush()):
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
        if self._pending_us > 0.0:
            pending, self._pending_us = self._pending_us, 0.0
            self._hits_since_flush = 0
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
