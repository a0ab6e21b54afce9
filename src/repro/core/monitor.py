"""The FluidMem monitor process (paper §V).

The monitor is the user-space page fault handler: it sleeps on the
userfaultfd event queue, resolves each fault, and manages the global
LRU buffer that bounds how many pages all registered VMs keep in local
DRAM.  This module is the heart of the reproduction — every arrow in
the paper's Figure 2 corresponds to a step in :meth:`Monitor._service_fault`:

1. guest halts on a missing page          (vCPU blocks on the fault event)
2. kernel fault handler                   (:class:`~repro.kernel.Userfaultfd`)
3. event delivered to the monitor         (``uffd.events``)
4. first access -> ``UFFD_ZERO``          (pagetracker + zero page)
5. wake the guest                         (``UFFDIO_WAKE``)
6. asynchronous eviction                  (after the wake, off-path)
7. ``UFFD_REMAP`` out of the VM           (zero-copy PTE move)
8. write to the key-value store           (:class:`WritebackQueue`)

Re-access of an evicted page takes the read path instead, with the
§V-B optimizations: asynchronous reads interleaved with the eviction
REMAP, write-list stealing, and batched asynchronous write-back.
"""

from __future__ import annotations

import random
from typing import Dict, Generator, List, Optional

from ..check.invariants import NULL_CHECKER, CorrectnessChecker
from ..errors import (
    FluidMemError,
    KeyNotFoundError,
    MonitorStateError,
    StoreUnavailableError,
    TransientStoreError,
)
from ..faults.retry import retry_call
from ..kernel import UffdFault, UffdOps, UffdRegion, Userfaultfd
from ..kv import KeyValueBackend, PartitionedKeyCodec
from ..mem import PAGE_SIZE, MemoryRegion, Page, PageTable
from ..obs import NULL_OBS, Observability
from ..policy.prefetch import resolve_prefetcher
from ..policy.registry import validate_policy_names
from ..sim import Environment, LatencyRecorder, Resource
from ..vm import QemuProcess
from .config import FluidMemConfig
from .lru_buffer import LruBuffer
from .page_tracker import PageTracker
from .profiling import CodePath, Profiler
from .writeback import StealResult, WritebackEntry, WritebackQueue

__all__ = ["VmRegistration", "Monitor"]

#: Where the monitor's user-space eviction buffer lives (its own vspace).
BUFFER_BASE = 0x6000_0000_0000
#: The monitor's cached profiler histograms, one per phase it charges.
_PHASE_ATTRS = (
    "_ph_dispatch", "_ph_lookup", "_ph_insert_hash", "_ph_insert_lru",
    "_ph_zeropage", "_ph_copy", "_ph_wake", "_ph_read", "_ph_update",
    "_ph_remap", "_ph_write",
)


class VmRegistration:
    """One VM's registration with the monitor.

    Carries the store backend, the key codec (native table or virtual
    partition), the QEMU process whose address space faults, and the
    uffd handles for its registered regions.
    """

    def __init__(
        self,
        qemu: QemuProcess,
        store: KeyValueBackend,
        codec: PartitionedKeyCodec,
    ) -> None:
        self.qemu = qemu
        #: The page table the VM's faults resolve into.
        self.table: PageTable = qemu.page_table
        self.store = store
        self.codec = codec
        self.handles: List[UffdRegion] = []
        self.active = True
        #: Virtual-partition lease backing ``codec.partition``, if the
        #: index came from a :class:`VirtualPartitionRegistry`.  The
        #: monitor releases it on deregister (true teardown) so
        #: allocate/free cycles never exhaust the 4096-index space; a
        #: detach keeps it — migration moves the partition, and its
        #: keys, to the destination hypervisor.
        self.partition_lease = None
        #: Set when the VM's backend was declared dead (retries
        #: exhausted): the monitor refuses further faults for this VM
        #: with StoreUnavailableError instead of hanging on a store
        #: that will never answer.
        self.quarantined = False

    def release_partition(self) -> None:
        """Give the virtual-partition index back (idempotent)."""
        if self.partition_lease is not None:
            self.partition_lease.release()
            self.partition_lease = None

    def __repr__(self) -> str:
        return (
            f"<VmRegistration pid={self.qemu.pid} "
            f"store={self.store.name} regions={len(self.handles)}>"
        )


class Monitor:
    """The user-space page fault handler."""

    def __init__(
        self,
        env: Environment,
        uffd: Userfaultfd,
        ops: UffdOps,
        config: Optional[FluidMemConfig] = None,
        rng: Optional[random.Random] = None,
        name: str = "monitor",
        obs: Optional[Observability] = None,
        check: Optional[CorrectnessChecker] = None,
    ) -> None:
        self.env = env
        self.uffd = uffd
        self.ops = ops
        self.config = config or FluidMemConfig()
        self._rng = rng or random.Random(0)
        self.name = name
        #: Observability sink; the shared disabled instance by default,
        #: so the hot paths pay one ``enabled`` check when unobserved.
        self.obs = obs if obs is not None else NULL_OBS
        #: Invariant monitor (``repro.check``); the shared disabled
        #: instance by default — same cost model as ``obs``.
        self.check = check if check is not None else NULL_CHECKER
        # Both sinks fix ``enabled`` at construction, so the fault hot
        # path pays one cached-bool load per hook site instead of two
        # attribute loads (DESIGN.md §12).
        self._obs_on = self.obs.enabled
        self._check_on = self.check.enabled

        self.lru = LruBuffer(
            self.config.lru_capacity_pages,
            reorder_on_access=self.config.lru_reorder_on_access,
            obs=self.obs,
            name=name,
            check=self.check,
        )
        self.tracker = PageTracker()
        if self._obs_on:
            self.profiler = Profiler(registry=self.obs.registry, vm=name)
        else:
            self.profiler = Profiler()
        self.counters = self.obs.counters_for(vm=name)
        self.fault_latency = LatencyRecorder(
            f"{name}.fault", max_samples=500_000
        )
        # Lazily cached phase histograms (the Profiler's) + epilogue
        # histograms for the fault path.  Each is created at its first
        # actual record (eager creation would add empty instruments to
        # the --metrics document, DESIGN.md §12).  A phase sample is
        # non-negative by construction, so it is appended to the
        # retained samples while they are under the cap and recorded
        # past it (DESIGN.md §12).  A profiler reset drops the phase
        # histograms it handed out, so it empties this cache too.
        self._forget_phases()
        self.profiler.on_reset = self._forget_phases
        self._h_fault_latency = None
        self._h_evict_latency = None
        self._h_path_latency: Dict[str, object] = {}

        validate_policy_names(self.config.prefetch_policy)
        #: Candidate generator for the async prefetch extension; None
        #: when prefetching is off (the shipped default) so the fault
        #: hot path pays one identity check.
        self.prefetcher = resolve_prefetcher(
            self.config.prefetch_policy, self.config.prefetch_pages
        )
        #: (id(registration), addr) installed by prefetch and not yet
        #: touched — the accuracy ledger (hit vs wasted).
        self._prefetched_addrs = set()

        self.buffer_table = PageTable(f"{name}-buffer")
        #: Next eviction-buffer address; the buffer space only grows.
        self._buffer_next = BUFFER_BASE
        self.writeback = WritebackQueue(
            env,
            self.buffer_table,
            ops.frames,
            batch_pages=self.config.writeback_batch_pages,
            stale_us=self.config.writeback_stale_us,
            retry_policy=self.config.retry_policy,
            rng=self._rng,
            profiler=self.profiler,
            obs=self.obs,
            owner=name,
            check=self.check,
        )

        self._by_handle: Dict[UffdRegion, VmRegistration] = {}
        self._registrations: List[VmRegistration] = []
        #: (id(registration), addr) of prefetches currently in flight.
        self._prefetch_inflight = set()
        #: Optional provider policy (per-VM shares/caps, §III); when
        #: None, eviction is the paper's plain global FIFO.
        self.victim_policy = None
        #: DRAM pages lent to the memory market (``repro.market``);
        #: :meth:`give_back` can only return what :meth:`harvest` took.
        self.harvested_pages = 0
        self._handler_slots: Optional[Resource] = None
        self._process = None
        self._running = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Begin watching the event queue."""
        if self._running:
            raise MonitorStateError(f"{self.name} is already running")
        self._running = True
        self._process = self.env.process(self._run())

    @property
    def running(self) -> bool:
        return self._running

    def _run(self) -> Generator:
        if self.config.fault_handlers > 1:
            yield from self._run_concurrent()
            return
        # The paper's single-threaded monitor loop: one fault at a
        # time, in event order.
        events = self.uffd.events
        while self._running:
            fault = yield events.get()
            yield from self._service_fault(fault)

    def _run_concurrent(self) -> Generator:
        """Lightweight-threaded handlers (arXiv 2107.13848): the
        dispatcher claims one of N semaphore slots per fault and hands
        the fault to its own coroutine, so faults from different
        vCPUs overlap instead of convoying behind one handler."""
        slots = self._handler_slots = Resource(
            self.env, capacity=self.config.fault_handlers
        )
        while self._running:
            fault = yield self.uffd.events.get()
            token = slots.try_acquire()
            if token is None:
                request = slots.request()
                yield request
                token = request
            self.env.process(self._handle_concurrent(fault, token))

    def _handle_concurrent(self, fault: UffdFault, token) -> Generator:
        try:
            yield from self._service_fault(fault)
        finally:
            self._handler_slots.release(token)

    def _phase(self, attr: str, path: CodePath):
        """Create + cache the profiler histogram of one code path."""
        histogram = self.profiler.histogram(path)
        setattr(self, attr, histogram)
        return histogram

    def _forget_phases(self) -> None:
        """Empty the phase-histogram cache (:meth:`_phase` refills it)."""
        for attr in _PHASE_ATTRS:
            setattr(self, attr, None)

    def _service_fault(self, fault: UffdFault) -> Generator:
        """Resolve one fault: the monitor's only fault-service body.

        The serial loop, every ``fault_handlers > 1`` coroutine and
        runs under a ``SchedulePolicy`` all come here.  Each
        handler-time charge draws its sample first (the RNG order is
        part of the determinism contract), then pays it as an
        :meth:`Environment.try_advance`, or else a real timeout, so a
        schedule policy sees every scheduling point (DESIGN.md §12).

        The rare branches (no-tracker ablation, write-list steal,
        synchronous read) finish the fault in helpers that return the
        fault's path label.
        """
        env = self.env
        ops = self.ops
        start = env._now
        path = None
        try:
            registration = self._by_handle.get(fault.region)
            if registration is None or not registration.active:
                raise FluidMemError(
                    f"fault {fault!r} for an unregistered region"
                )
            if registration.quarantined:
                # Fail fast: the backend was declared dead; do not hang
                # the vCPU on a store that will never answer.
                raise StoreUnavailableError(
                    f"VM pid={registration.qemu.pid} is quarantined: "
                    f"backend {registration.store.name!r} declared dead"
                )
            counters = self.counters
            counters["faults"] += 1
            lat = self.config.latency
            gauss = self._rng.gauss
            uffd_lat = ops.latency
            addr = fault.addr
            sample = gauss(lat.dispatch_mean, lat.dispatch_sigma)
            if sample < 0.05:
                sample = 0.05
            if not env.try_advance(sample):
                yield env.timeout(sample)
            ph = self._ph_dispatch or self._phase(
                "_ph_dispatch", CodePath.EVENT_DISPATCH)
            if len(ph._samples) < ph._cap:
                ph._samples.append(sample)
            else:
                ph.record(sample)
            table = registration.table

            if addr in table._entries:
                # Spurious: a prefetch landed while the event sat in
                # the queue — just wake the vCPU.
                path = "spurious"
                if self._prefetched_addrs:
                    token = (id(registration), addr)
                    if token in self._prefetched_addrs:
                        self._prefetched_addrs.discard(token)
                        counters["prefetch_hits"] += 1
            else:
                key = registration.codec.key_for(addr)
                # Without the tracker (ablation) every fault goes to
                # the store and first touches pay a wasted round trip.
                if self.config.zero_page_tracker and \
                        self.tracker.is_first_access(key):
                    # Figure 2's red path: insert-hash, UFFD_ZEROPAGE,
                    # insert-LRU, then the wake below.
                    path = "zero_fill"
                    sample = gauss(
                        lat.insert_page_hash_mean,
                        lat.insert_page_hash_sigma,
                    )
                    if sample < 0.05:
                        sample = 0.05
                    if not env.try_advance(sample):
                        yield env.timeout(sample)
                    ph = self._ph_insert_hash or self._phase(
                        "_ph_insert_hash", CodePath.INSERT_PAGE_HASH_NODE)
                    if len(ph._samples) < ph._cap:
                        ph._samples.append(sample)
                    else:
                        ph.record(sample)
                    self.tracker.mark_seen(key)
                    cost = uffd_lat.sample_zeropage(ops._rng)
                    if not env.try_advance(cost):
                        yield env.timeout(cost)
                    ops.finish_zeropage(table, addr)
                    ph = self._ph_zeropage or self._phase(
                        "_ph_zeropage", CodePath.UFFD_ZEROPAGE)
                    if len(ph._samples) < ph._cap:
                        ph._samples.append(cost)
                    else:
                        ph.record(cost)
                    sample = gauss(
                        lat.insert_lru_mean, lat.insert_lru_sigma
                    )
                    if sample < 0.05:
                        sample = 0.05
                    if not env.try_advance(sample):
                        yield env.timeout(sample)
                    ph = self._ph_insert_lru or self._phase(
                        "_ph_insert_lru", CodePath.INSERT_LRU_CACHE_NODE)
                    if len(ph._samples) < ph._cap:
                        ph._samples.append(sample)
                    else:
                        ph.record(sample)
                    self.lru.insert(addr, registration)
                    if self._check_on:
                        self.check.pages.on_zero_fill(key)
                else:
                    # Read fault: restore the page from remote memory.
                    sample = gauss(
                        lat.lookup_page_hash_mean,
                        lat.lookup_page_hash_sigma,
                    )
                    if sample < 0.05:
                        sample = 0.05
                    if not env.try_advance(sample):
                        yield env.timeout(sample)
                    ph = self._ph_lookup or self._phase(
                        "_ph_lookup", CodePath.LOOKUP_PAGE_HASH)
                    if len(ph._samples) < ph._cap:
                        ph._samples.append(sample)
                    else:
                        ph.record(sample)

            if path is not None:
                # Spurious or zero-fill: wake the vCPU.
                if ops.try_wake(fault):
                    # try_wake advanced the clock by wake_us, so >= 0.
                    ph = self._ph_wake or self._phase(
                        "_ph_wake", CodePath.WAKE)
                    if len(ph._samples) < ph._cap:
                        ph._samples.append(uffd_lat.wake_us)
                    else:
                        ph.record(uffd_lat.wake_us)
                else:
                    yield from self._timed(CodePath.WAKE, ops.wake(fault))
                if path == "spurious":
                    counters["spurious_faults"] += 1
                else:
                    counters["zero_page_faults"] += 1
                    # Post-wake (blue path) eviction interleaves with
                    # the guest — stays event-driven, but flat.
                    yield from self._evict_until(self.lru._capacity, False)
                    if self.victim_policy is not None:
                        yield from self._enforce_policy_caps(
                            registration, False
                        )
            else:
                config = self.config
                if not config.zero_page_tracker and \
                        self.tracker.is_first_access(key):
                    path = yield from self._first_touch_via_store(
                        fault, registration, key
                    )
                elif config.write_list_steal:
                    steal = self.writeback.steal(key)
                    if steal is not None:
                        path = yield from self._resolve_from_steal(
                            fault, registration, steal
                        )
                elif self.writeback.holds(key):
                    # No stealing: wait until the pending write is
                    # durable, then take the normal read path (two full
                    # round trips).
                    yield from self.writeback.wait_durable(key)
                    counters["waits_for_writeback"] += 1
                if path is None and not config.async_read:
                    path = yield from self._read_sync_path(
                        fault, registration, key
                    )
            if path is None:
                # §V-B: issue the read, evict under it, copy + wake.
                path = "async_fetch"
                issued_at = env._now
                if self._check_on:
                    self.check.pages.on_read_issued(key)
                handle = registration.store.read_async(key)
                # REMAP runs while the vCPU is already suspended, so
                # its IPI is cheap (§V-B).
                yield from self._evict_until(self.lru._capacity - 1, True)
                sample = gauss(
                    lat.update_page_cache_mean, lat.update_page_cache_sigma,
                )
                if sample < 0.05:
                    sample = 0.05
                if not env.try_advance(sample):
                    yield env.timeout(sample)
                ph = self._ph_update or self._phase(
                    "_ph_update", CodePath.UPDATE_PAGE_CACHE)
                if len(ph._samples) < ph._cap:
                    ph._samples.append(sample)
                else:
                    ph.record(sample)
                sample = gauss(lat.insert_lru_mean, lat.insert_lru_sigma)
                if sample < 0.05:
                    sample = 0.05
                if not env.try_advance(sample):
                    yield env.timeout(sample)
                ph = self._ph_insert_lru or self._phase(
                    "_ph_insert_lru", CodePath.INSERT_LRU_CACHE_NODE)
                if len(ph._samples) < ph._cap:
                    ph._samples.append(sample)
                else:
                    ph.record(sample)
                try:
                    page = yield handle.event
                except KeyNotFoundError as exc:
                    if self._check_on:
                        self.check.pages.on_read_failed(key)
                    raise FluidMemError(
                        f"remote memory lost page {addr:#x} "
                        f"(key {key:#x}) on backend "
                        f"{registration.store.name!r} — an evicting store "
                        "(e.g. undersized Memcached) cannot back FluidMem"
                    ) from exc
                except TransientStoreError as exc:
                    # The asynchronous top half failed; fall back to
                    # retried synchronous reads (that first attempt
                    # counts against the policy's budget).
                    counters["async_read_failures"] += 1
                    try:
                        page = yield from self._fetch_with_retry(
                            registration, key, prior_attempts=1,
                            initial_error=exc,
                        )
                    except Exception:
                        if self._check_on:
                            self.check.pages.on_read_failed(key)
                        raise
                ph = self._ph_read or self._phase(
                    "_ph_read", CodePath.READ_PAGE)
                if len(ph._samples) < ph._cap:
                    ph._samples.append(env._now - issued_at)
                else:
                    ph.record(env._now - issued_at)
                yield from self._install_unless_present(
                    registration, addr, key, self._as_page(page, addr)
                )
                if ops.try_wake(fault):
                    # try_wake advanced the clock by wake_us, so >= 0.
                    ph = self._ph_wake or self._phase(
                        "_ph_wake", CodePath.WAKE)
                    if len(ph._samples) < ph._cap:
                        ph._samples.append(uffd_lat.wake_us)
                    else:
                        ph.record(uffd_lat.wake_us)
                else:
                    yield from self._timed(CodePath.WAKE, ops.wake(fault))
                counters["remote_reads"] += 1
                if self.victim_policy is not None:
                    yield from self._enforce_policy_caps(registration, True)
                if self.prefetcher is not None:
                    self._maybe_prefetch(fault, registration)
        except StoreUnavailableError as exc:
            # Graceful degradation: the faulting vCPU gets the error
            # (fail fast, no hang) while the monitor keeps serving the
            # other VMs' faults.
            self.counters.incr("faults_failed_unavailable")
            if self._obs_on:
                self.obs.tracer.instant(
                    "fault_failed", env.now, cat="fault",
                    track=self.name, addr=f"{fault.addr:#x}",
                    error=type(exc).__name__,
                )
            if fault.resolved.callbacks is not None:
                fault.resolved._defused = True  # may have no waiter
                fault.resolved.fail(exc)
            return
        latency = env._now - start
        recorder = self.fault_latency
        if len(recorder._samples) < recorder._cap:
            recorder._samples.append(latency)
        else:
            recorder.record(latency)
        if self._obs_on:
            hist = self._h_fault_latency
            if hist is None:
                hist = self._h_fault_latency = self.obs.registry.histogram(
                    "fault_latency_us", vm=self.name
                )
            hist.observe(latency)
            phist = self._h_path_latency.get(path)
            if phist is None:
                phist = self._h_path_latency[path] = (
                    self.obs.registry.histogram(
                        "path_latency_us", path=path, vm=self.name
                    )
                )
            phist.observe(latency)
            self.obs.tracer.complete(
                "fault", start, latency, cat="fault",
                track=self.name, path=path, addr=f"{fault.addr:#x}",
            )
        self.writeback.check_stale()

    # -- registration (the QEMU wrapper library's entry points, §IV) -------------

    def register_vm(
        self,
        qemu: QemuProcess,
        store: KeyValueBackend,
        partition: int = 0,
        partition_lease=None,
    ) -> VmRegistration:
        """Register every guest-RAM region of ``qemu`` with FluidMem.

        This is the "VM started with all its memory registered" mode
        (right-hand VM in Figure 1).  Pass ``partition_lease`` (a
        :class:`~repro.kv.PartitionLease`) instead of a raw
        ``partition`` index to have the monitor free the index when the
        VM deregisters.
        """
        if partition_lease is not None:
            partition = partition_lease.index
        codec = PartitionedKeyCodec(
            partition=0 if store.supports_partitions else partition
        )
        registration = VmRegistration(qemu, store, codec)
        registration.partition_lease = partition_lease
        for region in qemu.ram_regions:
            handle = self.uffd.register(region, qemu.pid, qemu.page_table)
            registration.handles.append(handle)
            self._by_handle[handle] = registration
        self._registrations.append(registration)
        self.counters.incr("vms_registered")
        return registration

    def register_process(
        self,
        owner: object,
        store: KeyValueBackend,
        codec: PartitionedKeyCodec,
        region: MemoryRegion,
    ) -> VmRegistration:
        """Register a single region of a bare process (libuserfault).

        ``owner`` needs only ``.pid`` and ``.page_table`` — this is the
        path Table II's test program uses, with no VM involved.
        """
        registration = VmRegistration(owner, store, codec)  # type: ignore[arg-type]
        handle = self.uffd.register(region, owner.pid, owner.page_table)
        registration.handles.append(handle)
        self._by_handle[handle] = registration
        self._registrations.append(registration)
        self.counters.incr("apps_registered")
        return registration

    def register_region(
        self, registration: VmRegistration, region: MemoryRegion
    ) -> None:
        """Register an additional (hotplugged) region for a VM."""
        if not registration.active:
            raise MonitorStateError("registration is no longer active")
        handle = self.uffd.register(
            region, registration.qemu.pid, registration.qemu.page_table
        )
        registration.handles.append(handle)
        self._by_handle[handle] = registration

    def deregister_vm(self, registration: VmRegistration) -> Generator:
        """Tear a VM down: drop its pages everywhere.

        Releases local frames, forgets every tracker key the VM ever
        created, and deletes its pages from the remote store — a dead
        VM must not leak remote memory.
        """
        if not registration.active:
            raise MonitorStateError("registration already deregistered")
        registration.active = False
        for handle in registration.handles:
            self.uffd.unregister(handle)
            del self._by_handle[handle]
        # Flush its pending writes, then drop resident pages.
        yield from self.writeback.drain()
        for vaddr in self.lru.discard_registration(registration):
            pte = registration.table.unmap(vaddr)
            self.ops.frames.free(pte.frame)
        # Release every key: tracker entries and remote store contents.
        doomed_keys = []
        for handle in registration.handles:
            for vaddr in handle.region.pages():
                key = registration.codec.key_for(vaddr)
                if key in self.tracker:
                    self.tracker.forget(key)
                    if self._check_on:
                        self.check.pages.on_forget(key)
                        self.check.writeback.on_forget(key)
                    if registration.store.contains(key):
                        doomed_keys.append(key)
        for key in doomed_keys:
            yield from registration.store.remove(key)
        self.counters.incr("remote_pages_released", by=len(doomed_keys))
        registration.release_partition()
        self._forget_prefetch_state(registration)
        self._registrations.remove(registration)
        self.counters.incr("vms_deregistered")

    def detach_vm(self, registration: VmRegistration) -> Generator:
        """Migration source side: push everything out, release the VM.

        Drains the write list, evicts every resident page of this VM to
        its store, unregisters its regions, and returns the set of page
        keys the tracker had seen — the destination needs them so
        re-accesses read from the store instead of being mistaken for
        first touches.  Returns ``(seen_keys, pages_pushed)``.
        """
        if not registration.active:
            raise MonitorStateError("registration is not active")
        yield from self.writeback.drain()
        resident = [
            vaddr for vaddr, reg in self.lru if reg is registration
        ]
        pushed = 0
        for vaddr in resident:
            self.lru.remove(vaddr)
            buffer_vaddr = self._take_buffer_slot()
            page = yield from self.ops.remap_out(
                registration.table, vaddr, self.buffer_table,
                buffer_vaddr, interleaved=False,
            )
            key = registration.codec.key_for(vaddr)
            yield from self._put_with_retry(registration, key, page)
            if self._check_on:
                self.check.pages.on_evicted(key, durable=True)
            pte = self.buffer_table.unmap(buffer_vaddr)
            self.ops.frames.free(pte.frame)
            pushed += 1
        registration.active = False
        for handle in registration.handles:
            self.uffd.unregister(handle)
            del self._by_handle[handle]
        seen_keys = set()
        for region_handle in registration.handles:
            for vaddr in region_handle.region.pages():
                key = registration.codec.key_for(vaddr)
                if key in self.tracker:
                    seen_keys.add(key)
                    self.tracker.forget(key)
                    if self._check_on:
                        self.check.pages.on_forget(key)
                        self.check.writeback.on_forget(key)
        self._forget_prefetch_state(registration)
        self._registrations.remove(registration)
        self.counters.incr("vms_detached")
        return seen_keys, pushed

    def _forget_prefetch_state(self, registration: VmRegistration) -> None:
        """Drop per-VM prefetcher history and accuracy-ledger entries
        when a VM leaves (their id() may be recycled by a later VM)."""
        vm_token = id(registration)
        if self.prefetcher is not None:
            self.prefetcher.forget(vm_token)
        if self._prefetched_addrs:
            self._prefetched_addrs = {
                token for token in self._prefetched_addrs
                if token[0] != vm_token
            }

    def attach_vm(
        self,
        qemu: QemuProcess,
        store: KeyValueBackend,
        seen_keys,
        partition: int = 0,
    ) -> VmRegistration:
        """Migration destination side: adopt a VM whose pages live in
        the (shared) store.  ``seen_keys`` primes the pagetracker so
        the guest's faults are resolved by store reads, not zero pages.
        """
        registration = self.register_vm(qemu, store, partition=partition)
        for key in seen_keys:
            if self.tracker.is_first_access(key):
                self.tracker.mark_seen(key)
        self.counters.incr("vms_attached")
        return registration

    # -- capacity management (the provider's lever, §III / Table III) -----------

    def set_lru_capacity(self, pages: int) -> None:
        """Change the DRAM budget.  Shrinks take effect via
        :meth:`shrink_to_capacity` or lazily on the next faults."""
        old = self.lru.capacity
        self.lru.resize(pages)
        self.counters.incr("resizes")
        if self._obs_on:
            self.obs.tracer.instant(
                "buffer_resize", self.env.now, cat="capacity",
                track=self.name, old_pages=old, new_pages=pages,
            )

    def shrink_to_capacity(self) -> Generator:
        """Actively evict until the buffer fits its capacity."""
        yield from self._evict_until(self.lru.capacity, interleaved=False)
        yield from self.writeback.drain()

    # -- memory market hooks (repro.market harvester) -----------------------------

    def harvest(self, pages: int) -> Generator:
        """Lend up to ``pages`` of DRAM budget to the memory market.

        Shrinks the LRU capacity (never below one page — a zero-page
        buffer deadlocks the fault path) and actively evicts down to
        the new budget, so the frames are genuinely free when the
        broker sells them.  Returns the pages actually harvested.
        """
        if pages <= 0:
            raise FluidMemError(
                f"harvest must be positive, got {pages}"
            )
        target = max(1, self.lru.capacity - pages)
        taken = self.lru.capacity - target
        if taken > 0:
            self.set_lru_capacity(target)
            yield from self.shrink_to_capacity()
            self.harvested_pages += taken
            self.counters.incr("pages_harvested", by=taken)
        return taken

    def give_back(self, pages: int) -> int:
        """Return harvested DRAM budget to this VM (fast path — a
        capacity grow takes effect immediately, no eviction needed).
        Returns the pages actually restored, capped at what
        :meth:`harvest` took."""
        if pages <= 0:
            raise FluidMemError(
                f"give_back must be positive, got {pages}"
            )
        returned = min(pages, self.harvested_pages)
        if returned > 0:
            self.set_lru_capacity(self.lru.capacity + returned)
            self.harvested_pages -= returned
            self.counters.incr("pages_given_back", by=returned)
        return returned

    # -- eviction buffer --------------------------------------------------------

    def _take_buffer_slot(self) -> int:
        """The buffer vaddr for the next evicted page: a fresh one.

        Buffer addresses are never reused; the frame behind each one
        goes back to the host pool once its page is durable.
        """
        vaddr = self._buffer_next
        self._buffer_next += PAGE_SIZE
        return vaddr

    # -- resilience (retry / quarantine) ------------------------------------

    def _quarantine(self, registration: VmRegistration) -> None:
        """Declare a VM's backend dead after retries exhausted."""
        if not registration.quarantined:
            registration.quarantined = True
            self.counters.incr("vms_quarantined")
            if self._obs_on:
                self.obs.tracer.instant(
                    "quarantine", self.env.now, cat="resilience",
                    track=self.name, pid=registration.qemu.pid,
                    store=registration.store.name,
                )

    def _retry_counters(self, counter: str, path: CodePath):
        def on_retry(attempt: int, delay_us: float, exc: Exception) -> None:
            self.counters.incr(counter)
            self.profiler.record(path, delay_us)
            if self._obs_on:
                self.obs.registry.histogram(
                    "path_latency_us", path="retry_backoff", vm=self.name
                ).observe(delay_us)
                self.obs.tracer.instant(
                    "retry", self.env.now, cat="resilience",
                    track=self.name, op=path.value, attempt=attempt,
                    error=type(exc).__name__,
                )
        return on_retry

    def _fetch_with_retry(
        self,
        registration: VmRegistration,
        key: int,
        prior_attempts: int = 0,
        initial_error: Optional[Exception] = None,
    ) -> Generator:
        """Critical-path read with backoff; quarantines on exhaustion.

        Retries ride out transient store failures (crashed replica,
        dropped fabric message, detected corruption) — a replicated
        backend usually answers from a survivor on the next attempt.
        KeyNotFoundError is *not* retried: it means the store durably
        lost the page, which the callers escalate.
        """
        try:
            page = yield from retry_call(
                self.env,
                lambda: registration.store.get(key),
                self.config.retry_policy,
                rng=self._rng,
                on_retry=self._retry_counters(
                    "read_retries", CodePath.READ_RETRY
                ),
                prior_attempts=prior_attempts,
                initial_error=initial_error,
                what=f"read of key {key:#x} from "
                     f"{registration.store.name!r}",
                obs=self.obs,
                op=CodePath.READ_RETRY.value,
            )
        except StoreUnavailableError:
            self._quarantine(registration)
            raise
        return page

    def _put_with_retry(
        self, registration: VmRegistration, key: int, page: Page
    ) -> Generator:
        """Synchronous eviction write with backoff (same policy)."""
        try:
            yield from retry_call(
                self.env,
                lambda: registration.store.put(key, page, PAGE_SIZE),
                self.config.retry_policy,
                rng=self._rng,
                on_retry=self._retry_counters(
                    "write_retries", CodePath.WRITE_RETRY
                ),
                what=f"write of key {key:#x} to "
                     f"{registration.store.name!r}",
                obs=self.obs,
                op=CodePath.WRITE_RETRY.value,
            )
        except StoreUnavailableError:
            self._quarantine(registration)
            raise

    def _install_unless_present(
        self, registration: VmRegistration, addr: int, key: int, page: Page
    ) -> Generator:
        """COPY + LRU-insert, unless a concurrent prefetch already
        installed the page while we waited on the store; the checker
        learns which of the two happened."""
        env = self.env
        ops = self.ops
        table = registration.table
        if addr in table._entries:
            self.counters["duplicate_reads_dropped"] += 1
            installed = False
        else:
            cost = ops.latency.sample_copy(ops._rng)
            if not env.try_advance(cost):
                yield env.timeout(cost)
            mapped = ops.finish_copy(table, addr, page, skip_if_present=True)
            ph = self._ph_copy or self._phase(
                "_ph_copy", CodePath.UFFD_COPY)
            if len(ph._samples) < ph._cap:
                ph._samples.append(cost)
            else:
                ph.record(cost)
            if addr not in self.lru._entries:
                self.lru.insert(addr, registration)
            installed = mapped is page
        if self._check_on:
            if installed:
                self.check.pages.on_read_installed(key)
            else:
                self.check.pages.on_read_dropped(key)

    def _read_sync_path(
        self, fault: UffdFault, registration: VmRegistration, key: int
    ) -> Generator:
        """Unoptimized (Table II "Default"): everything in sequence."""
        env = self.env
        lat = self.config.latency
        gauss = self._rng.gauss
        issued_at = env.now
        if self._check_on:
            self.check.pages.on_read_issued(key)
        try:
            page = yield from self._fetch_with_retry(registration, key)
        except KeyNotFoundError as exc:
            if self._check_on:
                self.check.pages.on_read_failed(key)
            raise FluidMemError(
                f"remote memory lost page {fault.addr:#x} "
                f"(key {key:#x}) on backend "
                f"{registration.store.name!r} — an evicting store "
                "(e.g. undersized Memcached) cannot back FluidMem"
            ) from exc
        except Exception:
            if self._check_on:
                self.check.pages.on_read_failed(key)
            raise
        self.profiler.record(CodePath.READ_PAGE, env.now - issued_at)
        sample = max(0.05, gauss(
            lat.update_page_cache_mean, lat.update_page_cache_sigma
        ))
        if not env.try_advance(sample):
            yield env.timeout(sample)
        self.profiler.record(CodePath.UPDATE_PAGE_CACHE, sample)
        sample = max(0.05, gauss(lat.insert_lru_mean, lat.insert_lru_sigma))
        if not env.try_advance(sample):
            yield env.timeout(sample)
        self.profiler.record(CodePath.INSERT_LRU_CACHE_NODE, sample)
        yield from self._install_unless_present(
            registration, fault.addr, key, self._as_page(page, fault.addr)
        )
        # Synchronous eviction *before* the wake: the whole cost sits
        # on the critical path.
        yield from self._evict_until(self.lru.capacity, False)
        if self.ops.try_wake(fault):
            self.profiler.record(CodePath.WAKE, self.ops.latency.wake_us)
        else:
            yield from self._timed(CodePath.WAKE, self.ops.wake(fault))
        self.counters.incr("remote_reads")
        yield from self._enforce_policy_caps(registration, False)
        self._maybe_prefetch(fault, registration)
        return "sync_fetch"

    def _maybe_prefetch(
        self, fault: UffdFault, registration: VmRegistration
    ) -> None:
        """§V-A future-work extension: pull the sequentially following
        pages from the store before the guest faults on them.

        Runs entirely off the critical path — the faulting vCPU has
        already been woken when this is called.  *Which* addresses to
        pull is the pluggable prefetcher's call; the monitor only
        applies the safety filters (already local, never evicted,
        still on the write list, already in flight).
        """
        prefetcher = self.prefetcher
        if prefetcher is None:
            return
        vm_token = id(registration)
        prefetcher.record_fault(vm_token, fault.addr)
        for addr in prefetcher.candidates(
            vm_token, fault.addr, fault.region
        ):
            if addr in registration.table:
                continue
            key = registration.codec.key_for(addr)
            if self.tracker.is_first_access(key):
                continue  # never evicted: nothing in the store
            if self.writeback.holds(key):
                continue  # still local in the write list
            if not registration.store.contains(key):
                continue
            token = (id(registration), addr)
            if token in self._prefetch_inflight:
                continue
            self._prefetch_inflight.add(token)
            if self._check_on:
                self.check.pages.on_read_issued(key)
            handle = registration.store.read_async(key)
            self.counters.incr("prefetches_issued")
            self.env.process(
                self._finish_prefetch(
                    registration, addr, key, handle, token
                )
            )

    def _trace_prefetch_drop(self, addr: int, key: int, reason: str) -> None:
        """Every silently-dropped prefetch leaves a tracer breadcrumb —
        'the prefetcher did nothing' and 'the prefetcher's work was
        thrown away' look identical in the counters alone."""
        if self._obs_on:
            self.obs.tracer.instant(
                "prefetch_drop", self.env.now, cat="prefetch",
                track=self.name, addr=f"{addr:#x}", key=f"{key:#x}",
                reason=reason,
            )

    def _finish_prefetch(
        self, registration: VmRegistration, addr: int, key: int,
        handle, token,
    ) -> Generator:
        from ..errors import KeyNotFoundError

        try:
            page = yield handle.event
        except KeyNotFoundError:
            self._prefetch_inflight.discard(token)
            self._trace_prefetch_drop(addr, key, "key-lost")
            if self._check_on and registration.active:
                self.check.pages.on_read_failed(key)
            return  # raced with a remove; drop silently
        except TransientStoreError:
            # Prefetch is best-effort: never retry off the fault path.
            self._prefetch_inflight.discard(token)
            self.counters.incr("prefetches_failed")
            self._trace_prefetch_drop(addr, key, "transient-error")
            if self._check_on and registration.active:
                self.check.pages.on_read_failed(key)
            return
        if not registration.active:
            # Torn down mid-flight: its page records are already gone.
            self._prefetch_inflight.discard(token)
            self.counters.incr("prefetches_dropped")
            self._trace_prefetch_drop(addr, key, "vm-inactive")
            return
        if addr in registration.table:
            self._prefetch_inflight.discard(token)
            self.counters.incr("prefetches_dropped")
            self._trace_prefetch_drop(addr, key, "already-present")
            if self._check_on:
                self.check.pages.on_read_dropped(key)
            return
        page = self._as_page(page, addr)
        mapped = yield from self._timed(
            CodePath.UFFD_COPY,
            self.ops.copy(registration.table, addr, page,
                          skip_if_present=True),
        )
        if addr not in self.lru:
            self.lru.insert(addr, registration)
        if mapped is page:
            self._prefetched_addrs.add(token)
        else:
            self._trace_prefetch_drop(addr, key, "install-race")
        if self._check_on:
            if mapped is page:
                self.check.pages.on_read_installed(key)
            else:
                self.check.pages.on_read_dropped(key)
        self._prefetch_inflight.discard(token)
        self.counters.incr("prefetches_completed")
        if self._obs_on:
            self.obs.registry.histogram(
                "path_latency_us", path="async_prefetch", vm=self.name
            ).observe(self.env.now - handle.issued_at)
        yield from self._evict_until(self.lru.capacity, interleaved=False)

    def note_prefetch_hit(
        self, registration: VmRegistration, addr: int
    ) -> None:
        """Credit the prefetcher: a page it installed was touched
        before eviction.  Called by ``FluidMemoryPort.try_touch``, the
        port's one-page hit body, which its run body ``touch_run`` calls
        per access while this ledger is non-empty, so driver hits are
        credited too (guarded there on ``_prefetched_addrs`` being
        non-empty)."""
        token = (id(registration), addr)
        if token in self._prefetched_addrs:
            self._prefetched_addrs.discard(token)
            self.counters.incr("prefetch_hits")

    def _first_touch_via_store(
        self, fault: UffdFault, registration: VmRegistration, key: int
    ) -> Generator:
        """No-tracker ablation: pay a miss round trip, then zero-fill."""
        from ..errors import KeyNotFoundError

        issued_at = self.env.now
        try:
            page = yield from self._fetch_with_retry(registration, key)
        except KeyNotFoundError:
            page = None
        self.profiler.record(CodePath.READ_PAGE, self.env.now - issued_at)
        self.tracker.mark_seen(key)
        if page is None:
            yield from self._timed(
                CodePath.UFFD_ZEROPAGE,
                self.ops.zeropage(registration.table, fault.addr),
            )
            self.counters.incr("tracker_miss_round_trips")
            if self._check_on:
                self.check.pages.on_zero_fill(key)
        else:
            page = self._as_page(page, fault.addr)
            yield from self._timed(
                CodePath.UFFD_COPY,
                self.ops.copy(registration.table, fault.addr, page),
            )
            if self._check_on:
                self.check.pages.on_probe_installed(key)
        self.lru.insert(fault.addr, registration)
        if self.ops.try_wake(fault):
            self.profiler.record(CodePath.WAKE, self.ops.latency.wake_us)
        else:
            yield from self._timed(CodePath.WAKE, self.ops.wake(fault))
        yield from self._evict_until(self.lru.capacity, interleaved=False)
        return "store_first_touch"

    def _resolve_from_steal(
        self,
        fault: UffdFault,
        registration: VmRegistration,
        steal: StealResult,
    ) -> Generator:
        """§V-B: the faulted page is on the write list."""
        if self._obs_on:
            self.obs.tracer.instant(
                "batch_steal", self.env.now, cat="writeback",
                track=self.name, state=steal.state,
                key=f"{steal.entry.key:#x}",
            )
        if steal.state == StealResult.PENDING:
            # Still buffered: move it straight back, zero copy.
            yield from self._timed(
                CodePath.UFFD_REMAP,
                self.ops.remap_out(
                    self.buffer_table,
                    steal.entry.buffer_vaddr,
                    registration.table,
                    fault.addr,
                    interleaved=True,
                ),
            )
            self.counters.incr("steals_resolved_locally")
            path = "steal_local"
        else:
            # In flight: "no other choice than to wait for the write to
            # complete", then resume immediately with the page.
            if not steal.completion.processed:
                yield steal.completion
            yield from self._timed(
                CodePath.UFFD_COPY,
                self.ops.copy(
                    registration.table, fault.addr, steal.entry.page
                ),
            )
            if self._check_on:
                self.check.pages.on_steal_installed(steal.entry.key)
            self.counters.incr("steals_after_wait")
            path = "steal_wait"
        self.lru.insert(fault.addr, registration)
        if self.ops.try_wake(fault):
            self.profiler.record(CodePath.WAKE, self.ops.latency.wake_us)
        else:
            yield from self._timed(CodePath.WAKE, self.ops.wake(fault))
        yield from self._evict_until(self.lru.capacity, interleaved=False)
        yield from self._enforce_policy_caps(registration, False)
        return path

    # -- eviction -----------------------------------------------------------------

    def _enforce_policy_caps(
        self, registration: VmRegistration, interleaved: bool
    ) -> Generator:
        """Evict a capped VM back under its per-VM limit (policy §III)."""
        if self.victim_policy is None:
            return
        yield from self._evict_until(
            0, interleaved, victims=self._over_cap_victims(registration)
        )

    def _over_cap_victims(self, registration: VmRegistration):
        """A capped VM's oldest pages, one per eviction, while the
        policy still counts it over its limit."""
        lru = self.lru
        while self.victim_policy.enforce_cap(lru, registration) > 0:
            candidate = lru.pop_oldest_of(registration)
            if candidate is None:
                return
            yield candidate
            self.counters.incr("cap_evictions")

    def _evict_until(
        self, target: int, interleaved: bool, victims=None
    ) -> Generator:
        """Evict until at most ``target`` pages stay resident.

        Victims come from the provider policy when one is set, else
        from the top of the LRU list; ``victims``, when given, is an
        iterator of ``(vaddr, registration)`` pairs evicted instead
        (``target`` is then ignored).  Each victim is REMAPped into
        the eviction buffer and queued for write-back, or written
        synchronously when ``async_writeback`` is off.  The per-page
        steps are inlined into this one loop (DESIGN.md §12).
        """
        lru = self.lru
        entries = lru._entries
        if victims is None and len(entries) <= target:
            return
        # Most calls evict one page: hoist only what every pass reads.
        env = self.env
        ops = self.ops
        uffd_latency = ops.latency
        victim_policy = self.victim_policy
        async_wb = self.config.async_writeback
        counters = self.counters
        buffer_table = self.buffer_table
        while True:
            if victims is not None:
                candidate = next(victims, None)
            elif len(entries) <= target:
                return
            elif victim_policy is not None:
                candidate = victim_policy.select_victim(lru)
            else:
                candidate = lru.pop_eviction_candidate()
            if candidate is None:
                return
            vaddr, registration = candidate
            evict_started = env._now
            if self._prefetched_addrs:
                # A never-touched prefetched page going back out was
                # wasted work (and a wasted store round trip).
                token = (id(registration), vaddr)
                if token in self._prefetched_addrs:
                    self._prefetched_addrs.discard(token)
                    counters["prefetches_wasted"] += 1
            buffer_vaddr = self._take_buffer_slot()
            cost = uffd_latency.sample_remap(ops._rng, interleaved)
            if not env.try_advance(cost):
                yield env.timeout(cost)
            page = ops.finish_remap_out(
                registration.table, vaddr, buffer_table, buffer_vaddr
            )
            ph = self._ph_remap or self._phase(
                "_ph_remap", CodePath.UFFD_REMAP)
            if len(ph._samples) < ph._cap:
                ph._samples.append(cost)
            else:
                ph.record(cost)
            key = registration.codec.key_for(vaddr)
            counters["evictions"] += 1
            if async_wb:
                if self._check_on:
                    self.check.pages.on_evicted(key, durable=False)
                self.writeback.enqueue(
                    WritebackEntry(
                        key, page, buffer_vaddr, registration, env._now
                    )
                )
            else:
                issued_at = env._now
                yield from self._put_with_retry(registration, key, page)
                if self._check_on:
                    self.check.pages.on_evicted(key, durable=True)
                ph = self._ph_write or self._phase(
                    "_ph_write", CodePath.WRITE_PAGE)
                if len(ph._samples) < ph._cap:
                    ph._samples.append(env._now - issued_at)
                else:
                    ph.record(env._now - issued_at)
                pte = buffer_table.unmap(buffer_vaddr)
                ops.frames.free(pte.frame)
            if self._obs_on:
                hist = self._h_evict_latency
                if hist is None:
                    hist = self._h_evict_latency = (
                        self.obs.registry.histogram(
                            "path_latency_us", path="eviction",
                            vm=self.name,
                        )
                    )
                hist.observe(env._now - evict_started)

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _as_page(value: object, vaddr: int) -> Page:
        """Store values are Page objects; tolerate raw tokens in tests."""
        if isinstance(value, Page):
            return value
        page = Page(vaddr=vaddr)
        page.write()
        return page

    def _timed(self, path: CodePath, operation: Generator) -> Generator:
        started = self.env._now
        result = yield from operation
        self.profiler.record(path, self.env._now - started)
        return result

    # -- introspection ----------------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        return len(self.lru)

    def stats(self) -> Dict[str, object]:
        """One-call operational snapshot (what a /metrics endpoint or
        the provider console would scrape)."""
        summary: Dict[str, object] = {
            "resident_pages": len(self.lru),
            "lru_capacity": self.lru.capacity,
            "registered_vms": len(self._registrations),
            "tracked_pages": len(self.tracker),
            "writeback_pending": self.writeback.pending_count,
            "writeback_in_flight": self.writeback.in_flight_count,
            "host_frames_used": self.ops.frames.used_frames,
            "host_frames_total": self.ops.frames.total_frames,
            "quarantined_vms": sum(
                1 for registration in self._registrations
                if registration.quarantined
            ),
            "fault_handlers": self.config.fault_handlers,
            "prefetch_policy": (
                "none" if self.prefetcher is None else self.prefetcher.name
            ),
            "counters": self.counters.as_dict(),
        }
        if self.fault_latency.count:
            summary["fault_latency_avg_us"] = self.fault_latency.mean
            summary["fault_latency_p99_us"] = (
                self.fault_latency.percentile(99.0)
            )
        per_vm = {}
        for registration in self._registrations:
            per_vm[registration.qemu.pid] = {
                "resident_pages": self.lru.count_for(registration),
                "store": registration.store.name,
                "store_keys": registration.store.stored_keys(),
                "quarantined": registration.quarantined,
            }
        summary["vms"] = per_vm
        return summary

    def __repr__(self) -> str:
        return (
            f"<Monitor {self.name!r} lru={len(self.lru)}/"
            f"{self.lru.capacity} vms={len(self._registrations)}>"
        )
