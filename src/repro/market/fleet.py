"""A fleet of lightweight market VMs on one simulated timeline.

The marketplace only gets interesting at *fleet* scale — hundreds of
VMs with heterogeneous working sets, some over-provisioned (producers
the harvesters skim), some memory-starved (consumers leasing remote
pages), with crashes and demand surges stirring the pot.  Standing up
hundreds of full FluidMem monitor stacks would drown the signal in
setup cost, so this module models each VM at exactly the fidelity the
market sees:

* **Residency and aging are real.**  Every :class:`MarketVM` keeps its
  resident pages on a genuine kernel
  :class:`~repro.kernel.ActiveInactiveLists` — accesses set referenced
  bits, eviction uses the two-list second-chance scan, and the
  harvester's WSS estimate is the same
  :meth:`~repro.kernel.ActiveInactiveLists.wss_estimate` page-access
  statistic a real guest would export.
* **Access patterns are YCSB-shaped.**  Each VM draws page numbers
  from its own seeded :class:`~repro.workloads.ycsb.ZipfianGenerator`
  (hot head, long tail), so working sets emerge from the workload
  rather than being declared.
* **Faults are charged, not simulated page-by-page.**  A miss costs a
  modeled latency (first touch < remote lease < swap) recorded into
  the per-tenant QoS window; simulated time advances once per fleet
  tick.  Two same-seed runs replay identical access streams in
  identical order, fast paths on or off.

Chaos rides in on a standard :class:`~repro.faults.FaultPlan` under a
fleet convention: a **CRASH** window on node ``<vm-name>`` is a
fail-stop (the broker tears down the VM's leases — invariant-checked —
and the VM later reboots cold), and a **SLOW** window on node
``surge:<vm-name>`` is a demand surge (the VM's working set expands to
its whole footprint — accesses go uniform — and its access rate
doubles, so its fault rate spikes: the give-back trigger).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from ..errors import MarketError
from ..faults import FaultPlan
from ..kernel import ActiveInactiveLists
from ..mem import PAGE_SIZE, Page
from ..obs import NULL_OBS, Observability
from ..sim import Environment, RandomStreams
from ..workloads.ycsb import ZipfianGenerator
from .broker import Broker
from .harvester import HarvestConfig, Harvester
from .qos import QosManager, TenantSlo

__all__ = [
    "TenantSpec",
    "MarketVM",
    "MarketFleet",
    "FIRST_TOUCH_US",
    "REMOTE_FAULT_US",
    "SWAP_FAULT_US",
    "MIN_CONSUMER_DEMAND_PAGES",
]

#: Modeled fault-service latencies (µs).  A first touch is a zero-fill;
#: a leased remote page is a fabric RTT + copy (the paper's Table I
#: scale); a swap fault pays the block device.  The market's entire
#: value proposition is the gap between the last two.
FIRST_TOUCH_US = 4.0
REMOTE_FAULT_US = 9.0
SWAP_FAULT_US = 150.0

#: Eviction work charged when a harvest shrinks a VM (µs/page).
_EVICT_US_PER_PAGE = 0.2
#: No VM shrinks below this local budget (the balloon-floor analogue).
_MIN_CAPACITY_PAGES = 32
#: Consumers ignore shortfalls below this — a lease that small is not
#: worth a market round trip.
MIN_CONSUMER_DEMAND_PAGES = 16


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a named group of identical VMs under one SLO."""

    name: str
    vms: int
    #: ``producer`` VMs harvest surplus onto the market; ``consumer``
    #: VMs lease remote pages to cover a working set their local
    #: budget cannot hold.
    role: str
    footprint_pages: int
    capacity_pages: int
    slo: TenantSlo
    accesses_per_tick: int = 24
    #: Zipf skew of the tenant's access stream.
    theta: float = 0.99
    #: Consumer bid ceiling (milli-credits/page); producers ignore it.
    max_price: float = 100.0
    #: Per-request lease size cap for consumers.
    lease_request_cap: int = 256

    def __post_init__(self) -> None:
        if self.role not in ("producer", "consumer"):
            raise MarketError(f"unknown role {self.role!r}")
        if self.vms < 1:
            raise MarketError("a tenant needs at least one VM")
        if not _MIN_CAPACITY_PAGES <= self.capacity_pages:
            raise MarketError(
                f"capacity must be >= {_MIN_CAPACITY_PAGES} pages"
            )
        if self.footprint_pages < self.capacity_pages:
            raise MarketError("footprint must be >= capacity")


@dataclass
class _VmStats:
    hits: int = 0
    faults: int = 0
    first_touches: int = 0
    remote_hits: int = 0
    swap_faults: int = 0
    deaths: int = 0
    extra: Dict[str, int] = field(default_factory=dict)


class MarketVM:
    """One fleet VM: Zipfian accesses over a real aging LRU.

    Also implements the harvester-target protocol (``capacity``,
    ``wss_estimate``, ``fault_count``, ``harvest``, ``give_back``), so
    producer VMs plug straight into :class:`~repro.market.Harvester`.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        spec: TenantSpec,
        rng,
    ) -> None:
        self.env = env
        self.name = name
        self.spec = spec
        self.capacity = spec.capacity_pages
        self.lists = ActiveInactiveLists()
        self.pages: Dict[int, Page] = {}
        #: Pages held in leased remote memory (FIFO for demotion).
        self.remote: "OrderedDict[int, bool]" = OrderedDict()
        self.remote_budget = 0
        self.rng = rng
        self.zipf = ZipfianGenerator(
            spec.footprint_pages, rng, theta=spec.theta
        )
        #: True while a surge window covers ``surge:<name>`` — the
        #: working set expands to the whole footprint (uniform draws).
        self.surging = False
        self.dead = False
        self.stats = _VmStats()
        self.harvested_pages = 0

    # -- harvester-target protocol -------------------------------------------------

    def wss_estimate(self) -> int:
        return self.lists.wss_estimate()

    def fault_count(self) -> int:
        return self.stats.faults

    def harvest(self, pages: int) -> Generator:
        """Shrink the local budget; evicted pages fall to swap."""
        taken = min(pages, self.capacity - _MIN_CAPACITY_PAGES)
        if taken <= 0:
            yield self.env.timeout(1.0)
            return 0
        self.capacity -= taken
        evicted = self._evict_to_capacity()
        self.harvested_pages += taken
        yield self.env.timeout(1.0 + _EVICT_US_PER_PAGE * evicted)
        return taken

    def give_back(self, pages: int) -> int:
        returned = min(pages, self.harvested_pages)
        self.capacity += returned
        self.harvested_pages -= returned
        return returned

    # -- consumer side ---------------------------------------------------------------

    def set_remote_budget(self, pages: int) -> None:
        """Track the broker's grant total; demote any overflow (oldest
        remote pages first) back to swap."""
        self.remote_budget = pages
        while len(self.remote) > pages:
            self.remote.popitem(last=False)

    def remote_shortfall(self) -> int:
        """Pages of working set not covered by local + leased memory."""
        return max(
            0,
            self.wss_estimate() + self.spec.lease_request_cap // 8
            - self.capacity - self.remote_budget,
        )

    # -- the access loop --------------------------------------------------------------

    def run_tick(self, qos: QosManager, throttle_us: float) -> None:
        """One tick of Zipfian accesses; faults feed the QoS window."""
        lists = self.lists
        pages = self.pages
        footprint = self.spec.footprint_pages
        accesses = self.spec.accesses_per_tick * (2 if self.surging else 1)
        for _ in range(accesses):
            page_no = (
                self.rng.randrange(footprint) if self.surging
                else self.zipf.next() % footprint
            )
            vaddr = page_no * PAGE_SIZE
            page = pages.get(vaddr)
            if page is not None and page in lists:
                page.read()
                self.stats.hits += 1
                continue
            self.stats.faults += 1
            if vaddr in self.remote:
                del self.remote[vaddr]
                latency = REMOTE_FAULT_US + throttle_us
                self.stats.remote_hits += 1
            elif page is None:
                page = Page(vaddr)
                pages[vaddr] = page
                latency = FIRST_TOUCH_US
                self.stats.first_touches += 1
            else:
                latency = SWAP_FAULT_US + throttle_us
                self.stats.swap_faults += 1
            if len(lists) >= self.capacity:
                self._evict_to_capacity(headroom=1)
            lists.insert(page)
            page.read()
            qos.record_fault(self.spec.name, latency)

    def _evict_to_capacity(self, headroom: int = 0) -> int:
        """Evict via the kernel's second-chance scan until the resident
        set fits ``capacity - headroom``; victims spill to leased
        remote memory while the budget lasts, then to swap."""
        target = max(0, self.capacity - headroom)
        evicted = 0
        while len(self.lists) > target:
            victims = self.lists.select_victims(len(self.lists) - target)
            if not victims:
                # Every page got a second chance this scan; age harder.
                victims = self.lists.select_victims(
                    len(self.lists) - target, scan_limit_factor=64
                )
                if not victims:  # pragma: no cover - defensive
                    break
            for victim in victims:
                if len(self.remote) < self.remote_budget:
                    self.remote[victim.vaddr] = True
                evicted += 1
        return evicted

    # -- lifecycle ----------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: residency, leases, and harvested state all gone."""
        self.dead = True
        self.stats.deaths += 1
        self.lists = ActiveInactiveLists()
        self.pages.clear()
        self.remote.clear()
        self.remote_budget = 0
        self.capacity = self.spec.capacity_pages
        self.harvested_pages = 0

    def reboot(self) -> None:
        """Come back cold: same spec, empty memory, faults ahead."""
        self.dead = False

    def __repr__(self) -> str:
        state = "dead" if self.dead else "alive"
        return (
            f"<MarketVM {self.name} {state} cap={self.capacity} "
            f"resident={len(self.lists)} remote={len(self.remote)}>"
        )


class MarketFleet:
    """Drives the whole marketplace: VMs, harvesters, broker, QoS."""

    def __init__(
        self,
        env: Environment,
        specs: List[TenantSpec],
        streams: RandomStreams,
        broker: Broker,
        qos: QosManager,
        fault_plan: Optional[FaultPlan] = None,
        harvest_config: Optional[HarvestConfig] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.env = env
        self.specs = list(specs)
        self.broker = broker
        self.qos = qos
        self.fault_plan = fault_plan
        self.obs = obs if obs is not None else NULL_OBS
        self._obs_on = self.obs.enabled
        self.counters = self.obs.counters_for(component="fleet")
        self.vms: List[MarketVM] = []
        self.harvesters: Dict[str, Harvester] = {}
        names = set()
        for spec in self.specs:
            if spec.name in names:
                raise MarketError(f"duplicate tenant name {spec.name!r}")
            names.add(spec.name)
            self.qos.register(spec.name, spec.slo)
            for index in range(spec.vms):
                name = f"{spec.name}-{index:03d}"
                vm = MarketVM(env, name, spec, streams.stream(f"vm:{name}"))
                self.vms.append(vm)
                if spec.role == "producer":
                    self.harvesters[name] = Harvester(
                        env, name, vm, broker,
                        config=harvest_config, obs=self.obs,
                    )
        self._by_name = {vm.name: vm for vm in self.vms}
        self.lease_rejections = 0
        broker.revocation_listeners.append(self._on_revocation)

    # -- broker callbacks ------------------------------------------------------------

    def _on_revocation(self, lease, reason: str) -> None:
        vm = self._by_name.get(lease.consumer)
        if vm is not None:
            vm.set_remote_budget(self.broker.granted_to(vm.name))
            self.counters.incr("consumer_revocations")

    # -- chaos --------------------------------------------------------------------------

    def _apply_chaos(self) -> None:
        """One tick of the fleet chaos convention, in VM order.

        CRASH windows fail-stop the VM and tear down its leases;
        ``surge:<name>`` SLOW windows toggle the demand surge.  A
        crashed producer's harvester gets its fault baseline re-synced
        so the post-reboot rate estimate is not negative.
        """
        plan = self.fault_plan
        if plan is None:
            return
        now = self.env.now
        for vm in self.vms:
            crashed = plan.is_crashed(vm.name, now)
            if crashed and not vm.dead:
                vm.crash()
                self.broker.vm_died(vm.name)
                harvester = self.harvesters.get(vm.name)
                if harvester is not None:
                    harvester._last_faults = vm.stats.faults
                self.counters.incr("vm_crashes")
            elif not crashed and vm.dead:
                vm.reboot()
                self.counters.incr("vm_reboots")
            vm.surging = plan.extra_latency_us(f"surge:{vm.name}", now) > 0

    # -- market round -----------------------------------------------------------------

    def _market_step(self) -> Generator:
        """Harvest, lease, evaluate QoS — one market interval."""
        for name in sorted(self.harvesters):
            harvester = self.harvesters[name]
            if not harvester.target.dead:
                yield from harvester.tick()
        for vm in self.vms:
            if vm.dead or vm.spec.role != "consumer":
                continue
            shortfall = vm.remote_shortfall()
            if shortfall < MIN_CONSUMER_DEMAND_PAGES:
                continue
            lease = self.broker.request(
                vm.name,
                min(shortfall, vm.spec.lease_request_cap),
                max_price_per_page=vm.spec.max_price,
                priority=vm.spec.slo.priority,
            )
            if lease is None:
                self.lease_rejections += 1
            else:
                vm.set_remote_budget(self.broker.granted_to(vm.name))
        p99s = self.qos.evaluate()
        if self._obs_on:
            registry = self.obs.registry
            for tenant in sorted(p99s):
                registry.gauge(
                    "tenant_p99_fault_latency_us", tenant=tenant
                ).set(p99s[tenant])
            registry.gauge("fleet_alive_vms").set(
                sum(1 for vm in self.vms if not vm.dead)
            )

    # -- main loop ----------------------------------------------------------------------

    def run(
        self,
        ticks: int,
        tick_us: float = 10_000.0,
        market_every: int = 3,
        check=None,
    ) -> Generator:
        """The fleet process: access ticks with periodic market rounds.

        When a :class:`~repro.check.CorrectnessChecker` is supplied,
        every market round ends with a steady-state audit of the
        broker's books against the shadow ledger.
        """
        if ticks < 1:
            raise MarketError("need at least one tick")
        check_on = check is not None and check.enabled
        for tick in range(ticks):
            self._apply_chaos()
            for vm in self.vms:
                if vm.dead:
                    continue
                throttle = self.qos.throttle_delay_us(vm.spec.name)
                vm.run_tick(self.qos, throttle)
            if (tick + 1) % market_every == 0:
                yield from self._market_step()
                if check_on:
                    check.check_steady_state(broker=self.broker)
            yield self.env.timeout(tick_us)
        # Drain: producers leave gracefully, consumers release leases.
        for name in sorted(self.harvesters):
            self.harvesters[name].shutdown()
        for vm in self.vms:
            if not vm.dead and vm.spec.role == "consumer":
                for lease in self.broker.leases_of(vm.name):
                    self.broker.release(lease)
                vm.set_remote_budget(0)
        if check_on:
            check.check_steady_state(broker=self.broker)

    # -- reporting ----------------------------------------------------------------------

    def tenant_summary(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant aggregates for the bench table, in spec order."""
        qos = self.qos
        summary: Dict[str, Dict[str, object]] = {}
        for spec in self.specs:
            tenant_vms = [vm for vm in self.vms if vm.spec is spec]
            summary[spec.name] = {
                "role": spec.role,
                "vms": len(tenant_vms),
                "priority": spec.slo.priority,
                "slo_us": spec.slo.p99_fault_latency_us,
                "p99_us": qos.last_p99.get(spec.name, 0.0),
                "violations": qos.violation_counts.get(spec.name, 0),
                "faults": sum(vm.stats.faults for vm in tenant_vms),
                "hits": sum(vm.stats.hits for vm in tenant_vms),
                "remote_hits": sum(
                    vm.stats.remote_hits for vm in tenant_vms
                ),
                "swap_faults": sum(
                    vm.stats.swap_faults for vm in tenant_vms
                ),
                "deaths": sum(vm.stats.deaths for vm in tenant_vms),
            }
        return summary

    def __repr__(self) -> str:
        return (
            f"<MarketFleet vms={len(self.vms)} "
            f"producers={len(self.harvesters)} "
            f"tenants={len(self.specs)}>"
        )
