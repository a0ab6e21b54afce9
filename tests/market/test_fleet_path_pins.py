"""Pins for the market fleet's tick at the benchmark's shape.

The fleet is built as the repository benchmark's ``market`` workload
builds it: ``market_specs(4)`` (448 VMs), the seeded chaos plan, the
ledger checker on, its harvest config, 30 ticks with a market round
every 3.  Its state is read at the start of ticks 10 and 20 (while
leases are live) and after the run drains, and the three readings hash
to a constant recorded before the tick became one frame per VM.  A
reading holds each VM's counts, capacity, remote budget, harvested
pages, dead and surging flags, ``remote`` key order, both LRU lists'
key order with referenced bits, and every page's referenced bit and
version (``pages`` order included); each harvester's history and
counters; the QoS p99 history, violation counts and last p99s; the
broker's ledger and counters; the fleet counters, lease rejections and
the clock.  One seed more than 42 runs too, and each run under the
``FifoSchedule`` reference must give the same hash.

One more run is observed (one 112-VM unit, 9 ticks): its registry
snapshot and every histogram's retained samples are hashed, so the
order in which the tenant fault-latency histograms receive their
samples is pinned.
"""

import hashlib

import pytest

from repro.bench.market_fleet import market_chaos_plan, market_specs
from repro.check import CorrectnessChecker
from repro.market import Broker, HarvestConfig, MarketFleet, QosManager
from repro.obs import Observability
from repro.sim import Environment, RandomStreams, derive_seed

FLEET_SCALE = 4
TICKS = 30
TICK_US = 10_000.0
MARKET_EVERY = 3
OBSERVED = dict(fleet_scale=1, ticks=9)
#: Ticks at whose start the fleet's state is read, besides the end.
CHECKPOINT_TICKS = (10, 20)

PINS = {
    42: (
        "1049adf1413c29994ab3d08d8d0633c0"
        "f5b2ff0465af633a9866acd4f4024c43"
    ),
    7: (
        "bd84577b2df43906723b857f565881d9"
        "1efc8d7dcb1edee0842e0527c1da9968"
    ),
}
OBSERVED_PIN = (
    "9f1042f138362e5dc40883355316fbf7"
    "ebd6493b7ce0ea7b04988faa0d5116fb"
)


def digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def run_fleet(seed, fleet_scale=FLEET_SCALE, ticks=TICKS, obs=None):
    """Run the fleet; return it and its state at each checkpoint."""
    specs = market_specs(fleet_scale)
    plan = market_chaos_plan(specs, seed, ticks, TICK_US)
    env = Environment()
    check = CorrectnessChecker(enabled=True, obs=obs)
    broker = Broker(env, obs=obs, check=check)
    fleet = MarketFleet(
        env, specs, RandomStreams(derive_seed(seed, "market")),
        broker, QosManager(obs=obs), fault_plan=plan,
        harvest_config=HarvestConfig(
            interval_us=MARKET_EVERY * TICK_US,
            spike_rate_per_ms=1.0,
            calm_rate_per_ms=0.4,
        ),
        obs=obs,
    )
    readings = []
    apply_chaos = fleet._apply_chaos
    ticks_started = [0]

    def read_then_apply_chaos():
        if ticks_started[0] in CHECKPOINT_TICKS:
            readings.append(fleet_state(fleet))
        ticks_started[0] += 1
        apply_chaos()

    fleet._apply_chaos = read_then_apply_chaos
    proc = env.process(fleet.run(
        ticks, tick_us=TICK_US, market_every=MARKET_EVERY, check=check,
    ))
    env.run()
    assert proc.ok, proc.value
    assert not check.violations
    readings.append(fleet_state(fleet))
    return fleet, tuple(readings)


def lru_order(entries):
    return tuple((vaddr, page.referenced) for vaddr, page in entries.items())


def vm_state(vm):
    return (
        vm.name,
        repr(vm.stats),
        vm.capacity,
        vm.remote_budget,
        vm.harvested_pages,
        vm.dead,
        vm.surging,
        tuple(vm.remote),
        lru_order(vm.lists._active),
        lru_order(vm.lists._inactive),
        tuple(
            (vaddr, page.referenced, page.version)
            for vaddr, page in vm.pages.items()
        ),
    )


def fleet_state(fleet):
    qos, broker = fleet.qos, fleet.broker
    return (
        tuple(vm_state(vm) for vm in fleet.vms),
        tuple(
            (name, tuple(harvester.history),
             tuple(harvester.counters.as_dict().items()))
            for name, harvester in sorted(fleet.harvesters.items())
        ),
        tuple(qos.p99_history),
        tuple(qos.violation_counts.items()),
        tuple(qos.last_p99.items()),
        repr(broker.ledger()),
        tuple(broker.counters.as_dict().items()),
        tuple(fleet.counters.as_dict().items()),
        fleet.lease_rejections,
        fleet.env.now,
    )


def observed_state(seed):
    obs = Observability()
    _, readings = run_fleet(seed, obs=obs, **OBSERVED)
    registry = obs.registry
    return (
        readings,
        repr(registry.snapshot()),
        tuple(
            (key, tuple(histogram.samples))
            for key, histogram in sorted(registry._histograms.items())
        ),
    )


@pytest.mark.parametrize("seed", sorted(PINS))
def test_fleet_tick_matches_pin_and_reference(seed, fifo_reference):
    pinned = digest(run_fleet(seed)[1])
    assert pinned == PINS[seed]
    with fifo_reference():
        assert digest(run_fleet(seed)[1]) == pinned


def test_observed_fleet_matches_pin_and_reference(fifo_reference):
    pinned = digest(observed_state(42))
    assert pinned == OBSERVED_PIN
    with fifo_reference():
        assert digest(observed_state(42)) == pinned


def test_pinned_runs_exercise_the_tick():
    """The pins are only worth something if the runs they hash spill to
    leased memory and refault from it and from swap, crash VMs, and
    harvest and give back."""
    fleet, readings = run_fleet(42)
    vms = fleet.vms
    assert sum(vm.stats.remote_hits for vm in vms) > 0
    assert sum(vm.stats.swap_faults for vm in vms) > 0
    assert sum(vm.stats.deaths for vm in vms) > 0
    # A reading's first item holds the VMs' states; index 7 is remote.
    assert any(
        state[7] for reading in readings[:-1] for state in reading[0]
    )
    counters = [h.counters.as_dict() for h in fleet.harvesters.values()]
    assert sum(c.get("harvests", 0) for c in counters) > 0
    assert sum(c.get("give_backs", 0) for c in counters) > 0
