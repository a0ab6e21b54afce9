"""Seed-42 pins for the access driver's miss fallback on both ports.

After a False ``try_hit`` the driver's ``access`` takes one of three
routes, and no benchmark workload reaches the rare two:

* a plain miss: ``try_hit``'s own probe missed and the pending hit time
  settles in place, so the driver calls the port's miss body,
  ``port.fault``, without probing again;
* a False from ``try_hit``'s flush-due branch on a resident page (the
  clock could not advance in place): ``access`` touches the page, then
  waits for the flush;
* a miss whose hit-time flush had to wait: other processes ran, so the
  driver calls ``port.access``, which probes again -- and hits when
  another vCPU faulted the page in meanwhile (a FluidMem ``lru_hits``).

One scenario walks all of them on each port.  Its outputs -- the
driver's counts and samples, the clock, every resident page's marks,
the guest kernel's or the monitor's counters (``lru_hits`` among them)
-- hash to a constant recorded before the driver stopped re-probing,
and the same run under the ``FifoSchedule`` reference must give it too.
"""

import hashlib
import random

import pytest

from repro.bench.platform import build_platform
from repro.mem import PAGE_SIZE
from repro.sim import LatencyRecorder
from repro.workloads import AccessDriver

SEED = 42
MEMORY_SCALE = 1.0 / 1024
#: A hit costs long enough that a wait for the pending hit time
#: outlasts another vCPU's whole fault on either port.
HIT_US = 100.0
FLUSH_EVERY = 3

PINS = {
    "fluidmem-dram": (
        "d3b579395d8f119d8abef4edce2e0ce2"
        "1a723a589b08c8285a4e5ef7874ebad1"
    ),
    "swap-dram": (
        "12abaea4d05e5c656b2a693411025ad4"
        "87a4faba41fd37df79b9670717e73757"
    ),
}

#: The port calls ``scenario`` makes, in order, on the current code.
ROUTES = [
    # Three first touches, no hit time pending: straight to the fault.
    "fault", "fault", "fault",
    # A plain miss after two hits: the flush settles in place.
    "fault",
    # The flush-due branch on a resident page: a hit, no port call.
    # A miss whose flush waited while another vCPU faulted the page
    # in: the driver re-probes through access, which hits.
    "other:access", "other:fault", "access",
    # A miss whose flush waited on a timer: access re-probes, misses
    # and faults.
    "access", "fault",
]


def digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def counters(owner):
    return sorted(owner.counters.as_dict().items())


def page_marks(table, base):
    return tuple(sorted(
        (vaddr - base, pte.page.referenced, pte.page.dirty,
         pte.page.version)
        for vaddr, pte in table.items()
    ))


def scenario(backend, routes=None):
    """Walk the fallback's three cases; return every simulated output.

    With ``routes`` (a list), the port's ``fault`` and ``access`` calls
    are appended to it, the other vCPU's prefixed ``other:``.
    """
    platform = build_platform(backend, memory_scale=MEMORY_SCALE, seed=SEED)
    env, port = platform.env, platform.port
    pages = [platform.workload_base + i * PAGE_SIZE for i in range(8)]
    latency = LatencyRecorder("driver", max_samples=1_000)
    driver = AccessDriver(
        env, port, hit_cost_us=HIT_US, flush_every=FLUSH_EVERY,
        rng=random.Random(SEED), latency=latency,
    )
    caller = ["driver"]
    if routes is not None:
        spy(port, routes, caller)

    def touch(vaddr, is_write=False):
        if not driver.try_hit(vaddr, is_write):
            yield from driver.access(vaddr, is_write)

    def other_vcpu(vaddr):
        caller[0] = "other"
        yield from port.access(vaddr, is_write=True)
        caller[0] = "driver"

    def timer():
        yield env.timeout(HIT_US / 4)

    def walk():
        for vaddr in pages[:3]:
            yield from touch(vaddr, is_write=True)
        # A plain miss: two hits pending, nothing else scheduled.
        yield from touch(pages[0])
        yield from touch(pages[1])
        yield from touch(pages[3], is_write=True)
        # The flush-due branch on a resident page: two hits pending, and
        # a just-started process stops the clock advancing in place.
        yield from touch(pages[0])
        yield from touch(pages[1], is_write=True)
        env.process(timer())
        yield from touch(pages[2], is_write=True)
        # A miss whose flush waits while another vCPU faults the page.
        yield from touch(pages[0])
        env.process(other_vcpu(pages[4]))
        yield from touch(pages[4])
        # A miss whose flush waits on a timer: the page stays missing.
        yield from touch(pages[1])
        env.process(timer())
        yield from touch(pages[5], is_write=True)
        yield from driver.flush()

    platform.run(walk())
    outputs = (
        driver.hits,
        driver.faults,
        tuple(latency.samples),
        env.now,
    )
    if platform.monitor is not None:
        return outputs + (
            counters(platform.monitor),
            page_marks(platform.qemu.page_table, platform.qemu.ram_base),
        )
    return outputs + (
        counters(platform.mm),
        page_marks(platform.mm.table, 0),
    )


def spy(port, routes, caller):
    """Record the port's ``fault``/``access`` calls; change nothing."""
    fault, access = port.fault, port.access

    def spied_fault(*args, **kwargs):
        routes.append(label("fault"))
        return (yield from fault(*args, **kwargs))

    def spied_access(*args, **kwargs):
        routes.append(label("access"))
        return (yield from access(*args, **kwargs))

    def label(name):
        return name if caller[0] == "driver" else f"{caller[0]}:{name}"

    port.fault = spied_fault
    port.access = spied_access


@pytest.mark.parametrize("backend", sorted(PINS))
def test_miss_fallback_matches_pin_and_reference(backend, fifo_reference):
    pinned = digest(scenario(backend))
    assert pinned == PINS[backend]
    with fifo_reference():
        assert digest(scenario(backend)) == pinned


@pytest.mark.parametrize("backend", sorted(PINS))
def test_miss_fallback_takes_each_route(backend):
    routes = []
    outputs = scenario(backend, routes)
    assert routes == ROUTES
    if backend.startswith("fluidmem"):
        # The re-probe that found the other vCPU's page is a port hit.
        assert dict(outputs[4])["lru_hits"] == 1
    assert digest(outputs) == PINS[backend]
