"""A real fault burst through the serial monitor, against the reference.

Four vCPU processes share one FluidMem VM whose LRU holds 16 pages.
Each makes 200 ``port.access`` calls over 12 pages of its own, half of
them writes, so three in four pages live remotely and several vCPUs
fault while the monitor is still servicing an earlier fault: the uffd
event queue holds a burst.  Each vCPU owns its pages, so no two faults
are ever for one page.

Every seed runs once with no scheduler, where the monitor pays its
charges as clock bumps, and once under the ``FifoSchedule`` reference,
where each is a real timeout.  Both must end at the same clock, give
every access the same latency in the same order and leave the same
monitor, userfaultfd and ioctl counters.
"""

import random

import pytest

from repro.core import FluidMemConfig
from repro.mem import PAGE_SIZE

from tests.conftest import build_stack

VCPUS = 4
PAGES_PER_VCPU = 12
ACCESSES_PER_VCPU = 200
#: The paper's monitor over a 16-page LRU: one handler, no prefetch.
CONFIG = FluidMemConfig(
    lru_capacity_pages=16, fault_handlers=1, prefetch_pages=0
)


def run_burst(seed):
    """One seeded run: its final clock, latencies, counters and the
    deepest the uffd event queue got."""
    stack = build_stack(config=CONFIG, seed=seed)
    vm, _qemu, port, _registration = stack.make_vm()
    env = stack.env
    base = vm.first_free_guest_addr()
    draw = random.Random(seed)
    plans = [
        [
            (
                base + (vcpu * PAGES_PER_VCPU
                        + draw.randrange(PAGES_PER_VCPU)) * PAGE_SIZE,
                index % 2 == 1,
            )
            for index in range(ACCESSES_PER_VCPU)
        ]
        for vcpu in range(VCPUS)
    ]

    events = stack.uffd.events
    deepest = [0]

    def watched(enqueue):
        def enqueue_and_measure(fault):
            result = enqueue(fault)
            deepest[0] = max(deepest[0], len(events.items))
            return result
        return enqueue_and_measure

    events.put_nowait = watched(events.put_nowait)
    events.put = watched(events.put)

    latencies = []

    def vcpu(number, plan):
        for vaddr, is_write in plan:
            started = env.now
            yield from port.access(vaddr, is_write=is_write)
            latencies.append((number, env.now - started))

    for number, plan in enumerate(plans):
        env.process(vcpu(number, plan))
    env.run()
    assert len(latencies) == VCPUS * ACCESSES_PER_VCPU
    counters = (
        list(stack.monitor.counters.items()),
        list(stack.uffd.counters.items()),
        list(stack.ops.counters.items()),
    )
    return (env.now, latencies, counters), deepest[0]


@pytest.mark.parametrize("seed", range(4))
def test_fault_burst_matches_the_reference_run(seed, fifo_reference):
    fast, fast_depth = run_burst(seed)
    with fifo_reference():
        reference, reference_depth = run_burst(seed)
    assert fast_depth >= 2
    assert reference_depth >= 2
    assert fast == reference
    monitor_counters = dict(fast[2][0])
    assert monitor_counters["faults"] > ACCESSES_PER_VCPU
