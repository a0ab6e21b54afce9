"""``AccessDriver.try_hits`` against a loop of ``try_hit``.

Twin platforms are built alike and brought to the same state.  One side
retires an access list with ``try_hits``, the other with ``try_hit``
per access until the first False; then each walks the rest of the list
in a process, falling back to ``access`` after every stop, as Graph500
and pmbench do.  After both steps every driver field (the pending hit
time to the bit, the hit, fault and flush counts, the current hit run,
the remembered miss), the clock, the port's hit-run diagnostics, the
latency recorder, the RNG state, every resident page's marks and the
guest kernel's or the monitor's counters must be equal.  The cases vary
``flush_every``, the recorder (none, one that fills its retention cap,
one that does not), a timeout already in the event heap (so a flush's
clock advance fails) and how many hits are pending when the run starts.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.platform import build_platform
from repro.errors import VmError
from repro.mem import PAGE_SIZE
from repro.sim import LatencyRecorder
from repro.workloads import AccessDriver

SEED = 42
MEMORY_SCALE = 1.0 / 1024
BACKENDS = ("fluidmem-dram", "swap-dram")
#: Workload pages an access list draws from; the even ones are faulted
#: in before the run, so about half the accesses hit.
PAGES = 24
RESIDENT = range(0, PAGES, 2)


def driver_side(backend, flush_every, cap, competing, prefix):
    """One twin: a platform with ``RESIDENT`` faulted in, ``prefix``
    hits pending, and optionally a timeout ``competing`` µs ahead."""
    platform = build_platform(backend, memory_scale=MEMORY_SCALE, seed=SEED)
    latency = None if cap is None else LatencyRecorder("hits", cap)
    driver = AccessDriver(
        platform.env, platform.port, flush_every=flush_every,
        rng=random.Random(SEED), latency=latency,
    )
    base = platform.workload_base

    def fault_in():
        for page in RESIDENT:
            yield from driver.access(base + page * PAGE_SIZE, page % 4 == 0)
        yield from driver.flush()

    platform.run(fault_in())
    for hit in range(prefix):
        page = RESIDENT[hit % len(RESIDENT)]
        assert driver.try_hit(base + page * PAGE_SIZE)
    if competing is not None:
        platform.env.timeout(competing)
    return platform, driver


def driver_state(platform, driver):
    latency = driver.latency
    if platform.monitor is not None:
        table, base = platform.qemu.page_table, platform.qemu.ram_base
        port = (platform.port.hit_runs, platform.port.hit_run_pages)
        owners = (platform.monitor, platform.monitor.uffd)
    else:
        table, base = platform.mm.table, 0
        port = None
        owners = (platform.mm, platform.mm.swap)
    return (
        driver._pending_us.hex(),
        driver.hits,
        driver.faults,
        driver._hits_since_flush,
        driver._run_hits,
        driver._missed,
        platform.env.now.hex(),
        port,
        None if latency is None else (
            tuple(latency.samples), latency.count, latency.mean.hex(),
        ),
        driver._rng.getstate(),
        sorted(
            (vaddr - base, pte.page.referenced, pte.page.dirty,
             pte.page.version)
            for vaddr, pte in table.items()
        ),
        tuple(owner.counters.as_dict() for owner in owners),
    )


def walk_with_runs(driver, vaddrs, writes, index):
    while index < len(vaddrs):
        yield from driver.access(vaddrs[index], writes[index])
        index = driver.try_hits(vaddrs, writes, index + 1)
    yield from driver.flush()


def walk_per_access(driver, vaddrs, writes, index):
    if index < len(vaddrs):
        yield from driver.access(vaddrs[index], writes[index])
    for vaddr, is_write in zip(vaddrs[index + 1:], writes[index + 1:]):
        if not driver.try_hit(vaddr, is_write):
            yield from driver.access(vaddr, is_write)
    yield from driver.flush()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=50, deadline=None)
@given(
    flush_every=st.sampled_from([1, 2, 7, 256]),
    cap=st.sampled_from([None, 3, 100_000]),
    competing=st.sampled_from([None, 0.0, 0.2, 1.0, 50.0]),
    prefix=st.integers(0, 8),
    accesses=st.lists(
        st.tuples(st.integers(0, PAGES - 1), st.booleans()), max_size=40,
    ),
    data=st.data(),
)
def test_try_hits_equals_a_try_hit_loop(
    backend, flush_every, cap, competing, prefix, accesses, data
):
    start = data.draw(st.integers(0, len(accesses)), label="start")
    runs = driver_side(backend, flush_every, cap, competing, prefix)
    loop = driver_side(backend, flush_every, cap, competing, prefix)
    base = runs[0].workload_base
    assert loop[0].workload_base == base
    vaddrs = [base + page * PAGE_SIZE for page, _write in accesses]
    writes = [write for _page, write in accesses]
    assert driver_state(*runs) == driver_state(*loop)

    run_index = runs[1].try_hits(vaddrs, writes, start)
    loop_index = start
    while loop_index < len(vaddrs) and loop[1].try_hit(
        vaddrs[loop_index], writes[loop_index]
    ):
        loop_index += 1
    assert run_index == loop_index
    assert driver_state(*runs) == driver_state(*loop)

    runs[0].run(walk_with_runs(runs[1], vaddrs, writes, run_index))
    loop[0].run(walk_per_access(loop[1], vaddrs, writes, loop_index))
    assert driver_state(*runs) == driver_state(*loop)


@pytest.mark.parametrize("flush_every", [1, 2, 7, 256])
@pytest.mark.parametrize("position", [0, 1, 5, 9])
def test_address_beyond_guest_ram_raises_at_the_same_access(
    flush_every, position
):
    """An address past guest RAM stops the run and reaches
    ``try_hit``, which raises ``VmError`` with every earlier hit
    retired, as the per-access loop does."""
    runs = driver_side("fluidmem-dram", flush_every, 100_000, None, 3)
    loop = driver_side("fluidmem-dram", flush_every, 100_000, None, 3)
    platform = runs[0]
    beyond = platform.qemu.total_ram_pages * PAGE_SIZE
    resident = [platform.workload_base + page * PAGE_SIZE
                for page in RESIDENT]
    vaddrs = resident[:position] + [beyond] + resident
    writes = [index % 3 == 0 for index in range(len(vaddrs))]
    with pytest.raises(VmError, match="beyond"):
        runs[1].try_hits(vaddrs, writes)
    with pytest.raises(VmError, match="beyond"):
        for vaddr, is_write in zip(vaddrs, writes):
            assert loop[1].try_hit(vaddr, is_write)
    assert driver_state(*runs) == driver_state(*loop)
    assert runs[1].hits == 3 + position
