"""``FluidMemoryPort.touch_run``, the port's run body, against its
one-page body.

Twin stacks are built alike; one side retires an access list through
``touch_run``, the other through ``try_touch`` one access at a time,
stopping where the run body must stop: at the first miss, or at the
first address outside the guest RAM that QEMU maps linearly, which the
run body leaves to ``try_touch`` (a page of a hotplugged region placed
apart, which it translates, or an address it rejects).  Both sides must
stop at the same index and leave every page's marks, the monitor's
counters, the prefetch ledger and the LRU order the same -- with no
prefetch outstanding (the page table's run), with prefetched pages
awaiting their first hit and with the LRU-reorder ablation on (both
one ``try_touch`` per access), each with a hotplugged region laid out
after the boot region and with one placed apart.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FluidMemConfig
from repro.errors import VmError
from repro.mem import PAGE_SIZE, MemoryRegion
from repro.vm import MemoryHotplug

from tests.conftest import build_stack, repeat_runs

#: Boot RAM of the test VM, in pages (1 MiB).
BOOT_PAGES = 256
HOTPLUG_PAGES = 8
#: The pages faulted in before the run: 16 sequential pages (the
#: prefetch state evicts most of them and prefetches four back) and
#: four hotplugged ones.
FAULTED = [page * PAGE_SIZE for page in range(16)] + [
    (BOOT_PAGES + page) * PAGE_SIZE for page in (0, 1, 3, 6)
]

STATES = {
    "plain": FluidMemConfig(lru_capacity_pages=64),
    "prefetch": FluidMemConfig(lru_capacity_pages=8, prefetch_pages=4),
    "reorder": FluidMemConfig(
        lru_capacity_pages=64, lru_reorder_on_access=True
    ),
}

#: Hotplug layouts: the region right after the boot region (QEMU maps
#: all guest RAM linearly), or one page apart from it.
LAYOUTS = ("linear", "apart")

#: Guest addresses: the faulted pages and their neighbours, hotplugged
#: pages, misaligned and negative addresses, and ones beyond guest RAM.
ADDRESSES = st.one_of(
    st.sampled_from(FAULTED),
    st.integers(-2, 20).map(lambda page: page * PAGE_SIZE),
    st.integers(BOOT_PAGES - 2, BOOT_PAGES + HOTPLUG_PAGES + 2).map(
        lambda page: page * PAGE_SIZE
    ),
    st.integers(-PAGE_SIZE, 20 * PAGE_SIZE),
)


def fluid_side(state, layout="linear"):
    """One twin: a FluidMem VM with a hotplugged region laid out per
    ``layout``, the ``FAULTED`` pages faulted in, and in the prefetch
    state four prefetched pages awaiting their first hit."""
    stack = build_stack(config=STATES[state])
    vm, qemu, port, registration = stack.make_vm(memory_mib=1)
    assert vm.memory_pages == BOOT_PAGES
    if layout == "apart":
        qemu.address_space.add(MemoryRegion(
            qemu.ram_base + BOOT_PAGES * PAGE_SIZE, PAGE_SIZE, name="gap",
        ))
    slot = MemoryHotplug(qemu).add_memory(HOTPLUG_PAGES * PAGE_SIZE)
    stack.monitor.register_region(registration, slot.host_region)

    def fault_in():
        for vaddr in FAULTED:
            yield from port.access(vaddr, is_write=True)
        if state == "prefetch":
            yield from stack.monitor.writeback.drain()
            # A remote read of page 0 prefetches pages 1-4.
            yield from port.access(0)

    stack.run(fault_in())
    if state == "prefetch":
        assert len(stack.monitor._prefetched_addrs) == 4
    return stack, qemu, port


def linear_window(layout):
    """Guest RAM bytes QEMU maps at ``ram_base`` plus the address."""
    pages = BOOT_PAGES + (HOTPLUG_PAGES if layout == "linear" else 0)
    return pages * PAGE_SIZE


def reference_run(port, layout, vaddrs, writes, start, stop):
    """``try_touch`` per access, stopping at the first miss or at the
    first address outside the linearly mapped guest RAM."""
    for index in range(start, stop):
        vaddr = vaddrs[index]
        if not 0 <= vaddr < linear_window(layout):
            return index
        if not port.try_touch(vaddr, writes[index]):
            return index
    return stop


def port_state(stack, qemu):
    """Everything a hit can change, with host addresses as offsets
    from the twin's RAM base."""
    base = qemu.ram_base
    monitor = stack.monitor
    return (
        sorted(
            (vaddr - base, pte.page.referenced, pte.page.dirty,
             pte.page.version)
            for vaddr, pte in qemu.page_table.items()
        ),
        monitor.counters.as_dict(),
        sorted(addr - base for _reg, addr in monitor._prefetched_addrs),
        [vaddr - base for vaddr in monitor.lru._entries],
    )


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("state", sorted(STATES))
@settings(max_examples=40, deadline=None)
@given(
    accesses=st.one_of(
        st.lists(st.tuples(ADDRESSES, st.booleans()), max_size=30),
        repeat_runs(st.one_of(st.sampled_from(FAULTED), ADDRESSES)),
    ),
    data=st.data(),
)
def test_touch_run_equals_try_touch_per_access(
    state, layout, accesses, data
):
    """Half the access lists are runs of one repeated address, writes
    among the repeats: a faulted page in most runs, else an absent or
    stray address or one at the end of the linear window."""
    vaddrs = [vaddr for vaddr, _write in accesses]
    writes = [write for _vaddr, write in accesses]
    start = data.draw(st.integers(0, len(vaddrs)), label="start")
    # Drawn back from the end: hypothesis favours small draws, and a
    # run that stops where it starts exercises nothing.
    stop = len(vaddrs) - data.draw(
        st.integers(0, len(vaddrs) - start), label="short of the end"
    )
    run_stack, run_qemu, run_port = fluid_side(state, layout)
    loop_stack, loop_qemu, loop_port = fluid_side(state, layout)
    assert run_qemu.linear_ram_bytes == linear_window(layout)
    assert port_state(run_stack, run_qemu) == \
        port_state(loop_stack, loop_qemu)
    index = run_port.touch_run(vaddrs, writes, start, stop)
    assert index == reference_run(
        loop_port, layout, vaddrs, writes, start, stop
    )
    assert port_state(run_stack, run_qemu) == \
        port_state(loop_stack, loop_qemu)


@pytest.mark.parametrize("state", sorted(STATES))
def test_a_repeated_page_is_marked_per_access(state):
    """Runs of one faulted page, writes among the repeats: every write
    dirties the page and bumps its version, as ``try_touch`` per access
    does."""
    run_stack, run_qemu, run_port = fluid_side(state)
    loop_stack, loop_qemu, loop_port = fluid_side(state)
    vaddrs = [0, 0, 0, 2 * PAGE_SIZE, 2 * PAGE_SIZE, 0]
    writes = [False, True, True, True, True, False]
    assert run_port.touch_run(vaddrs, writes, 0, len(vaddrs)) == \
        reference_run(loop_port, "linear", vaddrs, writes, 0, len(vaddrs)) \
        == len(vaddrs)
    assert port_state(run_stack, run_qemu) == \
        port_state(loop_stack, loop_qemu)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("state", sorted(STATES))
def test_run_covers_linear_ram_and_leaves_the_rest_to_try_touch(
    state, layout
):
    """A hotplugged page is in the run when QEMU maps it linearly, and
    left to ``try_touch``, which records it, when its region lies
    apart; an address beyond guest RAM, or a negative one, is left to
    ``try_touch`` too, which raises, while the run body raises
    nothing."""
    stack, qemu, port = fluid_side(state, layout)
    hotplugged = (BOOT_PAGES + 6) * PAGE_SIZE
    beyond = (BOOT_PAGES + HOTPLUG_PAGES) * PAGE_SIZE
    resident = [0, 2 * PAGE_SIZE]
    vaddrs = resident + [hotplugged] + resident
    writes = [False] * len(vaddrs)
    assert port.touch_run(vaddrs, writes, 0, len(vaddrs)) == (
        len(vaddrs) if layout == "linear" else 2
    )
    assert port.try_touch(hotplugged)
    for stray in (beyond, -PAGE_SIZE):
        vaddrs = resident + [stray] + resident
        assert port.touch_run(vaddrs, writes, 0, len(vaddrs)) == 2
        assert port.touch_run(vaddrs, writes, 3, len(vaddrs)) == 5
        with pytest.raises(VmError):
            port.try_touch(stray)


def test_prefetched_pages_are_credited_through_a_run():
    """With prefetched pages outstanding each hit goes through
    ``try_touch``, so the prefetcher is credited once per page, in
    order, and a later run goes back to the page table's body."""
    stack, qemu, port = fluid_side("prefetch")
    monitor = stack.monitor
    vaddrs = [page * PAGE_SIZE for page in (2, 1, 2, 4, 3, 0)]
    writes = [False, True, False, False, True, False]
    assert port.touch_run(vaddrs, writes, 0, len(vaddrs)) == len(vaddrs)
    assert monitor.counters["prefetch_hits"] == 4
    assert not monitor._prefetched_addrs
