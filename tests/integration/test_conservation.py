"""The conservation invariant: no page is ever lost or duplicated.

For every page the monitor has ever seen (tracker key), exactly one of
these must hold at any quiescent point:

  * resident — mapped in its VM's page table and in the LRU buffer,
  * in transit — parked in the monitor's write list (pending/in-flight),
  * remote — stored in the key-value backend.

Hypothesis drives random interleavings of accesses, resizes, squeezes,
and drains, then audits the books.  This is the test that would catch a
lost-page bug anywhere in the eviction / writeback / steal / prefetch
machinery.
"""

from hypothesis import given, settings, strategies as st

from repro.core import FluidMemConfig
from repro.mem import PAGE_SIZE

from tests.conftest import build_stack


def audit(stack, vm, qemu, registration, pages):
    """Assert the conservation invariant for every touched page."""
    monitor = stack.monitor
    store = registration.store
    base = vm.first_free_guest_addr()
    for index in range(pages):
        guest = base + index * PAGE_SIZE
        host = qemu.guest_to_host(guest)
        key = registration.codec.key_for(host)
        if monitor.tracker.is_first_access(key):
            continue  # never touched
        resident = host in qemu.page_table
        in_lru = host in monitor.lru
        in_writeback = monitor.writeback.holds(key)
        in_store = store.contains(key)
        assert resident == in_lru, (
            f"page {index}: table/LRU disagree "
            f"(resident={resident}, lru={in_lru})"
        )
        assert resident or in_writeback or in_store, (
            f"page {index} LOST: not resident, not in writeback, "
            "not in store"
        )
        if resident:
            assert not in_writeback, (
                f"page {index} duplicated: resident AND in writeback"
            )
    # Frame accounting: every LRU entry and buffered page owns exactly
    # one frame; the allocator agrees.
    expected_frames = (
        qemu.page_table.present_pages
        + monitor.buffer_table.present_pages
    )
    assert stack.ops.frames.used_frames == expected_frames


operations = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.integers(0, 23),
                  st.booleans()),
        st.tuples(st.just("resize"), st.integers(2, 20),
                  st.booleans()),
        # >= 2 pages: capacity 1 is the intended KVM deadlock (Tab. III).
        st.tuples(st.just("squeeze"), st.integers(2, 6),
                  st.booleans()),
        st.tuples(st.just("drain"), st.just(0), st.booleans()),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=30, deadline=None)
@given(ops=operations, prefetch=st.integers(0, 3),
       steal=st.booleans(), async_write=st.booleans())
def test_conservation_under_random_operations(ops, prefetch, steal,
                                              async_write):
    config = FluidMemConfig(
        lru_capacity_pages=8,
        prefetch_pages=prefetch,
        write_list_steal=steal,
        async_writeback=async_write,
        writeback_batch_pages=4,
    )
    stack = build_stack(config=config)
    store = stack.make_dram_store()
    vm, qemu, port, registration = stack.make_vm(store=store)

    def script(env):
        for op, arg, flag in ops:
            if op == "access":
                yield from port.access(
                    vm.first_free_guest_addr() + arg * PAGE_SIZE,
                    is_write=flag,
                )
            elif op == "resize":
                stack.monitor.set_lru_capacity(arg)
            elif op == "squeeze":
                stack.monitor.set_lru_capacity(arg)
                yield from stack.monitor.shrink_to_capacity()
            else:
                yield from stack.monitor.writeback.drain()
        # Quiesce: flush in-transit state before auditing.
        yield from stack.monitor.writeback.drain()

    stack.run(script(stack.env))
    audit(stack, vm, qemu, registration, pages=24)


@settings(max_examples=10, deadline=None)
@given(ops=operations)
def test_conservation_with_ramcloud_backend(ops):
    stack = build_stack(config=FluidMemConfig(
        lru_capacity_pages=6, writeback_batch_pages=4,
    ))
    store = stack.make_ramcloud_store()
    vm, qemu, port, registration = stack.make_vm(store=store)

    def script(env):
        for op, arg, flag in ops:
            if op == "access":
                yield from port.access(
                    vm.first_free_guest_addr() + arg * PAGE_SIZE,
                    is_write=flag,
                )
            elif op in ("resize", "squeeze"):
                stack.monitor.set_lru_capacity(max(2, arg))
                if op == "squeeze":
                    yield from stack.monitor.shrink_to_capacity()
            else:
                yield from stack.monitor.writeback.drain()
        yield from stack.monitor.writeback.drain()

    stack.run(script(stack.env))
    audit(stack, vm, qemu, registration, pages=24)
