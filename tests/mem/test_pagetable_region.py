"""Tests for PageTable remap semantics and AddressSpace invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PageTableError, RegionError
from repro.mem import (
    PAGE_SIZE,
    AddressSpace,
    MemoryRegion,
    Page,
    PageTable,
)
from tests.conftest import repeat_runs


# --------------------------------------------------------------- PageTable

def make_mapped(table, vaddr, frame=0):
    page = Page(vaddr=vaddr)
    table.map(vaddr, frame, page)
    return page


def test_map_lookup_unmap():
    table = PageTable()
    page = make_mapped(table, 0x1000, frame=3)
    assert 0x1000 in table
    pte = table.lookup(0x1000)
    assert pte.frame == 3
    assert pte.page is page
    removed = table.unmap(0x1000)
    assert removed.page is page
    assert 0x1000 not in table


def test_lookup_absent_returns_none():
    table = PageTable()
    assert table.lookup(0x1000) is None
    with pytest.raises(PageTableError):
        table.entry(0x1000)


def test_double_map_rejected():
    table = PageTable()
    make_mapped(table, 0x1000)
    with pytest.raises(PageTableError):
        make_mapped(table, 0x1000)


def test_unmap_absent_rejected():
    table = PageTable()
    with pytest.raises(PageTableError):
        table.unmap(0x1000)


def test_unaligned_rejected():
    table = PageTable()
    with pytest.raises(PageTableError):
        table.map(123, 0, Page(vaddr=0))
    with pytest.raises(PageTableError):
        table.lookup(123)


def test_present_pages_counts_footprint():
    table = PageTable()
    for i in range(5):
        make_mapped(table, i * PAGE_SIZE, frame=i)
    assert table.present_pages == 5
    table.unmap(0)
    assert table.present_pages == 4


def reference_touch_run(table, vaddrs, writes, start, stop, base, limit):
    """``PageTable.touch_run`` as a loop of one-page probes: ``get``,
    then ``Page.read`` or ``Page.write``."""
    for index in range(start, stop):
        vaddr = vaddrs[index]
        if vaddr < 0 or (limit is not None and vaddr >= limit):
            return index
        pte = table.get(base + vaddr)
        if pte is None:
            return index
        if writes[index]:
            pte.page.write()
        else:
            pte.page.read()
    return stop


def all_marks(table):
    return sorted(
        (vaddr, pte.page.referenced, pte.page.dirty, pte.page.version)
        for vaddr, pte in table.items()
    )


#: Guest addresses for the run tests: pages around a 16-page window,
#: misaligned ones, negative ones, and ones past any 64-bit key.
RUN_ADDRESSES = st.one_of(
    st.integers(-2, 18).map(lambda page: page * PAGE_SIZE),
    st.sampled_from([-PAGE_SIZE, -2 * PAGE_SIZE]),
    st.integers(-2 * PAGE_SIZE, 18 * PAGE_SIZE),
    st.sampled_from([1 << 64, (1 << 64) + PAGE_SIZE, 1 << 70]),
)


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from([0, 3 * PAGE_SIZE, 0x7F00_0000_0000]),
    mapped=st.sets(st.integers(-3, 17), max_size=21),
    limit=st.one_of(
        st.none(),
        st.integers(0, 18 * PAGE_SIZE),
        st.integers(0, 18).map(lambda page: page * PAGE_SIZE),
    ),
    repeats=st.booleans(),
    data=st.data(),
)
def test_touch_run_equals_a_get_and_mark_loop(
    base, mapped, limit, repeats, data
):
    """The run body marks the pages a loop of ``get`` and
    ``Page.read``/``Page.write`` marks, in order, and stops at the same
    index: the first address that is negative, at or past ``limit``, or
    absent -- including a present page below ``base``.

    With ``repeats`` the accesses are runs of one address each, writes
    among the repeats, and ``mapped`` names the pages left unmapped: a
    repeat skips the check and the probe, so it must still mark its
    page as the loop does, and must never carry the run past an
    absent, negative, misaligned or at-``limit`` address the loop stops
    at."""
    if repeats:
        mapped = set(range(-3, 18)) - mapped
        addresses = st.one_of(
            st.integers(-3, 18).map(lambda page: page * PAGE_SIZE),
            st.just(18 * PAGE_SIZE if limit is None else limit),
            RUN_ADDRESSES,
        )
        accesses = data.draw(repeat_runs(addresses), label="accesses")
    else:
        accesses = data.draw(
            st.lists(st.tuples(RUN_ADDRESSES, st.booleans()), max_size=40),
            label="accesses",
        )
    vaddrs = [vaddr for vaddr, _write in accesses]
    writes = [write for _vaddr, write in accesses]
    start = data.draw(st.integers(0, len(vaddrs)), label="start")
    # Drawn back from the end: hypothesis favours small draws, and a
    # run that stops where it starts exercises nothing.
    stop = len(vaddrs) - data.draw(
        st.integers(0, len(vaddrs) - start), label="short of the end"
    )
    run, loop = PageTable("run"), PageTable("loop")
    for page in sorted(mapped):
        vaddr = base + page * PAGE_SIZE
        if vaddr >= 0:
            make_mapped(run, vaddr)
            make_mapped(loop, vaddr)
    index = run.touch_run(vaddrs, writes, start, stop, base, limit)
    assert index == reference_touch_run(
        loop, vaddrs, writes, start, stop, base, limit
    )
    assert all_marks(run) == all_marks(loop)


def test_touch_run_stops_at_its_window_even_on_present_pages():
    """A negative address stops the run though ``base`` plus it is a
    present page, and so does one at ``limit``."""
    table = PageTable()
    below, first = make_mapped(table, 0), make_mapped(table, PAGE_SIZE)
    second = make_mapped(table, 2 * PAGE_SIZE)
    vaddrs = [0, -PAGE_SIZE, PAGE_SIZE]
    writes = [False, True, True]
    assert table.touch_run(vaddrs, writes, 0, 3, base=PAGE_SIZE) == 1
    assert table.touch_run(vaddrs, writes, 2, 3, base=PAGE_SIZE,
                           limit=PAGE_SIZE) == 2
    assert [(p.referenced, p.version) for p in (below, first, second)] \
        == [(False, 0), (True, 0), (False, 0)]


def test_touch_run_defaults_to_base_zero_and_no_limit():
    table = PageTable()
    pages = [make_mapped(table, vaddr) for vaddr in (0, PAGE_SIZE)]
    vaddrs = [PAGE_SIZE, 0, PAGE_SIZE, 2 * PAGE_SIZE]
    writes = [True, False, True, False]
    assert table.touch_run(vaddrs, writes, 0, len(vaddrs)) == 3
    assert [(p.referenced, p.dirty, p.version) for p in pages] == [
        (True, False, 0), (True, True, 2),
    ]
    assert table.touch_run(vaddrs, writes, 1, 1) == 1


def test_remap_moves_mapping_without_copy():
    """UFFD_REMAP semantics: same frame + page object, new table/addr."""
    vm = PageTable("vm")
    buf = PageTable("buffer")
    page = make_mapped(vm, 0x5000, frame=9)
    vm.remap_to(0x5000, buf, 0xA000)
    assert 0x5000 not in vm
    pte = buf.entry(0xA000)
    assert pte.frame == 9
    assert pte.page is page  # zero-copy: identical object


def test_remap_conflict_rolls_back():
    vm = PageTable("vm")
    buf = PageTable("buffer")
    make_mapped(vm, 0x5000, frame=1)
    make_mapped(buf, 0xA000, frame=2)
    with pytest.raises(PageTableError):
        vm.remap_to(0x5000, buf, 0xA000)
    # Source mapping must be intact after the failed remap.
    assert vm.entry(0x5000).frame == 1


# ------------------------------------------------------------ MemoryRegion

def test_region_bounds():
    region = MemoryRegion(0x1000, 3 * PAGE_SIZE)
    assert region.end == 0x1000 + 3 * PAGE_SIZE
    assert region.num_pages == 3
    assert 0x1000 in region
    assert region.end not in region
    assert list(region.pages()) == [0x1000, 0x2000, 0x3000]


def test_region_validation():
    with pytest.raises(RegionError):
        MemoryRegion(123, PAGE_SIZE)
    with pytest.raises(RegionError):
        MemoryRegion(0, 100)
    with pytest.raises(RegionError):
        MemoryRegion(0, 0)


def test_region_overlap_detection():
    a = MemoryRegion(0, 2 * PAGE_SIZE)
    b = MemoryRegion(PAGE_SIZE, 2 * PAGE_SIZE)
    c = MemoryRegion(2 * PAGE_SIZE, PAGE_SIZE)
    assert a.overlaps(b)
    assert not a.overlaps(c)


# ------------------------------------------------------------ AddressSpace

def test_addrspace_add_and_find():
    space = AddressSpace()
    region = space.add(MemoryRegion(0x10000, 4 * PAGE_SIZE, name="guest-ram"))
    assert space.find(0x10000) is region
    assert space.find(0x10000 + 4 * PAGE_SIZE - 1) is region
    assert space.find(0x10000 + 4 * PAGE_SIZE) is None
    assert space.find(0) is None


def test_addrspace_rejects_overlap():
    space = AddressSpace()
    space.add(MemoryRegion(0x10000, 4 * PAGE_SIZE))
    with pytest.raises(RegionError):
        space.add(MemoryRegion(0x10000 + PAGE_SIZE, PAGE_SIZE))
    with pytest.raises(RegionError):
        space.add(MemoryRegion(0x10000 - PAGE_SIZE, 2 * PAGE_SIZE))


def test_addrspace_adjacent_ok():
    space = AddressSpace()
    space.add(MemoryRegion(0x10000, PAGE_SIZE))
    space.add(MemoryRegion(0x10000 + PAGE_SIZE, PAGE_SIZE))
    assert len(space) == 2


def test_addrspace_remove():
    space = AddressSpace()
    region = space.add(MemoryRegion(0x10000, PAGE_SIZE))
    space.remove(region)
    assert space.find(0x10000) is None
    with pytest.raises(RegionError):
        space.remove(region)


def test_addrspace_total_pages():
    space = AddressSpace()
    space.add(MemoryRegion(0x10000, 2 * PAGE_SIZE))
    space.add(MemoryRegion(0x40000, 3 * PAGE_SIZE))
    assert space.total_pages() == 5


def test_allocate_gap_finds_space():
    space = AddressSpace()
    space.add(MemoryRegion(PAGE_SIZE, PAGE_SIZE))  # occupies [1p, 2p)
    start = space.allocate_gap(2 * PAGE_SIZE)
    region = MemoryRegion(start, 2 * PAGE_SIZE)
    space.add(region)  # must not overlap
    assert len(space) == 2


@given(st.lists(st.tuples(st.integers(0, 100), st.integers(1, 8)),
                min_size=1, max_size=40))
def test_addrspace_never_overlapping(specs):
    """Property: whatever sequence of adds, accepted regions never overlap."""
    space = AddressSpace()
    accepted = []
    for start_page, npages in specs:
        region = MemoryRegion(start_page * PAGE_SIZE, npages * PAGE_SIZE)
        try:
            space.add(region)
            accepted.append(region)
        except RegionError:
            pass
    for i, a in enumerate(accepted):
        for b in accepted[i + 1:]:
            assert not a.overlaps(b)
    # find() agrees with membership
    for region in accepted:
        assert space.find(region.start) is region
