"""Tests for Page, PageKind, and FrameAllocator."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import OutOfFramesError
from repro.kernel import ActiveInactiveLists
from repro.mem import PAGE_SIZE, FrameAllocator, Page, PageKind, ZERO_PAGE_DATA


# -------------------------------------------------------------------- Page

def test_page_requires_alignment():
    with pytest.raises(ValueError):
        Page(vaddr=123)


def test_page_data_size_checked():
    with pytest.raises(ValueError):
        Page(vaddr=0, data=b"short")
    page = Page(vaddr=0, data=bytes(PAGE_SIZE))
    assert page.data == ZERO_PAGE_DATA


def test_write_marks_dirty_and_bumps_version():
    page = Page(vaddr=4096)
    assert not page.dirty
    assert page.version == 0
    page.write()
    assert page.dirty
    assert page.referenced
    assert page.version == 1
    page.write()
    assert page.version == 2


def test_write_with_data():
    page = Page(vaddr=0)
    payload = b"\xab" * PAGE_SIZE
    page.write(payload)
    assert page.read() == payload
    with pytest.raises(ValueError):
        page.write(b"tiny")


def test_read_sets_referenced():
    page = Page(vaddr=0)
    assert not page.referenced
    page.read()
    assert page.referenced


def test_clear_referenced_second_chance():
    """The referenced bit buys one reprieve: reclaim's scan clears it
    and spares the page, and the next scan takes it."""
    page = Page(vaddr=0)
    page.read()
    lists = ActiveInactiveLists()
    lists.insert(page)
    assert lists.select_victims(1) == []
    assert not page.referenced
    assert lists.select_victims(1) == [page]


def test_repr_is_informative():
    page = Page(vaddr=0x2000, kind=PageKind.KERNEL)
    page.write()
    text = repr(page)
    assert "0x2000" in text and "kernel" in text


# ---------------------------------------------------------- FrameAllocator

def test_allocator_capacity():
    alloc = FrameAllocator(total_frames=2)
    a = alloc.allocate()
    b = alloc.allocate()
    assert a != b
    with pytest.raises(OutOfFramesError):
        alloc.allocate()
    assert alloc.try_allocate() is None


def test_allocator_free_and_reuse():
    alloc = FrameAllocator(total_frames=1)
    frame = alloc.allocate()
    alloc.free(frame)
    assert alloc.allocate() == frame


def test_lifo_returns_most_recently_freed_first():
    """The free stack: freed frames come back newest first, and only
    then does a never-used frame go out."""
    alloc = FrameAllocator(total_frames=8)
    taken = [alloc.allocate() for _ in range(4)]
    assert taken == [0, 1, 2, 3]
    alloc.free(1)
    alloc.free(3)
    assert alloc.allocate() == 3
    assert alloc.allocate() == 1
    assert alloc.allocate() == 4


def test_lifo_exhaustion_returns_none():
    alloc = FrameAllocator(total_frames=2)
    assert alloc.allocate() == 0
    assert alloc.allocate() == 1
    assert alloc.try_allocate() is None
    alloc.free(0)
    assert alloc.allocate() == 0


def test_allocator_double_free_rejected():
    alloc = FrameAllocator(total_frames=1)
    frame = alloc.allocate()
    alloc.free(frame)
    with pytest.raises(OutOfFramesError):
        alloc.free(frame)


def test_allocator_counts():
    alloc = FrameAllocator(total_frames=10)
    frames = [alloc.allocate() for _ in range(4)]
    assert alloc.used_frames == 4
    assert alloc.free_frames == 6
    assert alloc.used_bytes == 4 * PAGE_SIZE
    assert alloc.is_allocated(frames[0])
    alloc.free(frames[0])
    assert not alloc.is_allocated(frames[0])


def test_allocator_for_bytes():
    alloc = FrameAllocator.for_bytes(10 * PAGE_SIZE)
    assert alloc.total_frames == 10
    with pytest.raises(ValueError):
        FrameAllocator.for_bytes(100)


def test_allocator_validation():
    with pytest.raises(ValueError):
        FrameAllocator(total_frames=0)


@given(st.lists(st.booleans(), min_size=1, max_size=300))
def test_allocator_never_double_allocates(ops):
    """Property: live handles are always unique; counts are consistent."""
    alloc = FrameAllocator(total_frames=50)
    live = []
    for do_alloc in ops:
        if do_alloc:
            frame = alloc.try_allocate()
            if frame is not None:
                assert frame not in live
                live.append(frame)
        elif live:
            alloc.free(live.pop())
        assert alloc.used_frames == len(live)
        assert alloc.used_frames + alloc.free_frames == 50
    assert sorted(alloc.allocated_frames()) == sorted(live)
