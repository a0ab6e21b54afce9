"""Tests for the active/inactive list mechanism."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import KernelError
from repro.kernel import ActiveInactiveLists
from repro.mem import PAGE_SIZE, Page


def page(index):
    return Page(vaddr=index * PAGE_SIZE)


def test_insert_goes_inactive():
    lists = ActiveInactiveLists()
    lists.insert(page(0))
    assert lists.inactive_count == 1
    assert lists.active_count == 0


def test_double_insert_rejected():
    lists = ActiveInactiveLists()
    p = page(0)
    lists.insert(p)
    with pytest.raises(KernelError):
        lists.insert(p)


def test_remove_and_discard():
    lists = ActiveInactiveLists()
    p = page(0)
    lists.insert(p)
    lists.remove(p)
    assert p not in lists
    with pytest.raises(KernelError):
        lists.remove(p)
    lists.discard(p)  # silent


def test_victims_come_oldest_first():
    lists = ActiveInactiveLists()
    pages = [page(i) for i in range(5)]
    for p in pages:
        lists.insert(p)
    victims = lists.select_victims(2)
    assert victims == pages[:2]
    assert len(lists) == 3


def test_referenced_page_gets_second_chance():
    lists = ActiveInactiveLists()
    cold, hot = page(0), page(1)
    lists.insert(cold)
    lists.insert(hot)
    hot.read()          # sets the referenced bit
    cold_first = lists.select_victims(2)
    # Hot was promoted to active, not evicted; cold went first.
    assert cold in cold_first
    assert hot not in cold_first
    assert lists.active_count >= 1
    # The scan cleared the bit it tested: hot must be touched again to
    # earn another chance.
    assert not hot.referenced


def test_hot_page_survives_many_rounds():
    """A repeatedly touched page outlives a stream of cold pages."""
    lists = ActiveInactiveLists()
    hot = page(9999)
    lists.insert(hot)
    hot.read()
    for i in range(100):
        cold = page(i)
        lists.insert(cold)
        hot.read()  # keep touching
        lists.select_victims(1)
    assert hot in lists


def test_refill_moves_active_tail_to_inactive():
    lists = ActiveInactiveLists()
    pages = [page(i) for i in range(4)]
    for p in pages:
        lists.insert(p)
        p.read()
    # All referenced: first scan promotes everything, returns nothing...
    none = lists.select_victims(4)
    assert none == []
    # ...but a second scan (bits now cleared, refilled) finds victims.
    victims = lists.select_victims(4)
    assert len(victims) > 0


def test_victim_count_positive():
    lists = ActiveInactiveLists()
    with pytest.raises(KernelError):
        lists.select_victims(0)


def test_oldest_inactive():
    lists = ActiveInactiveLists()
    assert lists.oldest_inactive() is None
    first, second = page(0), page(1)
    lists.insert(first)
    lists.insert(second)
    assert lists.oldest_inactive() is first


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.booleans()),
                min_size=1, max_size=120))
def test_lists_conserve_pages(ops):
    """Property: pages only leave via select_victims; counts stay sane."""
    lists = ActiveInactiveLists()
    live = {}
    for index, should_touch in ops:
        if index not in live:
            p = page(index)
            lists.insert(p)
            live[index] = p
        if should_touch:
            live[index].read()
        assert len(lists) == len(live)
    # Evict everything: each selection round removes only what it returns.
    for _ in range(200):
        if not live:
            break
        for victim in lists.select_victims(4):
            del live[victim.vaddr // PAGE_SIZE]
        assert len(lists) == len(live)
    assert len(live) == 0
