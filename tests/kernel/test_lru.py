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


def lru_state(lists):
    """Both lists' key order with each page's referenced bit."""
    return (
        [(vaddr, p.referenced) for vaddr, p in lists._active.items()],
        [(vaddr, p.referenced) for vaddr, p in lists._inactive.items()],
    )


def test_touch_sets_the_bit_only_on_a_listed_page():
    lists = ActiveInactiveLists()
    inactive, active, absent = page(0), page(1), page(2)
    lists.insert(inactive)
    lists.insert_active(active)
    for listed in (inactive, active):
        assert not listed.referenced
        assert lists.touch(listed.vaddr) is True
        assert listed.referenced
    before = lru_state(lists)
    assert lists.touch(absent.vaddr) is False
    assert not absent.referenced
    assert lru_state(lists) == before


def reference_evict(lists, target):
    """The eviction loop ``MarketVM._evict_to_capacity`` ran before
    ``shrink_to`` took it over, its spill to remote memory left out
    (the spill touches neither list)."""
    victims = []
    while len(lists) > target:
        batch = lists.select_victims(len(lists) - target)
        if not batch:
            # Every page got a second chance this scan; age harder.
            batch = lists.select_victims(
                len(lists) - target, scan_limit_factor=64
            )
            if not batch:
                break
        victims.extend(batch)
    return victims


def build_lists(active_bits, inactive_bits):
    lists = ActiveInactiveLists()
    for index, referenced in enumerate(active_bits):
        p = page(index)
        p.referenced = referenced
        lists.insert_active(p)
    for index, referenced in enumerate(inactive_bits, len(active_bits)):
        p = page(index)
        p.referenced = referenced
        lists.insert(p)
    return lists


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.booleans(), max_size=40),
    st.one_of(
        st.lists(st.booleans(), max_size=80),
        # All referenced: a 4x scan can free nothing, forcing the retry.
        st.integers(1, 80).map(lambda n: [True] * n),
    ),
    st.data(),
)
def test_shrink_to_matches_the_fleet_eviction_loop(
    active_bits, inactive_bits, data
):
    target = data.draw(
        st.integers(0, len(active_bits) + len(inactive_bits) + 2)
    )
    expected = build_lists(active_bits, inactive_bits)
    actual = build_lists(active_bits, inactive_bits)
    reference_victims = reference_evict(expected, target)
    victims = actual.shrink_to(target)
    assert [p.vaddr for p in victims] == [p.vaddr for p in reference_victims]
    assert [p.referenced for p in victims] == [
        p.referenced for p in reference_victims
    ]
    assert lru_state(actual) == lru_state(expected)


def test_shrink_to_ages_harder_when_every_scanned_page_is_referenced():
    """Four referenced inactive pages ahead of a cold one and one page
    of excess: the 4x scan promotes the four and frees none, so the 64x
    scan refills the inactive list and frees the cold page."""
    lists = build_lists([], [True] * 4 + [False])
    cold = lists._inactive[4 * PAGE_SIZE]
    factors = []
    select_victims = lists.select_victims

    def spy(count, scan_limit_factor=4):
        factors.append(scan_limit_factor)
        return select_victims(count, scan_limit_factor)

    lists.select_victims = spy
    assert lists.shrink_to(4) == [cold]
    assert factors == [4, 64]
    assert len(lists) == 4
