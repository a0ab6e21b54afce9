"""Unit tests for the pluggable allocation policies."""

import warnings

import pytest

from repro.errors import FluidMemError
from repro.mem import FrameAllocator
from repro.policy import (
    ALLOCATION_POLICIES,
    BuddyAllocationPolicy,
    FirstFitAllocationPolicy,
    LifoAllocationPolicy,
    PolicyCombo,
    SizeClassArenaAllocationPolicy,
    make_alloc_policy,
    validate_policy_names,
)


# ----------------------------------------------------------------- lifo

def test_lifo_matches_legacy_frame_allocator_sequence():
    """The LIFO policy must be indistinguishable from the allocator's
    built-in free stack: same indices, same order, any interleaving."""
    legacy = FrameAllocator(32)
    polled = FrameAllocator(32, policy=LifoAllocationPolicy())
    held_a, held_b = [], []
    script = (
        ["take"] * 10 + ["give"] * 3 + ["take"] * 6 + ["give"] * 8
        + ["take"] * 12
    )
    for op in script:
        if op == "take":
            held_a.append(legacy.allocate())
            held_b.append(polled.allocate())
        else:
            legacy.free(held_a.pop())
            polled.free(held_b.pop())
        assert held_a == held_b
    assert legacy.used_frames == polled.used_frames


def test_lifo_returns_most_recently_freed_first():
    policy = LifoAllocationPolicy()
    policy.bind(8)
    taken = [policy.take() for _ in range(4)]
    assert taken == [0, 1, 2, 3]
    policy.give(1)
    policy.give(3)
    assert policy.take() == 3
    assert policy.take() == 1
    assert policy.take() == 4


def test_lifo_exhaustion_returns_none():
    policy = LifoAllocationPolicy()
    policy.bind(2)
    assert policy.take() == 0
    assert policy.take() == 1
    assert policy.take() is None
    policy.give(0)
    assert policy.take() == 0


# ------------------------------------------------------------- first-fit

def test_first_fit_prefers_lowest_free_index():
    policy = FirstFitAllocationPolicy()
    policy.bind(8)
    for _ in range(5):
        policy.take()
    policy.give(3)
    policy.give(0)
    assert policy.take() == 0  # lowest first, not most-recent
    assert policy.take() == 3
    assert policy.take() == 5  # then fresh slots


def test_first_fit_exhaustion_and_reuse():
    policy = FirstFitAllocationPolicy()
    policy.bind(3)
    assert [policy.take() for _ in range(3)] == [0, 1, 2]
    assert policy.take() is None
    policy.give(2)
    policy.give(1)
    assert policy.take() == 1


# ----------------------------------------------------------------- buddy

def test_buddy_grants_lowest_order0_and_splits():
    policy = BuddyAllocationPolicy()
    policy.bind(16)
    # A fresh 16-slot pool is one order-4 block; the first take splits
    # it down to order 0 and grants the base.
    assert policy.take() == 0
    blocks = policy.free_blocks()
    assert blocks == {0: 1, 1: 1, 2: 1, 3: 1}  # the split ladders


def test_buddy_coalesces_on_give():
    policy = BuddyAllocationPolicy()
    policy.bind(16)
    taken = [policy.take() for _ in range(16)]
    assert taken == list(range(16))
    assert policy.take() is None
    for index in taken:
        policy.give(index)
    # Everything freed: the pool coalesces back to one order-4 block.
    assert policy.free_blocks() == {4: 1}


def test_buddy_partial_coalesce_stops_at_live_buddy():
    policy = BuddyAllocationPolicy()
    policy.bind(8)
    taken = [policy.take() for _ in range(8)]
    policy.give(0)
    policy.give(1)  # 0+1 coalesce to an order-1 block at 0
    blocks = policy.free_blocks()
    assert blocks.get(1) == 1
    assert 0 not in blocks
    # Slot 2's buddy (3) is still live: no further coalescing.
    policy.give(2)
    assert policy.free_blocks().get(0) == 1
    del taken


def test_buddy_non_power_of_two_pool():
    """A 10-slot pool decomposes into aligned blocks (8 + 2) and never
    grants an index outside [0, 10)."""
    policy = BuddyAllocationPolicy()
    policy.bind(10)
    taken = [policy.take() for _ in range(10)]
    assert sorted(taken) == list(range(10))
    assert policy.take() is None
    for index in taken:
        policy.give(index)
    assert sum(
        count << order for order, count in policy.free_blocks().items()
    ) == 10


# ----------------------------------------------------------------- arena

def test_arena_takes_from_emptiest_arena():
    policy = SizeClassArenaAllocationPolicy(arena_slots=4)
    policy.bind(12)  # three arenas: [0..3], [4..7], [8..11]
    first = policy.take()
    assert first == 0
    # Arena 0 now has 3 free; arenas 1 and 2 have 4: the next take
    # moves to arena 1 (emptiest, lowest index on ties).
    assert policy.take() == 4
    assert policy.take() == 8
    assert policy.take() == 1  # all tied at 3 free again


def test_arena_occupancy_telemetry():
    policy = SizeClassArenaAllocationPolicy(arena_slots=4)
    policy.bind(8)
    for _ in range(5):
        policy.take()
    occupancy = policy.arena_occupancy()
    assert len(occupancy) == 2
    assert sum(occupancy) == pytest.approx(5 / 4)  # 5 of 8 live


def test_arena_give_returns_to_home_arena():
    policy = SizeClassArenaAllocationPolicy(arena_slots=4)
    policy.bind(8)
    taken = [policy.take() for _ in range(8)]
    assert policy.take() is None
    policy.give(6)
    assert policy.take() == 6
    del taken


# ----------------------------------------------------- shared contracts

@pytest.mark.parametrize("name", sorted(ALLOCATION_POLICIES))
def test_every_policy_is_a_permutation(name):
    """Full drain + refill: every policy hands out each slot exactly
    once and can serve the whole pool again after a full free."""
    policy = ALLOCATION_POLICIES[name]()
    policy.bind(33)
    first = [policy.take() for _ in range(33)]
    assert sorted(first) == list(range(33))
    assert policy.take() is None
    for index in first:
        policy.give(index)
    second = [policy.take() for _ in range(33)]
    assert sorted(second) == list(range(33))


@pytest.mark.parametrize("name", sorted(ALLOCATION_POLICIES))
def test_bind_rejects_empty_pool(name):
    with pytest.raises(FluidMemError):
        ALLOCATION_POLICIES[name]().bind(0)


def test_constructor_validation():
    with pytest.raises(FluidMemError):
        BuddyAllocationPolicy(max_order=-1)
    with pytest.raises(FluidMemError):
        SizeClassArenaAllocationPolicy(arena_slots=0)


# -------------------------------------------------------------- registry

def test_make_alloc_policy_default_is_builtin_stack():
    """'lifo' maps to None: the owner's free stack IS the policy, so
    the default hot path keeps zero indirection."""
    assert make_alloc_policy("lifo") is None
    assert make_alloc_policy("buddy").name == "buddy"
    with pytest.raises(FluidMemError):
        make_alloc_policy("best-fit")


def test_validate_policy_names():
    validate_policy_names("buddy", "leap")
    with pytest.raises(FluidMemError):
        validate_policy_names("nope", "leap")
    with pytest.raises(FluidMemError):
        validate_policy_names("buddy", "nope")


def test_policy_combo_label_and_validation():
    combo = PolicyCombo("buddy", "leap", 4)
    assert combo.label == "buddy+leap+h4"
    with pytest.raises(FluidMemError):
        PolicyCombo("nope", "leap", 1)
    with pytest.raises(FluidMemError):
        PolicyCombo("buddy", "leap", 0)


def test_frame_allocator_fragmentation_telemetry():
    frames = FrameAllocator(16, policy=FirstFitAllocationPolicy())
    held = [frames.allocate() for _ in range(6)]
    frames.free(held[2])
    frag = frames.fragmentation()
    assert frag["policy"] == "first-fit"
    assert frag["used_frames"] == 5
    assert 0.0 < frag["occupancy"] <= 1.0
    assert frag["allocated_runs"] >= 2  # the hole at held[2] splits a run


# ------------------------------------------------------- import paths


def test_new_import_paths_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.core import SharePolicy as from_core
        from repro.policy import SharePolicy as from_policy
        from repro.policy.share import SharePolicy as from_share

    assert from_core is from_policy is from_share
