"""Tests for virtual-partition registry, leases, and key codec."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coord import ZooKeeperEnsemble
from repro.errors import PartitionError
from repro.kv import (
    PartitionLease,
    PartitionedKeyCodec,
    PartitionOwner,
    VirtualPartitionRegistry,
)
from repro.mem import MAX_PARTITION, decode_page_key, encode_page_key


@pytest.fixture
def registry():
    zk = ZooKeeperEnsemble(replica_count=3)
    return VirtualPartitionRegistry(zk.connect())


def owner(pid=100, hypervisor="hv-1", nonce=1):
    return PartitionOwner(hypervisor_id=hypervisor, pid=pid, nonce=nonce)


def test_register_returns_valid_index(registry):
    index = registry.register(owner())
    assert 0 <= index <= MAX_PARTITION
    assert registry.owner_of(index) == owner()


def test_distinct_owners_distinct_indexes(registry):
    indexes = {
        registry.register(owner(pid=pid, nonce=pid)) for pid in range(50)
    }
    assert len(indexes) == 50


def test_reregistration_idempotent(registry):
    first = registry.register(owner())
    second = registry.register(owner())
    assert first == second
    assert registry.allocated_count() == 1


def test_release_frees_index(registry):
    index = registry.register(owner())
    registry.release(index, owner())
    assert registry.owner_of(index) is None
    assert registry.allocated_count() == 0


def test_release_wrong_owner_rejected(registry):
    index = registry.register(owner())
    with pytest.raises(PartitionError):
        registry.release(index, owner(pid=999))


def test_release_unallocated_rejected(registry):
    with pytest.raises(PartitionError):
        registry.release(0, owner())


def test_owner_of_range_checked(registry):
    with pytest.raises(PartitionError):
        registry.owner_of(-1)
    with pytest.raises(PartitionError):
        registry.owner_of(MAX_PARTITION + 1)


def test_two_hypervisors_never_collide():
    """Two registries sharing one ZooKeeper must allocate disjoint slots."""
    zk = ZooKeeperEnsemble(replica_count=3)
    reg_a = VirtualPartitionRegistry(zk.connect())
    reg_b = VirtualPartitionRegistry(zk.connect())
    taken = set()
    for pid in range(20):
        idx_a = reg_a.register(owner(pid=pid, hypervisor="hv-a", nonce=pid))
        idx_b = reg_b.register(owner(pid=pid, hypervisor="hv-b", nonce=pid))
        assert idx_a not in taken
        taken.add(idx_a)
        assert idx_b not in taken
        taken.add(idx_b)


def test_ephemeral_release_on_session_expiry():
    """A crashed hypervisor's partitions are reclaimed automatically."""
    zk = ZooKeeperEnsemble(replica_count=3)
    session = zk.connect()
    registry = VirtualPartitionRegistry(session)
    index = registry.register(owner())
    zk.expire_session(session.session_id)

    fresh = VirtualPartitionRegistry(zk.connect())
    assert fresh.owner_of(index) is None


def test_lease_wraps_register_and_release(registry):
    lease = registry.lease(owner())
    assert isinstance(lease, PartitionLease)
    assert 0 <= lease.index <= MAX_PARTITION
    assert registry.owner_of(lease.index) == owner()
    assert not lease.released
    lease.release()
    assert lease.released
    assert registry.owner_of(lease.index) is None
    lease.release()  # idempotent: second release is a no-op
    assert registry.allocated_count() == 0


def test_lease_release_after_session_expiry_is_silent():
    """The ephemeral znode already vanished with the session; a late
    release must not raise (the cleanup it wanted already happened)."""
    zk = ZooKeeperEnsemble(replica_count=3)
    session = zk.connect()
    registry = VirtualPartitionRegistry(session)
    lease = registry.lease(owner())
    zk.expire_session(session.session_id)
    lease.release()
    assert lease.released


def test_allocate_free_cycles_never_exhaust_the_index_space():
    """Leak regression: VM churn far beyond 4096 teardowns must keep
    working because every released index returns to the pool."""
    zk = ZooKeeperEnsemble(replica_count=1)
    registry = VirtualPartitionRegistry(zk.connect())
    cycles = (MAX_PARTITION + 1) + 200  # > the whole index space
    for nonce in range(cycles):
        lease = registry.lease(owner(pid=nonce % 97, nonce=nonce))
        lease.release()
    assert registry.allocated_count() == 0
    # And the space is genuinely reusable afterwards.
    survivors = [
        registry.lease(owner(pid=pid, nonce=cycles + pid))
        for pid in range(16)
    ]
    assert len({lease.index for lease in survivors}) == 16


def test_owner_codec_roundtrip():
    original = PartitionOwner("hv-x", 4242, 7)
    assert PartitionOwner.decode(original.encode()) == original


def test_owner_codec_with_colons_in_hypervisor_id():
    original = PartitionOwner("rack:3:hv", 1, 2)
    assert PartitionOwner.decode(original.encode()) == original


def test_key_codec_packs_partition():
    codec = PartitionedKeyCodec(partition=42)
    key = codec.key_for(0x7000)
    base, partition = decode_page_key(key)
    assert base == 0x7000
    assert partition == 42


def test_key_codec_range_check():
    with pytest.raises(PartitionError):
        PartitionedKeyCodec(partition=MAX_PARTITION + 1)


def test_key_codec_partition_is_read_only():
    codec = PartitionedKeyCodec(partition=42)
    with pytest.raises(AttributeError):
        codec.partition = MAX_PARTITION + 1
    assert codec.partition == 42


@given(st.integers(-(1 << 65), 1 << 65), st.integers(0, MAX_PARTITION))
def test_key_codec_matches_encode_page_key(vaddr, partition):
    codec = PartitionedKeyCodec(partition=partition)
    try:
        expected = encode_page_key(vaddr, partition)
    except ValueError:
        with pytest.raises(ValueError):
            codec.key_for(vaddr)
    else:
        assert codec.key_for(vaddr) == expected


@settings(max_examples=20, deadline=None)
@given(st.sets(st.integers(0, 10_000), min_size=1, max_size=60))
def test_registry_uniqueness_property(pids):
    """Property: any set of distinct owners gets distinct partitions."""
    zk = ZooKeeperEnsemble(replica_count=1)
    registry = VirtualPartitionRegistry(zk.connect())
    seen = set()
    for pid in pids:
        index = registry.register(owner(pid=pid, nonce=pid))
        assert index not in seen
        seen.add(index)
