"""Virtual partitions for partition-less key-value stores (paper §IV).

Page keys are 64 bits: 52 bits of virtual page number + 12 bits of
partition index.  When the backend has no native partitions (Memcached),
FluidMem synthesizes a **virtual partition** per registered region.  The
index is derived from the QEMU process PID, a hypervisor ID, and a nonce,
"where global uniqueness is ensured by a replicated and globally
consistent table stored in Zookeeper".

:class:`VirtualPartitionRegistry` implements that table on the
mini-ZooKeeper: each allocation claims a free index in ``[0, 4095]`` and
records the owner identity, so two hypervisors can never collide even if
they race (ZooKeeper's create-is-exclusive gives the mutual exclusion).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from ..coord import ZooKeeperClient
from ..errors import NodeExistsError, PartitionError, SessionExpiredError
from ..mem.addr import MAX_PARTITION, PAGE_SHIFT, PARTITION_BITS

__all__ = [
    "PartitionOwner",
    "PartitionLease",
    "VirtualPartitionRegistry",
    "PartitionedKeyCodec",
]


@dataclass(frozen=True)
class PartitionOwner:
    """Identity of a partition claimant."""

    hypervisor_id: str
    pid: int
    nonce: int

    def encode(self) -> bytes:
        return f"{self.hypervisor_id}:{self.pid}:{self.nonce}".encode()

    @classmethod
    def decode(cls, raw: bytes) -> "PartitionOwner":
        hypervisor_id, pid, nonce = raw.decode().rsplit(":", 2)
        return cls(hypervisor_id, int(pid), int(nonce))


class VirtualPartitionRegistry:
    """Globally consistent partition table over ZooKeeper."""

    BASE = "/fluidmem/partitions"

    def __init__(self, zk: ZooKeeperClient) -> None:
        self._zk = zk
        zk.ensure_path(self.BASE)

    def _slot_path(self, index: int) -> str:
        return f"{self.BASE}/slot-{index:04d}"

    def register(self, owner: PartitionOwner) -> int:
        """Claim a free index for ``owner``; returns the index.

        Deterministic first-probe: hash of the owner identity, then
        linear probing.  The ZooKeeper ``create`` is the atomic claim, so
        concurrent registrants from different hypervisors are safe.
        """
        # BLAKE2b, not builtin hash(): the probe start must agree
        # across hypervisor processes (PYTHONHASHSEED randomizes str
        # hashing per process, which would break determinism).
        digest = hashlib.blake2b(owner.encode(), digest_size=8).digest()
        start = int.from_bytes(digest, "little") & MAX_PARTITION
        for offset in range(MAX_PARTITION + 1):
            index = (start + offset) % (MAX_PARTITION + 1)
            try:
                self._zk.create(
                    self._slot_path(index),
                    owner.encode(),
                    ephemeral=True,
                )
                return index
            except NodeExistsError:
                existing = self.owner_of(index)
                if existing == owner:
                    # Re-registration by the same owner is idempotent.
                    return index
        raise PartitionError("all 4096 virtual partitions are in use")

    def release(self, index: int, owner: PartitionOwner) -> None:
        """Free ``index``; only its owner may release it."""
        current = self.owner_of(index)
        if current is None:
            raise PartitionError(f"partition {index} is not allocated")
        if current != owner:
            raise PartitionError(
                f"partition {index} is owned by {current}, not {owner}"
            )
        self._zk.delete(self._slot_path(index))

    def lease(self, owner: PartitionOwner) -> "PartitionLease":
        """Claim an index wrapped in a releasable lease.

        The lease is what a VM registration holds; releasing it on
        deregister/teardown is what keeps allocate/free cycles from
        exhausting the 4096-index space.
        """
        return PartitionLease(self, self.register(owner), owner)

    def owner_of(self, index: int) -> Optional[PartitionOwner]:
        if not 0 <= index <= MAX_PARTITION:
            raise PartitionError(f"partition index {index} out of range")
        if not self._zk.exists(self._slot_path(index)):
            return None
        raw, _version = self._zk.get(self._slot_path(index))
        return PartitionOwner.decode(raw)

    def allocated_count(self) -> int:
        return len(self._zk.children(self.BASE))


class PartitionLease:
    """A claimed partition index plus the handle that frees it.

    ``release`` is idempotent, and tolerates the slot having already
    vanished (the registry's znodes are ephemeral, so an expired
    ZooKeeper session frees them without our help) — but still refuses
    to free a slot some other owner has since claimed.
    """

    __slots__ = ("registry", "index", "owner", "_released")

    def __init__(
        self,
        registry: VirtualPartitionRegistry,
        index: int,
        owner: PartitionOwner,
    ) -> None:
        self.registry = registry
        self.index = index
        self.owner = owner
        self._released = False

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        try:
            if self.registry.owner_of(self.index) is None:
                return  # expiry already cleaned the ephemeral slot
        except SessionExpiredError:
            # Our own session died: the ephemeral slot went with it.
            return
        self.registry.release(self.index, self.owner)

    def __repr__(self) -> str:
        state = "released" if self._released else "held"
        return f"<PartitionLease index={self.index} {state}>"


class PartitionedKeyCodec:
    """Turns faulting addresses into 64-bit store keys for one region.

    For backends with native partitions, ``partition`` stays 0 and the
    table id separates tenants; otherwise the virtual partition index is
    packed into the low 12 bits.  The partition is checked once, here,
    and is read-only after, so :meth:`key_for` checks only the address.
    """

    __slots__ = ("_partition",)

    def __init__(self, partition: int = 0) -> None:
        if not 0 <= partition <= MAX_PARTITION:
            raise PartitionError(f"partition {partition} out of range")
        self._partition = partition

    @property
    def partition(self) -> int:
        return self._partition

    def key_for(self, vaddr: int) -> int:
        """:func:`~repro.mem.encode_page_key` of ``vaddr``."""
        if vaddr < 0 or vaddr >> 64:
            raise ValueError(f"address {vaddr:#x} outside 64-bit space")
        return (vaddr >> PAGE_SHIFT << PARTITION_BITS) | self._partition
