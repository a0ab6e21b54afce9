"""Store wrappers: the provider customizations the paper sketches.

§III: "Cloud providers can further benefit from the flexibility that
comes from handling memory paging in user space to rapidly deploy a
variety of customizations ... Some examples are page compression or
replication across remote servers."  Because FluidMem's monitor talks
to a generic backend API, both are pure wrappers:

* :class:`CompressedStore` — compress page contents before PUT, expand
  after GET.  Costs CPU on the critical path, saves remote bytes.
* :class:`ReplicatedStore` — write every page to N replicas, read from
  the first live one.  Loses no data when a replica fails.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Sequence, Set

from ..errors import KVError, KeyNotFoundError, TransientStoreError
from ..mem import PAGE_SIZE, Page
from ..obs import NULL_OBS, Observability
from ..sim import Environment
from .api import KeyValueBackend, WriteItem

__all__ = [
    "CompressionModel",
    "CompressedStore",
    "ReplicatedStore",
]


@dataclass(frozen=True)
class CompressionModel:
    """Cost/benefit model for page compression (LZ4-class).

    Real pages compress unevenly; the default 2.2x ratio matches
    typical anonymous-memory corpora.  Compression/decompression cost
    is charged per page on the fault path.
    """

    compress_us: float = 3.0
    decompress_us: float = 1.5
    ratio: float = 2.2

    def compressed_bytes(self, nbytes: int) -> int:
        return max(64, int(nbytes / self.ratio))


class CompressedStore(KeyValueBackend):
    """Transparent page compression in front of any backend."""

    supports_partitions = False  # delegated; see property below

    def __init__(
        self,
        env: Environment,
        inner: KeyValueBackend,
        model: CompressionModel = CompressionModel(),
    ) -> None:
        super().__init__(env)
        self.inner = inner
        self.model = model
        self.name = f"compressed-{inner.name}"
        self.supports_partitions = inner.supports_partitions
        self.bytes_saved = 0

    def put(self, key: int, value: Any, nbytes: int = PAGE_SIZE) -> Generator:
        yield self.env.timeout(self.model.compress_us)
        packed, packed_bytes = self._pack(value, nbytes)
        self.bytes_saved += nbytes - packed_bytes
        yield from self.inner.put(key, packed, packed_bytes)
        self.counters.incr("writes")

    def multi_write(self, items: List[WriteItem]) -> Generator:
        yield self.env.timeout(self.model.compress_us * max(1, len(items)))
        packed_items = []
        for key, value, nbytes in items:
            packed, packed_bytes = self._pack(value, nbytes)
            self.bytes_saved += nbytes - packed_bytes
            packed_items.append((key, packed, packed_bytes))
        yield from self.inner.multi_write(packed_items)
        self.counters.incr("writes", by=len(items))

    def get(self, key: int) -> Generator:
        packed = yield from self.inner.get(key)
        yield self.env.timeout(self.model.decompress_us)
        self.counters.incr("reads")
        return self._unpack(packed)

    def multi_read(self, keys: List[int]) -> Generator:
        """Delegate the whole batch so the inner store's single
        round trip survives; decompression is charged per page."""
        if not keys:
            return []
        packed = yield from self.inner.multi_read(list(keys))
        yield self.env.timeout(self.model.decompress_us * len(keys))
        self.counters.incr("reads", by=len(keys))
        self.counters.incr("multi_reads")
        return [self._unpack(item) for item in packed]

    def remove(self, key: int) -> Generator:
        yield from self.inner.remove(key)
        self.counters.incr("removes")

    def _pack(self, value: Any, nbytes: int):
        """Compress real bytes when present; model the size otherwise."""
        if isinstance(value, Page) and value.data is not None:
            blob = zlib.compress(value.data, level=1)
            return ("z", blob, value), min(nbytes, len(blob))
        return ("m", None, value), self.model.compressed_bytes(nbytes)

    @staticmethod
    def _unpack(packed: Any) -> Any:
        if not isinstance(packed, tuple) or len(packed) != 3:
            return packed  # foreign value; pass through
        kind, blob, original = packed
        if kind == "z" and isinstance(original, Page):
            original.data = zlib.decompress(blob)
        return original

    def contains(self, key: int) -> bool:
        return self.inner.contains(key)

    def stored_keys(self) -> int:
        return self.inner.stored_keys()

    @property
    def used_bytes(self) -> int:
        return self.inner.used_bytes


class ReplicatedStore(KeyValueBackend):
    """Synchronous N-way replication across independent backends.

    Writes go to every live replica (in parallel: the cost is the
    slowest write, not the sum) and succeed as long as at least one
    replica accepts them.  Reads try replicas in order, failing over
    past dead, unreachable, or transiently erroring ones.

    Liveness has two sources: the manual ``fail_replica`` /
    ``recover_replica`` switches (a provider draining a node), and each
    replica's own :attr:`~repro.kv.KeyValueBackend.is_alive` — which a
    :class:`repro.faults.FaultyStore` wires to its fault plan, so
    crash / partition windows are skipped without paying a timeout.
    """

    def __init__(
        self,
        env: Environment,
        replicas: Sequence[KeyValueBackend],
        obs: Optional[Observability] = None,
    ) -> None:
        if not replicas:
            raise KVError("need at least one replica")
        super().__init__(env)
        self.replicas = list(replicas)
        self._alive = [True] * len(self.replicas)
        #: Per-replica keys whose newest acked write this replica
        #: missed (it was down or its write failed).  Reads skip a
        #: replica for such keys — a recovered replica must not serve
        #: the value it held *before* its outage window (stale read).
        #: A later successful write to the replica clears the key.
        self._stale: List[Set[int]] = [set() for _ in self.replicas]
        self.name = f"replicated-x{len(self.replicas)}"
        self.supports_partitions = all(
            replica.supports_partitions for replica in self.replicas
        )
        self.obs = obs if obs is not None else NULL_OBS
        self.counters = self.obs.counters_for(store=self.name)

    def _observe_failover(self, index: int, key: int, reason: str) -> None:
        """Record one read that had to skip past a replica."""
        if self.obs.enabled:
            self.obs.tracer.instant(
                "replica_failover", self.env.now, cat="resilience",
                track=self.name, replica=index, reason=reason,
                key=f"{key:#x}",
            )

    # -- failure injection / liveness ----------------------------------------

    def fail_replica(self, index: int) -> None:
        self._alive[index] = False

    def recover_replica(self, index: int) -> None:
        """Bring a replica back.  Keys written while it was out stay
        marked stale on it until re-replicated by a later write."""
        self._alive[index] = True

    def _replica_alive(self, index: int) -> bool:
        return self._alive[index] and self.replicas[index].is_alive

    @property
    def live_count(self) -> int:
        return sum(
            1 for index in range(len(self.replicas))
            if self._replica_alive(index)
        )

    @property
    def is_alive(self) -> bool:
        return self.live_count > 0

    def _live(self) -> List[KeyValueBackend]:
        live = [
            replica
            for index, replica in enumerate(self.replicas)
            if self._replica_alive(index)
        ]
        if not live:
            # Transient: a crashed/partitioned replica can recover.
            raise TransientStoreError("all replicas are down")
        return live

    # -- operations -------------------------------------------------------------

    def _write_live(self, items: List[WriteItem]) -> Generator:
        """Issue one batched write to every live replica in parallel.

        Succeeds when at least one replica made the batch durable;
        replicas that fail mid-write are counted and skipped (the read
        path's failover covers the gap until they re-replicate).

        Every replica that misses the batch — down, or failed
        mid-write — has the batch's keys marked stale: after it
        recovers it still holds the *pre-outage* values, and a read
        failing over onto it must not be served those.  A later
        successful write of a key clears its mark.
        """
        self._live()  # all-down is transient: raise before issuing
        keys = [item[0] for item in items]
        live_indexes = [
            index for index in range(len(self.replicas))
            if self._replica_alive(index)
        ]
        for index in range(len(self.replicas)):
            if index not in live_indexes:
                self._stale[index].update(keys)
        events = [
            (index, self.replicas[index].write_async(list(items)).event)
            for index in live_indexes
        ]
        survivors = 0
        last_error: Optional[Exception] = None
        for index, event in events:
            try:
                yield event
            except (TransientStoreError, KVError) as exc:
                last_error = exc
                self._stale[index].update(keys)
                self.counters.incr("replica_write_failures")
                continue
            self._stale[index].difference_update(keys)
            survivors += 1
        if survivors == 0:
            raise TransientStoreError(
                f"write failed on every replica: {last_error}"
            ) from last_error

    def put(self, key: int, value: Any, nbytes: int = PAGE_SIZE) -> Generator:
        yield from self._write_live([(key, value, nbytes)])
        self.counters.incr("writes")

    def multi_write(self, items: List[WriteItem]) -> Generator:
        if not items:
            return
        yield from self._write_live(list(items))
        self.counters.incr("writes", by=len(items))

    def get(self, key: int) -> Generator:
        transient: Optional[Exception] = None
        missing: Optional[KeyNotFoundError] = None
        for index, replica in enumerate(self.replicas):
            if not self._replica_alive(index):
                self.counters.incr("replicas_skipped")
                continue
            if key in self._stale[index]:
                # The replica missed this key's newest write while it
                # was out; its surviving copy must not be served.
                self.counters.incr("failovers")
                self._observe_failover(index, key, "stale")
                continue
            try:
                value = yield from replica.get(key)
            except KeyNotFoundError as exc:
                missing = exc
                self.counters.incr("failovers")
                self._observe_failover(index, key, "missing")
                continue
            except TransientStoreError as exc:
                transient = exc
                self.counters.incr("failovers")
                self._observe_failover(index, key, "transient")
                continue
            self.counters.incr("reads")
            return value
        if transient is not None:
            # The key may exist on a replica that errored: retryable.
            raise TransientStoreError(
                f"no replica could serve key {key:#x}: {transient}"
            ) from transient
        if missing is not None:
            raise missing
        raise TransientStoreError("all replicas are down")

    def multi_read(self, keys: List[int]) -> Generator:
        """One batched read against the first replica that can serve
        the *whole* batch; failover is all-or-nothing per replica (a
        replica missing one key is skipped the same as a dead one)."""
        if not keys:
            return []
        transient: Optional[Exception] = None
        missing: Optional[KeyNotFoundError] = None
        for index, replica in enumerate(self.replicas):
            if not self._replica_alive(index):
                self.counters.incr("replicas_skipped")
                continue
            if any(key in self._stale[index] for key in keys):
                # All-or-nothing per replica: one stale key skips it.
                self.counters.incr("failovers")
                self._observe_failover(index, keys[0], "stale")
                continue
            try:
                values = yield from replica.multi_read(list(keys))
            except KeyNotFoundError as exc:
                missing = exc
                self.counters.incr("failovers")
                self._observe_failover(index, keys[0], "missing")
                continue
            except TransientStoreError as exc:
                transient = exc
                self.counters.incr("failovers")
                self._observe_failover(index, keys[0], "transient")
                continue
            self.counters.incr("reads", by=len(keys))
            self.counters.incr("multi_reads")
            return values
        if transient is not None:
            raise TransientStoreError(
                f"no replica could serve the {len(keys)}-key batch: "
                f"{transient}"
            ) from transient
        if missing is not None:
            raise missing
        raise TransientStoreError("all replicas are down")

    def remove(self, key: int) -> Generator:
        self._live()  # all-down is transient, not key-not-found
        removed = False
        for index, replica in enumerate(self.replicas):
            if not self._replica_alive(index):
                # The replica keeps a copy the removal deleted: its
                # surviving value is stale by definition.
                self._stale[index].add(key)
                continue
            try:
                yield from replica.remove(key)
                removed = True
                self._stale[index].discard(key)
            except KeyNotFoundError:
                self._stale[index].discard(key)
            except TransientStoreError:
                self._stale[index].add(key)
                self.counters.incr("replica_remove_failures")
        if not removed:
            raise KeyNotFoundError(key)
        self.counters.incr("removes")

    def contains(self, key: int) -> bool:
        return any(
            replica.contains(key)
            for index, replica in enumerate(self.replicas)
            if self._replica_alive(index)
            and key not in self._stale[index]
        )

    def stored_keys(self) -> int:
        return max(
            (
                replica.stored_keys()
                for index, replica in enumerate(self.replicas)
                if self._replica_alive(index)
            ),
            default=0,
        )

    @property
    def used_bytes(self) -> int:
        return sum(
            replica.used_bytes
            for index, replica in enumerate(self.replicas)
            if self._replica_alive(index)
        )
