"""RAMCloud-like key-value store.

Models the pieces of RAMCloud that FluidMem exploits (paper §IV–V):

* an in-memory **master** holding objects in a log-structured memory
  (append-only segments + hash table index, with utilization accounting
  like RAMCloud's log cleaner would see),
* native **tables** (partitions), so FluidMem does not need virtual
  partitions on this backend,
* a **multi-write** RPC that writes a batch of pages in one round trip —
  the paper leverages this for asynchronous write-back batches,
* an asynchronous client API (split top/bottom halves) over RDMA verbs.

Replication is off, matching the evaluation platform (§VI-A: "The
replication feature with RAMCloud was not turned on").  A ``replicas``
knob still exists because writes-with-replication is the ablation the
paper argues would barely matter (writes are asynchronous).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Tuple

from ..errors import KeyNotFoundError, KVError
from ..mem import PAGE_SIZE
from ..net import Fabric
from ..sim import Environment
from .api import KeyValueBackend, WriteItem, _park_failure

__all__ = ["RamCloudServer", "RamCloudStore"]

#: RAMCloud appends objects into fixed 8 MB segments.
SEGMENT_BYTES = 8 * 1024 * 1024


@dataclass
class _LogRecord:
    """One live object in the log: (segment, size, value)."""

    segment: int
    nbytes: int
    value: Any
    tombstone: bool = False


class RamCloudServer:
    """The master's state: log-structured memory + per-table hash index."""

    def __init__(self, memory_bytes: int) -> None:
        if memory_bytes < SEGMENT_BYTES:
            raise KVError(
                f"RAMCloud master needs >= one segment ({SEGMENT_BYTES} B)"
            )
        self.memory_bytes = memory_bytes
        self._tables: Dict[int, Dict[int, _LogRecord]] = {}
        self._segment_fill = 0      # bytes used in the open segment
        self._segments_live = 1     # open segment counts
        self._live_bytes = 0        # bytes of live (non-deleted) objects
        self._appended_bytes = 0    # total ever appended (cleaner metric)

    # -- tables -----------------------------------------------------------

    def create_table(self, table_id: int) -> None:
        if table_id in self._tables:
            raise KVError(f"table {table_id} already exists")
        self._tables[table_id] = {}

    def drop_table(self, table_id: int) -> None:
        table = self._tables.pop(table_id, None)
        if table is None:
            raise KVError(f"table {table_id} does not exist")
        for record in table.values():
            self._live_bytes -= record.nbytes

    def _table(self, table_id: int) -> Dict[int, _LogRecord]:
        try:
            return self._tables[table_id]
        except KeyError:
            raise KVError(f"table {table_id} does not exist") from None

    # -- log-structured writes ---------------------------------------------

    def write(self, table_id: int, key: int, value: Any, nbytes: int) -> None:
        table = self._table(table_id)
        if self._live_bytes + nbytes > self.memory_bytes:
            raise KVError("RAMCloud master memory exhausted")
        old = table.get(key)
        if old is not None:
            self._live_bytes -= old.nbytes
        self._append(nbytes)
        table[key] = _LogRecord(self._segments_live, nbytes, value)
        self._live_bytes += nbytes

    def _append(self, nbytes: int) -> None:
        if self._segment_fill + nbytes > SEGMENT_BYTES:
            self._segments_live += 1
            self._segment_fill = 0
        self._segment_fill += nbytes
        self._appended_bytes += nbytes

    def read(self, table_id: int, key: int) -> Tuple[Any, int]:
        record = self._table(table_id).get(key)
        if record is None:
            raise KeyNotFoundError((table_id, key))
        return record.value, record.nbytes

    def delete(self, table_id: int, key: int) -> None:
        record = self._table(table_id).pop(key, None)
        if record is None:
            raise KeyNotFoundError((table_id, key))
        self._live_bytes -= record.nbytes
        # A tombstone is appended in real RAMCloud; account its bytes.
        self._append(32)

    # -- introspection -------------------------------------------------------

    @property
    def live_bytes(self) -> int:
        return self._live_bytes

    @property
    def log_utilization(self) -> float:
        """Live bytes / appended bytes — what the cleaner watches."""
        if self._appended_bytes == 0:
            return 1.0
        return self._live_bytes / self._appended_bytes

    def keys_in(self, table_id: int) -> int:
        return len(self._table(table_id))


class RamCloudStore(KeyValueBackend):
    """Client-side view of one RAMCloud table, over RDMA."""

    name = "ramcloud"
    supports_partitions = True

    #: Server-side request processing (hash lookup + log append), µs.
    SERVER_READ_US = 1.8
    SERVER_WRITE_US = 2.2
    #: Client-side cost paid only on the *synchronous* API: request
    #: marshalling plus the blocking-poll completion path.  The split
    #: asynchronous halves overlap this work with the network wait,
    #: which is why Table I's synchronous READ_PAGE/WRITE_PAGE
    #: (15.62/14.70 µs) exceed the raw ~8 µs RDMA round trip.
    SYNC_CLIENT_US = 7.3
    #: Per-item marginal server cost inside a multi-write, µs.
    SERVER_MULTIWRITE_ITEM_US = 0.9
    #: Request header sizes, bytes.
    READ_REQUEST_BYTES = 64
    WRITE_RESPONSE_BYTES = 64

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        client_host: str,
        server_host: str,
        server: RamCloudServer,
        table_id: int = 1,
        create_table: bool = True,
    ) -> None:
        super().__init__(env)
        self.fabric = fabric
        self.client_host = client_host
        self.server_host = server_host
        self.server = server
        self.table_id = table_id
        if create_table:
            server.create_table(table_id)

    # -- blocking API ---------------------------------------------------------

    def get(self, key: int) -> Generator:
        yield self.env.timeout(self.SYNC_CLIENT_US)
        # Look up first so the response size is right; the value size
        # rides back in the response.
        value, nbytes = self.server.read(self.table_id, key)
        yield from self.fabric.rpc(
            self.client_host,
            self.server_host,
            self.READ_REQUEST_BYTES,
            nbytes + 32,
            server_us=self.SERVER_READ_US,
        )
        self.counters["reads"] += 1
        return value

    def _drive_read(self, handle) -> Generator:
        """The bottom half of :meth:`read_async`: :meth:`get` without
        the blocking client cost, which the split asynchronous halves
        overlap with the network wait.  One generator frame over
        :meth:`Fabric.rpc <repro.net.Fabric.rpc>`."""
        try:
            value, nbytes = self.server.read(self.table_id, handle.key)
            yield from self.fabric.rpc(
                self.client_host,
                self.server_host,
                self.READ_REQUEST_BYTES,
                nbytes + 32,
                server_us=self.SERVER_READ_US,
            )
        except Exception as exc:
            _park_failure(handle.event, exc)
            return
        self.counters["reads"] += 1
        handle.event.succeed(value)

    def put(self, key: int, value: Any, nbytes: int = PAGE_SIZE) -> Generator:
        yield self.env.timeout(self.SYNC_CLIENT_US)
        yield from self.fabric.rpc(
            self.client_host,
            self.server_host,
            nbytes + 64,
            self.WRITE_RESPONSE_BYTES,
            server_us=self.SERVER_WRITE_US,
        )
        self.server.write(self.table_id, key, value, nbytes)
        self.counters["writes"] += 1

    def multi_read(self, keys: List[int]) -> Generator:
        """RAMCloud's multiRead: fetch a batch in one round trip.

        Returns values in key order; raises KeyNotFoundError if any key
        is absent (checked before any latency is charged).
        """
        if not keys:
            return []
        results = []
        payload = 32
        for key in keys:
            value, nbytes = self.server.read(self.table_id, key)
            results.append(value)
            payload += nbytes
        server_us = (
            self.SERVER_READ_US
            + self.SERVER_MULTIWRITE_ITEM_US * (len(keys) - 1)
        )
        yield from self.fabric.rpc(
            self.client_host,
            self.server_host,
            self.READ_REQUEST_BYTES + 8 * len(keys),
            payload,
            server_us=server_us,
        )
        self.counters.incr("reads", by=len(keys))
        self.counters.incr("multi_reads")
        return results

    def multi_write(self, items: List[WriteItem]) -> Generator:
        """RAMCloud's multiWrite: the whole batch in one round trip."""
        if not items:
            return
        payload = sum(nbytes for _key, _value, nbytes in items) + 64
        server_us = (
            self.SERVER_WRITE_US
            + self.SERVER_MULTIWRITE_ITEM_US * (len(items) - 1)
        )
        yield from self.fabric.rpc(
            self.client_host,
            self.server_host,
            payload,
            self.WRITE_RESPONSE_BYTES,
            server_us=server_us,
        )
        for key, value, nbytes in items:
            self.server.write(self.table_id, key, value, nbytes)
        counters = self.counters
        counters["writes"] += len(items)
        counters["multi_writes"] += 1

    def remove(self, key: int) -> Generator:
        self.server.read(self.table_id, key)  # raise before charging time
        yield from self.fabric.rpc(
            self.client_host,
            self.server_host,
            self.READ_REQUEST_BYTES,
            self.WRITE_RESPONSE_BYTES,
            server_us=self.SERVER_WRITE_US,
        )
        self.server.delete(self.table_id, key)
        self.counters.incr("removes")

    # -- introspection ----------------------------------------------------------

    def contains(self, key: int) -> bool:
        try:
            self.server.read(self.table_id, key)
            return True
        except KeyNotFoundError:
            return False

    def stored_keys(self) -> int:
        return self.server.keys_in(self.table_id)

    @property
    def used_bytes(self) -> int:
        return self.server.live_bytes
