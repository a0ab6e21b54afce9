"""Memcached-like backend.

The paper runs FluidMem→Memcached over IP-over-InfiniBand (§VI-A); the
kernel TCP stack makes it the slow remote backend (Fig. 3c: 65.79 µs
average vs 24.87 for RAMCloud).  Functionally we model what matters:

* slab allocation — values live in power-of-two size classes; each class
  owns whole 1 MB slabs carved into fixed chunks,
* per-class LRU with eviction when the memory limit is reached.  For
  FluidMem an eviction would be **data loss** (the monitor counts on the
  store holding evicted pages), so the store counts evictions and the
  monitor surfaces a loud error if it ever reads an evicted page,
* no native partitions — FluidMem must pack a 12-bit virtual partition
  into the key (see :mod:`repro.kv.partitions`).
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import Any, Dict, Generator, List, Tuple

from ..errors import KeyNotFoundError, KVError
from ..mem import PAGE_SIZE
from ..net import Fabric
from ..sim import Environment
from .api import KeyValueBackend, WriteItem, _park_failure

__all__ = ["MemcachedServer", "MemcachedStore", "SLAB_BYTES"]

#: Memcached carves memory into 1 MB slabs.
SLAB_BYTES = 1024 * 1024
#: Smallest chunk class, bytes.
MIN_CHUNK = 128
#: Per-item metadata overhead, bytes.
ITEM_OVERHEAD = 56


@functools.lru_cache(maxsize=128)
def chunk_class_for(nbytes: int) -> int:
    """Chunk size (power of two >= nbytes + overhead) for a value.

    Cached per size: every page write asks for the same few sizes.
    """
    needed = nbytes + ITEM_OVERHEAD
    chunk = MIN_CHUNK
    while chunk < needed:
        chunk *= 2
        if chunk > SLAB_BYTES:
            raise KVError(f"value of {nbytes} bytes exceeds slab size")
    return chunk


class _SlabClass:
    """One size class: items in LRU order, slab accounting."""

    def __init__(self, chunk: int) -> None:
        self.chunk = chunk
        self.items: "OrderedDict[int, Tuple[Any, int]]" = OrderedDict()
        self.slabs = 0

    @property
    def chunks_per_slab(self) -> int:
        return SLAB_BYTES // self.chunk

    @property
    def capacity(self) -> int:
        return self.slabs * self.chunks_per_slab

    def needs_slab(self) -> bool:
        return len(self.items) >= self.capacity


class MemcachedServer:
    """Slab-allocated LRU cache with a hard memory limit."""

    def __init__(self, memory_bytes: int) -> None:
        if memory_bytes < SLAB_BYTES:
            raise KVError(
                f"memcached needs at least one slab ({SLAB_BYTES} B)"
            )
        self.memory_bytes = memory_bytes
        self._classes: Dict[int, _SlabClass] = {}
        self._index: Dict[int, int] = {}  # key -> chunk class
        self._slab_bytes_used = 0
        self.evictions = 0

    def set(self, key: int, value: Any, nbytes: int) -> None:
        chunk = chunk_class_for(nbytes)
        old_class = self._index.get(key)
        if old_class is not None and old_class != chunk:
            self._delete_from(old_class, key)
        slab_class = self._classes.get(chunk)
        if slab_class is None:
            slab_class = _SlabClass(chunk)
            self._classes[chunk] = slab_class
        if key not in slab_class.items and slab_class.needs_slab():
            if not self._grow(slab_class):
                self._evict_one(slab_class)
        slab_class.items[key] = (value, nbytes)
        slab_class.items.move_to_end(key)
        self._index[key] = chunk

    def _grow(self, slab_class: _SlabClass) -> bool:
        if self._slab_bytes_used + SLAB_BYTES > self.memory_bytes:
            return False
        slab_class.slabs += 1
        self._slab_bytes_used += SLAB_BYTES
        return True

    def _evict_one(self, slab_class: _SlabClass) -> None:
        if not slab_class.items:
            raise KVError("cannot evict from an empty slab class")
        victim_key, _item = slab_class.items.popitem(last=False)
        del self._index[victim_key]
        self.evictions += 1

    def get(self, key: int) -> Tuple[Any, int]:
        chunk = self._index.get(key)
        if chunk is None:
            raise KeyNotFoundError(key)
        slab_class = self._classes[chunk]
        item = slab_class.items[key]
        slab_class.items.move_to_end(key)  # LRU touch
        return item

    def delete(self, key: int) -> None:
        chunk = self._index.get(key)
        if chunk is None:
            raise KeyNotFoundError(key)
        self._delete_from(chunk, key)

    def _delete_from(self, chunk: int, key: int) -> None:
        self._classes[chunk].items.pop(key, None)
        self._index.pop(key, None)

    def __contains__(self, key: int) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    @property
    def used_bytes(self) -> int:
        return sum(
            nbytes
            for slab_class in self._classes.values()
            for _value, nbytes in slab_class.items.values()
        )


class MemcachedStore(KeyValueBackend):
    """Client over a TCP-like transport (IPoIB in the paper's testbed)."""

    name = "memcached"
    supports_partitions = False

    #: Server-side request processing (hash + slab ops), µs.
    SERVER_US = 2.5
    REQUEST_BYTES = 40
    RESPONSE_OVERHEAD_BYTES = 48

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        client_host: str,
        server_host: str,
        server: MemcachedServer,
    ) -> None:
        super().__init__(env)
        self.fabric = fabric
        self.client_host = client_host
        self.server_host = server_host
        self.server = server

    def get(self, key: int) -> Generator:
        value, nbytes = self.server.get(key)  # raises before charging time
        yield from self.fabric.rpc(
            self.client_host,
            self.server_host,
            self.REQUEST_BYTES,
            nbytes + self.RESPONSE_OVERHEAD_BYTES,
            server_us=self.SERVER_US,
        )
        self.counters["reads"] += 1
        return value

    def _drive_read(self, handle) -> Generator:
        """The bottom half of :meth:`read_async`: :meth:`get` as one
        generator frame over :meth:`Fabric.rpc <repro.net.Fabric.rpc>`."""
        try:
            value, nbytes = self.server.get(handle.key)
            yield from self.fabric.rpc(
                self.client_host,
                self.server_host,
                self.REQUEST_BYTES,
                nbytes + self.RESPONSE_OVERHEAD_BYTES,
                server_us=self.SERVER_US,
            )
        except Exception as exc:
            _park_failure(handle.event, exc)
            return
        self.counters["reads"] += 1
        handle.event.succeed(value)

    def put(self, key: int, value: Any, nbytes: int = PAGE_SIZE) -> Generator:
        yield from self.fabric.rpc(
            self.client_host,
            self.server_host,
            nbytes + self.REQUEST_BYTES,
            self.RESPONSE_OVERHEAD_BYTES,
            server_us=self.SERVER_US,
        )
        self.server.set(key, value, nbytes)
        self.counters["writes"] += 1

    def multi_write(self, items: List[WriteItem]) -> Generator:
        """Memcached has no batched write: one set round trip per page,
        in order, as :meth:`put` makes it, in this one frame (the paper
        notes async write-back "is most beneficial when slower network
        transports are used such as with TCP with Memcached")."""
        fabric = self.fabric
        server = self.server
        counters = self.counters
        for key, value, nbytes in items:
            yield from fabric.rpc(
                self.client_host,
                self.server_host,
                nbytes + self.REQUEST_BYTES,
                self.RESPONSE_OVERHEAD_BYTES,
                server_us=self.SERVER_US,
            )
            server.set(key, value, nbytes)
            counters["writes"] += 1

    def remove(self, key: int) -> Generator:
        self.server.get(key)
        yield from self.fabric.rpc(
            self.client_host,
            self.server_host,
            self.REQUEST_BYTES,
            self.RESPONSE_OVERHEAD_BYTES,
            server_us=self.SERVER_US,
        )
        self.server.delete(key)
        self.counters.incr("removes")

    def contains(self, key: int) -> bool:
        return key in self.server

    def stored_keys(self) -> int:
        return len(self.server)

    @property
    def used_bytes(self) -> int:
        return self.server.used_bytes
