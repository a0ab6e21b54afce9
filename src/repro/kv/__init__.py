"""Remote-memory key-value backends and partition management."""

from .api import KeyValueBackend, ReadHandle, WriteHandle, WriteItem
from .dram import DramStore
from .memcached import MemcachedServer, MemcachedStore, SLAB_BYTES
from .partitions import (
    PartitionLease,
    PartitionedKeyCodec,
    PartitionOwner,
    VirtualPartitionRegistry,
)
from .ramcloud import RamCloudServer, RamCloudStore, SEGMENT_BYTES
from .wrappers import (
    CompressedStore,
    CompressionModel,
    ReplicatedStore,
)

__all__ = [
    "CompressedStore",
    "CompressionModel",
    "ReplicatedStore",
    "KeyValueBackend",
    "ReadHandle",
    "WriteHandle",
    "WriteItem",
    "DramStore",
    "RamCloudServer",
    "RamCloudStore",
    "SEGMENT_BYTES",
    "MemcachedServer",
    "MemcachedStore",
    "SLAB_BYTES",
    "PartitionLease",
    "PartitionOwner",
    "VirtualPartitionRegistry",
    "PartitionedKeyCodec",
]
