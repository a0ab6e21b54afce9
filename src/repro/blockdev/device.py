"""Block-device abstraction.

Swap-based disaggregation (the paper's comparison point) pushes every
remote-memory access through the block layer: a bio is built, queued on
the device, serviced, and completed by interrupt.  The three concrete
devices — remote DRAM (``/dev/pmem0``), an NVMeoF target, and a local SSD
— differ only in their service-time models, so they share this queueing
skeleton.

Devices expose 4 KB-sector reads/writes as simulation generators and
enforce a bounded queue depth: when the queue is full, submitters wait
in FIFO order.  While nothing can contend, an I/O takes no queue token
at all (see :meth:`BlockDevice.read`).
"""

from __future__ import annotations

import abc
import random
from typing import Generator

from ..errors import OutOfRangeError
from ..mem import PAGE_SIZE
from ..sim import CounterSet, Environment, LatencyRecorder, Resource

__all__ = ["BlockDevice", "SECTOR_BYTES"]

#: We use page-sized sectors: swap I/O is always whole 4 KB pages.
SECTOR_BYTES = PAGE_SIZE


class BlockDevice(abc.ABC):
    """Queued block device with per-op service-time sampling."""

    name: str = "blockdev"

    def __init__(
        self,
        env: Environment,
        capacity_bytes: int,
        rng: random.Random,
        queue_depth: int = 32,
    ) -> None:
        if capacity_bytes < SECTOR_BYTES:
            raise OutOfRangeError(
                f"device needs >= one sector, got {capacity_bytes} bytes"
            )
        self.env = env
        self.capacity_bytes = capacity_bytes
        self.num_sectors = capacity_bytes // SECTOR_BYTES
        self._rng = rng
        self._queue = Resource(env, capacity=queue_depth)
        self.counters = CounterSet()
        self.read_latency = LatencyRecorder(f"{self.name}.read",
                                            max_samples=100_000)
        self.write_latency = LatencyRecorder(f"{self.name}.write",
                                             max_samples=100_000)

    # -- service-time models (device-specific) -------------------------------

    @abc.abstractmethod
    def read_service_us(self, nbytes: int) -> float:
        """Sampled device time to serve an ``nbytes`` read."""

    @abc.abstractmethod
    def write_service_us(self, nbytes: int) -> float:
        """Sampled device time to serve an ``nbytes`` write."""

    # -- I/O ------------------------------------------------------------------

    def read(self, sector: int, nbytes: int = SECTOR_BYTES) -> Generator:
        """Read ``nbytes`` at ``sector``; a simulation sub-process.

        A queue token is taken only when something could see it.  With
        no scheduler installed, no waiter and a free slot, the service
        time is drawn first and the token taken only if the clock cannot
        advance in place.  On the in-place path no process runs between
        where the token would be taken and returned, and returning it
        would wake no one, so its absence cannot be observed.
        """
        self._check(sector, nbytes)
        env = self.env
        start = env._now
        queue = self._queue
        slot = None
        if (
            env.scheduler is not None
            or queue._queue
            or len(queue._users) >= queue.capacity
        ):
            slot = queue.request()
            yield slot
        try:
            service_us = self.read_service_us(nbytes)
            if not env.try_advance(service_us):
                if slot is None:
                    slot = queue.try_acquire()
                yield env.timeout(service_us)
        finally:
            if slot is not None:
                queue.release(slot)
        self.counters["reads"] += 1
        # A clock difference: appended in place under the cap.
        latency = env._now - start
        recorder = self.read_latency
        if len(recorder._samples) < recorder._cap:
            recorder._samples.append(latency)
        else:
            recorder.record(latency)

    def write(self, sector: int, nbytes: int = SECTOR_BYTES) -> Generator:
        """Write ``nbytes`` at ``sector``; a simulation sub-process.

        Takes a queue token only when something could see it, as
        :meth:`read` does.
        """
        self._check(sector, nbytes)
        env = self.env
        start = env._now
        queue = self._queue
        slot = None
        if (
            env.scheduler is not None
            or queue._queue
            or len(queue._users) >= queue.capacity
        ):
            slot = queue.request()
            yield slot
        try:
            service_us = self.write_service_us(nbytes)
            if not env.try_advance(service_us):
                if slot is None:
                    slot = queue.try_acquire()
                yield env.timeout(service_us)
        finally:
            if slot is not None:
                queue.release(slot)
        self.counters["writes"] += 1
        # A clock difference: appended in place under the cap.
        latency = env._now - start
        recorder = self.write_latency
        if len(recorder._samples) < recorder._cap:
            recorder._samples.append(latency)
        else:
            recorder.record(latency)

    def _check(self, sector: int, nbytes: int) -> None:
        if nbytes <= 0 or nbytes % SECTOR_BYTES:
            raise OutOfRangeError(
                f"I/O size must be a positive sector multiple, got {nbytes}"
            )
        last = sector + nbytes // SECTOR_BYTES
        if sector < 0 or last > self.num_sectors:
            raise OutOfRangeError(
                f"I/O [{sector}, {last}) beyond device of "
                f"{self.num_sectors} sectors"
            )

    @property
    def queue_length(self) -> int:
        return self._queue.queue_length

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r} "
            f"{self.capacity_bytes >> 20} MiB>"
        )


def gauss_at_least(rng: random.Random, mean: float, sigma: float,
                   floor: float) -> float:
    """A truncated-below Gaussian sample; shared by device models."""
    return max(floor, rng.gauss(mean, sigma))
