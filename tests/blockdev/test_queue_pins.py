"""A pin for the block device's queue under contention.

No benchmark run ever makes a swap-device request wait for a slot: a
one-vCPU guest has at most two I/Os in flight and the swap devices have
two slots.  Here two processes share a one-slot ``PmemDisk`` and their
reads and writes overlap, so requests take the in-place path, the
token-held timeout and the wait for a slot.  Completion times, latency
samples and counters hash to a constant recorded before the device
stopped taking a token for in-place I/O, and the same run under the
``FifoSchedule`` reference must give it too.
"""

import hashlib
import random

from repro.blockdev import PmemDisk, SECTOR_BYTES
from repro.sim import Environment

SEED = 42
PIN = (
    "3144a0f6d3f5a9250d688dd7af65f137"
    "e80322caa5965c13f125c82ca1591c00"
)


class LoggedPmemDisk(PmemDisk):
    """A ``PmemDisk`` that logs every service time it draws and counts
    the queue tokens it takes without waiting and the requests it
    queues."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.service_us = []
        self.tokens = 0
        self.queued = 0
        queue = self._queue
        try_acquire, request = queue.try_acquire, queue.request

        def counted_try_acquire():
            self.tokens += 1
            return try_acquire()

        def counted_request():
            self.queued += 1
            return request()

        queue.try_acquire = counted_try_acquire
        queue.request = counted_request

    def read_service_us(self, nbytes):
        drawn = super().read_service_us(nbytes)
        self.service_us.append(drawn)
        return drawn

    def write_service_us(self, nbytes):
        drawn = super().write_service_us(nbytes)
        self.service_us.append(drawn)
        return drawn


def contended_run():
    env = Environment()
    device = LoggedPmemDisk(
        env, 256 * SECTOR_BYTES, random.Random(SEED), queue_depth=1
    )
    completions = []

    def worker(name, think_us, requests):
        for op, sector, pages in requests:
            io = device.read if op == "read" else device.write
            yield from io(sector, pages * SECTOR_BYTES)
            completions.append((name, op, sector, env.now))
            yield env.timeout(think_us)

    # A faulting vCPU: single-page reads with a short think time.
    env.process(worker(
        "fault", 3.0, [("read", 7 * index % 200, 1) for index in range(24)]
    ))
    # kswapd-like write-back: batched writes, longer pauses.
    env.process(worker(
        "writeback", 40.0,
        [("write", 200 + 4 * index, 4) for index in range(8)],
    ))
    env.run()
    outputs = (
        tuple(completions),
        tuple(device.read_latency.samples),
        tuple(device.write_latency.samples),
        sorted(device.counters.as_dict().items()),
        env.now,
    )
    return outputs, device


def digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def test_contended_device_matches_pin_and_reference(fifo_reference):
    outputs, device = contended_run()
    # The run takes every path: I/O in place (no token), a token held
    # across a timeout, and a queued request that waited for the slot
    # (its latency exceeds the service time it drew).
    latencies = (
        list(device.read_latency.samples)
        + list(device.write_latency.samples)
    )
    assert len(latencies) == len(device.service_us) == 32
    assert device.tokens > 0 and device.queued > 0
    assert device.tokens + device.queued < 32
    assert sum(latencies) > sum(device.service_us) + 1.0
    pinned = digest(outputs)
    assert pinned == PIN
    with fifo_reference():
        assert digest(contended_run()[0]) == pinned
