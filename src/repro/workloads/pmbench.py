"""pmbench: the paging micro-benchmark behind Figure 3.

The real pmbench [Yang & Seymour 2018] mmaps a working set, touches
every page once to warm up, then issues uniformly random 4 KB accesses
at a configurable read/write mix, recording per-access latency
histograms.  The paper runs it inside a VM with a 4 GB working set over
1 GB of local DRAM, 50 % reads, for 100 s.

This module reproduces that procedure against any
:class:`~repro.vm.MemoryPort`: warm-up pass, then ``measured_accesses``
uniform accesses with per-access latencies recorded separately for
reads and writes (Figure 3 plots the two CDFs per backend).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, Optional

from ..errors import WorkloadError
from ..mem import PAGE_SIZE
from ..sim import Cdf, Environment, LatencyRecorder
from ..vm import MemoryPort
from .driver import AccessDriver

__all__ = ["PmbenchConfig", "PmbenchResult", "Pmbench"]


@dataclass(frozen=True)
class PmbenchConfig:
    """Shape of one pmbench run."""

    #: Working set size in pages (paper: 4 GiB = 1 Mi pages).
    wss_pages: int = 262144
    #: Fraction of accesses that are reads (paper: 0.5).
    read_ratio: float = 0.5
    #: Number of measured accesses after warm-up.  The paper runs for
    #: 100 s of wall time; we run a fixed access count instead so the
    #: statistics are deterministic.
    measured_accesses: int = 100_000
    #: Touch every page once before measuring (pmbench's cache warm-up).
    warmup: bool = True

    def __post_init__(self) -> None:
        if self.wss_pages < 1:
            raise WorkloadError("working set must be at least one page")
        if not 0.0 <= self.read_ratio <= 1.0:
            raise WorkloadError(
                f"read_ratio must be in [0,1], got {self.read_ratio}"
            )
        if self.measured_accesses < 1:
            raise WorkloadError("need at least one measured access")


class PmbenchResult:
    """Latency distributions of one run."""

    def __init__(
        self,
        read_latency: LatencyRecorder,
        write_latency: LatencyRecorder,
        warmup_time_us: float,
        measured_time_us: float,
        hits: int,
        faults: int,
    ) -> None:
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.warmup_time_us = warmup_time_us
        self.measured_time_us = measured_time_us
        self.hits = hits
        self.faults = faults

    @property
    def all_samples(self):
        return list(self.read_latency.samples) + list(
            self.write_latency.samples
        )

    @property
    def average_latency_us(self) -> float:
        """The number Figure 3 puts in parentheses."""
        total = (
            self.read_latency.mean * self.read_latency.count
            + self.write_latency.mean * self.write_latency.count
        )
        return total / (self.read_latency.count + self.write_latency.count)

    def cdf(self) -> Cdf:
        return Cdf(self.all_samples)

    @property
    def hit_fraction(self) -> float:
        return self.hits / max(1, self.hits + self.faults)

    def __repr__(self) -> str:
        return (
            f"<PmbenchResult avg={self.average_latency_us:.2f}us "
            f"hit%={100 * self.hit_fraction:.1f}>"
        )


class Pmbench:
    """The benchmark process."""

    def __init__(
        self,
        env: Environment,
        port: MemoryPort,
        base_addr: int,
        config: Optional[PmbenchConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.env = env
        self.port = port
        self.base_addr = base_addr
        self.config = config or PmbenchConfig()
        self._rng = rng or random.Random(1234)

    def run(self) -> Generator:
        """Execute warm-up + measurement; returns a PmbenchResult."""
        config = self.config
        read_latency = LatencyRecorder("pmbench.read", max_samples=500_000)
        write_latency = LatencyRecorder("pmbench.write", max_samples=500_000)
        base_addr = self.base_addr
        wss_pages = config.wss_pages

        warmup_started = self.env.now
        if config.warmup:
            warm_driver = AccessDriver(self.env, self.port, rng=self._rng)
            try_hit = warm_driver.try_hit
            for vaddr in range(
                base_addr, base_addr + wss_pages * PAGE_SIZE, PAGE_SIZE
            ):
                if not try_hit(vaddr, is_write=True):
                    yield from warm_driver.access(vaddr, is_write=True)
            yield from warm_driver.flush()
        warmup_time = self.env.now - warmup_started

        # The driver records per-access latency: sampled DRAM cost for
        # hits, exact fault time for misses.  Swapping its recorder per
        # access splits the read and write distributions.
        driver = AccessDriver(self.env, self.port, rng=self._rng)
        measured_started = self.env.now
        rng = self._rng
        # ``randrange(wss_pages)`` draw for draw, as ``random.Random``
        # makes it: getrandbits(k) until the value is below the range.
        getrandbits, rand = rng.getrandbits, rng.random
        bits = wss_pages.bit_length()
        try_hit = driver.try_hit
        read_ratio = config.read_ratio
        for _ in range(config.measured_accesses):
            page = getrandbits(bits)
            while page >= wss_pages:
                page = getrandbits(bits)
            is_read = rand() < read_ratio
            driver.latency = read_latency if is_read else write_latency
            vaddr = base_addr + page * PAGE_SIZE
            if not try_hit(vaddr, is_write=not is_read):
                yield from driver.access(vaddr, is_write=not is_read)
        yield from driver.flush()
        measured_time = self.env.now - measured_started

        return PmbenchResult(
            read_latency=read_latency,
            write_latency=write_latency,
            warmup_time_us=warmup_time,
            measured_time_us=measured_time,
            hits=driver.hits,
            faults=driver.faults,
        )
