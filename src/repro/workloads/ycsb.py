"""YCSB: the Yahoo Cloud Serving Benchmark client (workload C).

The paper drives MongoDB with YCSB's read-only workload C: 1 KB
records, request keys drawn from YCSB's scrambled-Zipfian distribution.
This module implements the generators faithfully (Gray's incremental
Zipfian algorithm, the same scrambling YCSB uses) plus the measured
client loop that produces Figure 5's latency-vs-runtime traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, List, Optional

from ..errors import WorkloadError
from ..sim import Environment, LatencyRecorder, TimeSeries

__all__ = [
    "ZipfianGenerator",
    "ScrambledZipfianGenerator",
    "UniformGenerator",
    "YcsbConfig",
    "YcsbResult",
    "YcsbClient",
]

#: YCSB's default Zipfian constant.
ZIPFIAN_CONSTANT = 0.99
#: FNV offset/prime used by YCSB's key scrambling.
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv_hash64(value: int) -> int:
    """YCSB's FNV-1a 64-bit hash for key scrambling."""
    result = FNV_OFFSET
    for _ in range(8):
        octet = value & 0xFF
        value >>= 8
        result ^= octet
        result = (result * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return result


class UniformGenerator:
    """Uniform keys in [0, item_count)."""

    def __init__(self, item_count: int, rng: random.Random) -> None:
        if item_count < 1:
            raise WorkloadError("need at least one item")
        self.item_count = item_count
        self._rng = rng

    def next(self) -> int:
        return self._rng.randrange(self.item_count)


class ZipfianGenerator:
    """Gray et al.'s incremental Zipfian generator (as in YCSB)."""

    def __init__(
        self,
        item_count: int,
        rng: random.Random,
        theta: float = ZIPFIAN_CONSTANT,
    ) -> None:
        if item_count < 1:
            raise WorkloadError("need at least one item")
        if not 0.0 < theta < 1.0:
            raise WorkloadError(f"theta must be in (0,1), got {theta}")
        self.item_count = item_count
        self.theta = theta
        self._rng = rng
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(item_count, theta)
        self._zeta2 = self._zeta(2, theta)
        #: Below this, ``u * zetan`` draws item 1 (below 1.0, item 0).
        self._second_cut = 1.0 + 0.5 ** theta
        if item_count == 2:
            # eta is 0/0 here, and the formula's limit draws item 1
            # wherever u * zetan >= 1.0.  Cutting at zetan sends every
            # such draw there (u < 1.0, so u * zetan < zetan), even
            # where the cut above lands one ulp below zetan.
            self._eta = 0.0
            self._second_cut = self._zetan
        else:
            self._eta = (1 - (2.0 / item_count) ** (1 - theta)) / (
                1 - self._zeta2 / self._zetan
            )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self) -> int:
        return self.draw(1)[0]

    def draw(self, count: int) -> List[int]:
        """The next ``count`` items, in draw order: one ``rng.random()``
        each, exactly as ``count`` calls of :meth:`next` would draw
        them.  The one body of the formula, so a caller that needs a
        batch of items pays one frame, not one per item.
        """
        random_ = self._rng.random
        zetan, second_cut = self._zetan, self._second_cut
        eta, alpha, item_count = self._eta, self._alpha, self.item_count
        items: List[int] = []
        append = items.append
        for _ in range(count):
            u = random_()
            uz = u * zetan
            if uz < 1.0:
                append(0)
            elif uz < second_cut:
                append(1)
            else:
                append(int(item_count * (eta * u - eta + 1.0) ** alpha))
        return items


class ScrambledZipfianGenerator:
    """Zipfian popularity spread over the keyspace by FNV hashing.

    YCSB uses this so the hot keys are not clustered at low ids — the
    access pattern stays skewed but spatially scattered, which is what
    makes the MongoDB working set page-unfriendly.
    """

    def __init__(self, item_count: int, rng: random.Random) -> None:
        self.item_count = item_count
        self._zipf = ZipfianGenerator(item_count, rng)

    def next(self) -> int:
        return fnv_hash64(self._zipf.next()) % self.item_count


@dataclass(frozen=True)
class YcsbConfig:
    """Workload C parameters."""

    record_count: int = 100_000
    operation_count: int = 10_000
    record_bytes: int = 1024
    #: "zipfian" (YCSB's workload C default) or "uniform".
    request_distribution: str = "zipfian"

    def __post_init__(self) -> None:
        if self.record_count < 1 or self.operation_count < 1:
            raise WorkloadError("record/operation counts must be >= 1")
        if self.request_distribution not in ("zipfian", "uniform"):
            raise WorkloadError(
                f"unknown distribution {self.request_distribution!r}"
            )


class YcsbResult:
    """Latencies plus the Figure 5 time series."""

    def __init__(self) -> None:
        self.read_latency = LatencyRecorder("ycsb.read", max_samples=500_000)
        self.timeline = TimeSeries("ycsb.read-latency")

    @property
    def average_latency_us(self) -> float:
        return self.read_latency.mean

    def __repr__(self) -> str:
        return (
            f"<YcsbResult n={self.read_latency.count} "
            f"avg={self.average_latency_us:.0f}us>"
        )


class YcsbClient:
    """The measured client: workload C against any record server.

    ``server`` must expose ``read_record(record_id)`` as a simulation
    generator (e.g. :class:`repro.workloads.mongo.MongoServer`).
    """

    def __init__(
        self,
        env: Environment,
        server: object,
        config: Optional[YcsbConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.env = env
        self.server = server
        self.config = config or YcsbConfig()
        rng = rng or random.Random(99)
        if self.config.request_distribution == "zipfian":
            self._keys = ScrambledZipfianGenerator(
                self.config.record_count, rng
            )
        else:
            self._keys = UniformGenerator(self.config.record_count, rng)

    def run(self) -> Generator:
        """Run the operations; returns a YcsbResult."""
        result = YcsbResult()
        read_record = getattr(self.server, "read_record")
        started = self.env.now
        for _ in range(self.config.operation_count):
            key = self._keys.next()
            op_started = self.env.now
            yield from read_record(key)
            latency = self.env.now - op_started
            result.read_latency.record(latency)
            result.timeline.record(self.env.now - started, latency)
        return result
