"""Transport latency/bandwidth models.

The paper's testbed connects servers with FDR InfiniBand (56 Gb/s,
Mellanox ConnectX-3).  Three transports matter for the evaluation:

* **RDMA verbs** — used by FluidMem→RAMCloud and by NVMeoF.  A small
  message one-way is ~1.5 µs; a 4 KB payload RTT lands near the ~10 µs
  "waiting for the network transport" the paper reports for a RAMCloud
  read (§V-B).
* **IP over IB** — used by FluidMem→Memcached.  The kernel TCP stack adds
  tens of µs per message, which is why Memcached's average fault latency
  (65.79 µs, Fig. 3c) is ~2.6× RAMCloud's.
* **Ethernet/TCP** — a commodity datacenter reference point used by
  ablations ("standard Ethernet networks", §VI-D1).

Each transport is a :class:`TransportSpec` with a deterministic base cost
plus a lognormal tail, sampled from a named RNG stream so runs are
reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = [
    "TransportSpec",
    "RDMA_FDR",
    "IPOIB",
    "ETHERNET_10G",
    "TRANSPORTS",
]


@dataclass(frozen=True)
class TransportSpec:
    """One-way message cost model for a transport.

    total one-way latency =
        ``propagation_us`` + ``per_message_us`` + bytes/bandwidth + tail

    where *tail* is a lognormal variate with median 0 controlled by
    ``jitter_sigma`` (0 disables it).
    """

    name: str
    #: Fixed propagation + switching delay, one way (µs).
    propagation_us: float
    #: Per-message software cost at sender+receiver (stack traversal, µs).
    per_message_us: float
    #: Link bandwidth in gigabits per second.
    bandwidth_gbps: float
    #: Lognormal sigma of the latency tail; 0 = deterministic.
    jitter_sigma: float = 0.0
    #: Scale of the tail contribution (µs at the median of the lognormal).
    jitter_scale_us: float = 0.0

    def serialization_us(self, nbytes: int) -> float:
        """Time to clock ``nbytes`` onto the wire."""
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        bits = nbytes * 8
        return bits / (self.bandwidth_gbps * 1000.0)  # Gb/s -> bits/µs

    def one_way_us(self, nbytes: int, rng: random.Random) -> float:
        """Sample the one-way latency for an ``nbytes`` message."""
        latency = (
            self.propagation_us
            + self.per_message_us
            + self.serialization_us(nbytes)
        )
        if self.jitter_sigma > 0.0 and self.jitter_scale_us > 0.0:
            # Lognormal with median jitter_scale_us, long right tail.
            tail = self.jitter_scale_us * math.exp(
                rng.gauss(0.0, self.jitter_sigma)
            )
            latency += tail
        return latency

    def round_trip_us(
        self,
        request_bytes: int,
        response_bytes: int,
        rng: random.Random,
        server_us: float = 0.0,
    ) -> float:
        """Request + server processing + response."""
        return (
            self.one_way_us(request_bytes, rng)
            + server_us
            + self.one_way_us(response_bytes, rng)
        )


#: FDR InfiniBand with RDMA verbs (kernel bypass).  4 KB RTT ≈ 8–10 µs.
RDMA_FDR = TransportSpec(
    name="rdma-fdr",
    propagation_us=1.0,
    per_message_us=1.2,
    bandwidth_gbps=56.0,
    jitter_sigma=0.35,
    jitter_scale_us=0.4,
)

#: IP-over-InfiniBand: same wire, but through the kernel TCP stack.
IPOIB = TransportSpec(
    name="ipoib",
    propagation_us=1.0,
    per_message_us=21.0,
    bandwidth_gbps=20.0,
    jitter_sigma=0.5,
    jitter_scale_us=2.5,
)

#: Commodity 10 GbE with TCP, for Ethernet-datacenter ablations.
ETHERNET_10G = TransportSpec(
    name="ethernet-10g",
    propagation_us=4.0,
    per_message_us=25.0,
    bandwidth_gbps=10.0,
    jitter_sigma=0.5,
    jitter_scale_us=4.0,
)

TRANSPORTS = {
    spec.name: spec for spec in (RDMA_FDR, IPOIB, ETHERNET_10G)
}

