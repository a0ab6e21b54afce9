"""Tests for transport latency models, sampled through a fabric."""

import pytest
from hypothesis import given, strategies as st

from repro.net import (
    ETHERNET_10G,
    IPOIB,
    RDMA_FDR,
    TRANSPORTS,
    Fabric,
    TransportSpec,
)
from repro.sim import Environment, RandomStreams


def det(spec):
    """A deterministic (jitter-free) copy of a transport spec."""
    return TransportSpec(
        name=spec.name,
        propagation_us=spec.propagation_us,
        per_message_us=spec.per_message_us,
        bandwidth_gbps=spec.bandwidth_gbps,
    )


def link(spec, seed=0):
    """A fabric of two hosts, ``a`` and ``b``, joined by ``spec``."""
    fabric = Fabric(Environment(), RandomStreams(seed))
    fabric.add_host("a")
    fabric.add_host("b")
    fabric.connect("a", "b", spec)
    return fabric


def test_serialization_scales_with_bytes():
    spec = det(RDMA_FDR)
    assert spec.serialization_us(0) == 0.0
    four_k = spec.serialization_us(4096)
    eight_k = spec.serialization_us(8192)
    assert eight_k == pytest.approx(2 * four_k)


def test_serialization_4k_on_fdr_under_1us():
    # 4 KB at 56 Gb/s is ~0.585 µs
    assert det(RDMA_FDR).serialization_us(4096) == pytest.approx(0.585, abs=0.02)


def test_negative_bytes_rejected():
    with pytest.raises(ValueError):
        det(RDMA_FDR).serialization_us(-1)


def test_rdma_4k_rtt_near_paper_10us():
    """Paper section V-B: a RAMCloud page read waits ~10us on the network."""
    fabric = link(RDMA_FDR, seed=1)
    samples = [
        fabric.sample_rtt("a", "b", 64, 4096, server_us=2.0)
        for _ in range(2000)
    ]
    avg = sum(samples) / len(samples)
    assert 7.0 <= avg <= 13.0


def test_ipoib_much_slower_than_rdma():
    rdma_link = link(RDMA_FDR, seed=2)
    ipoib_link = link(IPOIB, seed=2)
    rdma = sum(rdma_link.sample_rtt("a", "b", 64, 4096) for _ in range(500))
    ipoib = sum(ipoib_link.sample_rtt("a", "b", 64, 4096) for _ in range(500))
    assert ipoib > 3 * rdma


def test_ethernet_slowest_propagation():
    assert ETHERNET_10G.propagation_us > RDMA_FDR.propagation_us


def test_transport_registry():
    assert set(TRANSPORTS) == {"rdma-fdr", "ipoib", "ethernet-10g"}
    assert TRANSPORTS["rdma-fdr"] is RDMA_FDR


def test_jitter_reproducible_with_seeded_rng():
    a = link(RDMA_FDR, seed=42).sample_one_way("a", "b", 4096)
    b = link(RDMA_FDR, seed=42).sample_one_way("a", "b", 4096)
    assert a == b


def test_jitter_creates_tail():
    fabric = link(RDMA_FDR, seed=3)
    samples = sorted(
        fabric.sample_one_way("a", "b", 4096) for _ in range(5000)
    )
    median = samples[len(samples) // 2]
    p999 = samples[int(len(samples) * 0.999)]
    assert p999 > median  # a right tail exists
    assert p999 < 10 * median  # but not absurd


@given(st.integers(0, 1 << 20))
def test_one_way_at_least_fixed_cost(nbytes):
    spec = RDMA_FDR
    lat = link(spec).sample_one_way("a", "b", nbytes)
    assert lat >= spec.propagation_us + spec.per_message_us


@given(st.integers(0, 1 << 16), st.integers(0, 1 << 16))
def test_rtt_is_sum_of_parts(req, resp):
    # Same seed, same draws: the round trip is the request leg, then the
    # server time, then the response leg, to the last bit.
    for spec in (det(IPOIB), IPOIB):
        rtt = link(spec).sample_rtt("a", "b", req, resp, server_us=5.0)
        legs = link(spec)
        expected = (
            legs.sample_one_way("a", "b", req)
            + 5.0
            + legs.sample_one_way("b", "a", resp)
        )
        assert rtt == expected
