"""Tests for the Fabric topology and RPC process."""

import pytest

from repro.errors import HostUnreachableError, NetworkError
from repro.net import Fabric, RDMA_FDR, TransportSpec
from repro.sim import Environment, RandomStreams


def make_fabric():
    env = Environment()
    fabric = Fabric(env, RandomStreams(seed=11))
    fabric.add_host("hypervisor")
    fabric.add_host("ramcloud")
    fabric.connect("hypervisor", "ramcloud", RDMA_FDR)
    return env, fabric


def test_duplicate_host_rejected():
    env, fabric = make_fabric()
    with pytest.raises(NetworkError):
        fabric.add_host("hypervisor")


def test_unknown_host_rejected():
    env, fabric = make_fabric()
    with pytest.raises(HostUnreachableError):
        fabric.host("nope")
    with pytest.raises(HostUnreachableError):
        fabric.connect("hypervisor", "nope", RDMA_FDR)


def test_self_link_rejected():
    env, fabric = make_fabric()
    with pytest.raises(NetworkError):
        fabric.connect("hypervisor", "hypervisor", RDMA_FDR)


def test_link_is_bidirectional():
    env, fabric = make_fabric()
    assert fabric.transport_between("hypervisor", "ramcloud") is RDMA_FDR
    assert fabric.transport_between("ramcloud", "hypervisor") is RDMA_FDR


def test_missing_link_raises():
    env, fabric = make_fabric()
    fabric.add_host("memcached")
    with pytest.raises(HostUnreachableError):
        fabric.transport_between("hypervisor", "memcached")


def test_sample_rtt_positive():
    env, fabric = make_fabric()
    rtt = fabric.sample_rtt("hypervisor", "ramcloud", 64, 4096, server_us=2.0)
    assert rtt > 2.0


def test_rpc_process_advances_time():
    env, fabric = make_fabric()
    results = []

    def client(env):
        value = yield from fabric.rpc(
            "hypervisor", "ramcloud", 64, 4096, server_us=2.0, payload="pg"
        )
        results.append((env.now, value))

    env.process(client(env))
    env.run()
    assert len(results) == 1
    elapsed, value = results[0]
    assert value == "pg"
    assert 4.0 < elapsed < 30.0  # near the ~10us RTT regime


def test_concurrent_rpcs_contend_on_nic():
    """Two big sends from one host must serialize on its single NIC queue."""
    env = Environment()
    fabric = Fabric(env, RandomStreams(seed=5))
    fabric.add_host("a")
    fabric.add_host("b")
    fabric.connect("a", "b", RDMA_FDR)
    big = 1 << 20  # 1 MiB: ~150us serialization on FDR
    finish = []

    def client(env, tag):
        yield from fabric.rpc("a", "b", big, 64)
        finish.append((tag, env.now))

    env.process(client(env, "first"))
    env.process(client(env, "second"))
    env.run()
    t_first = dict(finish)["first"]
    t_second = dict(finish)["second"]
    serialization = RDMA_FDR.serialization_us(big)
    # The second RPC cannot finish before two serialization intervals.
    assert t_second >= 2 * serialization
    assert t_first >= serialization


def test_rpc_to_unknown_host_fails_fast():
    env, fabric = make_fabric()

    def client(env):
        yield from fabric.rpc("hypervisor", "ghost", 64, 64)

    env.process(client(env))
    with pytest.raises(HostUnreachableError):
        env.run()


def test_rpc_route_follows_a_reconnected_link():
    """rpc resolves each route once; connect() must invalidate that."""
    env, fabric = make_fabric()
    slow = TransportSpec(
        name="slow", propagation_us=500.0, per_message_us=0.0,
        bandwidth_gbps=RDMA_FDR.bandwidth_gbps,
    )
    finished = []

    def client(env):
        yield from fabric.rpc("hypervisor", "ramcloud", 64, 64)
        finished.append(env.now)
        fabric.connect("hypervisor", "ramcloud", slow)
        yield from fabric.rpc("hypervisor", "ramcloud", 64, 64)
        finished.append(env.now)

    env.process(client(env))
    env.run()
    assert finished[0] < 30.0
    assert finished[1] - finished[0] >= 1000.0  # two slow one-way legs


def test_rpc_to_unknown_host_or_missing_link_raises():
    env, fabric = make_fabric()
    fabric.add_host("memcached")

    def client(env, src, dst):
        yield from fabric.rpc(src, dst, 64, 64)

    for src, dst, error in (
        ("hypervisor", "nope", HostUnreachableError),
        ("nope", "ramcloud", HostUnreachableError),
        ("hypervisor", "memcached", HostUnreachableError),
    ):
        env.process(client(env, src, dst))
        with pytest.raises(error):
            env.run()
