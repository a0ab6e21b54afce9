"""Extra coverage: Ethernet transport in a fabric, fig4 scale helper,
kswapd guards, and the access driver's bookkeeping."""

import pytest

from repro.bench.fig4_graph500 import pick_graph_scale
from repro.bench.platform import PlatformShape
from repro.errors import SimulationError
from repro.kernel import GuestMemoryManager, Kswapd
from repro.mem import PAGE_SIZE
from repro.net import ETHERNET_10G, Fabric, RDMA_FDR
from repro.sim import Environment, LatencyRecorder, RandomStreams
from repro.workloads import AccessDriver, KroneckerGraph

from tests.workloads.conftest import make_fluidmem_world


def test_ethernet_fabric_rpc_slower_than_rdma():
    env = Environment()
    fabric = Fabric(env, RandomStreams(seed=4))
    for host in ("a", "b", "c"):
        fabric.add_host(host)
    fabric.connect("a", "b", RDMA_FDR)
    fabric.connect("a", "c", ETHERNET_10G)
    done = {}

    def client(env, dst):
        start = env.now
        yield from fabric.rpc("a", dst, 64, 4096)
        done[dst] = env.now - start

    env.process(client(env, "b"))
    env.run()
    env.process(client(env, "c"))
    env.run()
    assert done["c"] > 4 * done["b"]


def test_sample_one_way_positive():
    env = Environment()
    fabric = Fabric(env, RandomStreams(seed=4))
    fabric.add_host("a")
    fabric.add_host("b")
    fabric.connect("a", "b", ETHERNET_10G)
    lat = fabric.sample_one_way("a", "b", 4096)
    assert lat >= ETHERNET_10G.propagation_us


def test_pick_graph_scale_monotone():
    shape = PlatformShape.at_scale(1.0 / 1024)
    small = pick_graph_scale(shape, 0.6, edgefactor=8)
    large = pick_graph_scale(shape, 4.8, edgefactor=8)
    assert large >= small
    probe = KroneckerGraph(large, 8, seed=1)
    assert probe.memory_bytes() >= shape.local_dram_bytes * 4.8


def test_kswapd_watermark_validation():
    env = Environment()
    import random
    mm = GuestMemoryManager(env, random.Random(0),
                            dram_bytes=256 * PAGE_SIZE)
    with pytest.raises(ValueError):
        Kswapd(env, mm, low_watermark=0.5, high_watermark=0.1)
    with pytest.raises(ValueError):
        Kswapd(env, mm, low_watermark=0.0, high_watermark=0.1)


def test_kswapd_kick_before_start_is_safe():
    env = Environment()
    import random
    mm = GuestMemoryManager(env, random.Random(0),
                            dram_bytes=256 * PAGE_SIZE)
    mm.kswapd.kick()  # no process yet: must not raise
    assert not mm.kswapd.running


def test_driver_latency_recorder_swappable():
    world = make_fluidmem_world(lru_pages=8)
    driver = AccessDriver(world.env, world.port)
    first = LatencyRecorder("first")
    second = LatencyRecorder("second")
    base = world.base_addr

    def gen(env):
        driver.latency = first
        yield from driver.access(base, is_write=True)
        driver.latency = second
        yield from driver.access(base + PAGE_SIZE, is_write=True)
        yield from driver.flush()

    world.run(gen(world.env))
    assert first.count == 1
    assert second.count == 1


def test_driver_flush_accumulates_exactly():
    world = make_fluidmem_world(lru_pages=64)
    driver = AccessDriver(world.env, world.port, hit_cost_us=0.5,
                          flush_every=10_000)
    base = world.base_addr

    def gen(env):
        yield from driver.access(base, is_write=True)  # fault
        t_after_fault = env.now
        for _ in range(100):
            yield from driver.access(base)             # hits
        yield from driver.flush()
        return env.now - t_after_fault

    elapsed = world.run(gen(world.env))
    assert elapsed == pytest.approx(100 * 0.5)


def test_environment_repr_and_negative_guard():
    env = Environment()
    assert "Environment" in repr(env)
    with pytest.raises(SimulationError):
        env.timeout(-0.5)
