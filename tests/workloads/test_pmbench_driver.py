"""Tests for the access driver and pmbench."""

import pytest

from repro.errors import WorkloadError
from repro.mem import PAGE_SIZE
from repro.workloads import AccessDriver, Pmbench, PmbenchConfig

from .conftest import make_fluidmem_world, make_swap_world


# ------------------------------------------------------------- AccessDriver

def test_driver_counts_hits_and_faults(fluid_world):
    world = fluid_world
    driver = AccessDriver(world.env, world.port)

    def gen(env):
        yield from driver.access(world.base_addr, is_write=True)  # fault
        yield from driver.access(world.base_addr)                 # hit
        yield from driver.flush()

    world.run(gen(world.env))
    assert driver.faults == 1
    assert driver.hits == 1


def test_driver_hits_are_cheap(fluid_world):
    """1000 hits must produce far fewer events than 1000 faults would."""
    world = fluid_world
    driver = AccessDriver(world.env, world.port)

    def gen(env):
        yield from driver.access(world.base_addr, is_write=True)
        before = env.now
        for _ in range(1000):
            yield from driver.access(world.base_addr)
        yield from driver.flush()
        return env.now - before

    elapsed = world.run(gen(world.env))
    # ~0.15us per hit, all accounted.
    assert elapsed == pytest.approx(1000 * 0.15, rel=0.1)


def test_driver_flush_every_validation(fluid_world):
    with pytest.raises(ValueError):
        AccessDriver(fluid_world.env, fluid_world.port, flush_every=0)


@pytest.mark.parametrize(
    "cost", [float("nan"), float("inf"), float("-inf"), -0.15]
)
def test_driver_hit_cost_validation(fluid_world, cost):
    """A NaN cost would poison the clock at the first flush, and a
    negative one would make hits free, since a flush settles only a
    positive pending time."""
    with pytest.raises(ValueError):
        AccessDriver(fluid_world.env, fluid_world.port, hit_cost_us=cost)


@pytest.mark.parametrize("cost", [0.0, 0.15, 0.1, 1e-300])
@pytest.mark.parametrize("flush_every", [1, 7, 256])
def test_pending_hit_time_is_the_in_order_sum(fluid_world, cost,
                                               flush_every):
    driver = AccessDriver(fluid_world.env, fluid_world.port,
                          hit_cost_us=cost, flush_every=flush_every)
    pending = 0.0
    assert len(driver._pending_after) == flush_every + 1
    for hits, table in enumerate(driver._pending_after):
        assert table.hex() == pending.hex(), hits
        pending += cost


@pytest.mark.parametrize("cost", [0.0, 0.15])
def test_flush_resets_the_hit_count_whatever_the_hit_cost(fluid_world,
                                                          cost):
    """A flush closes the hit window even with no hit time to settle:
    after a fault, ten hits at ``flush_every=4`` are two full windows
    plus two pending hits, at a zero hit cost as at a positive one."""
    world = fluid_world
    driver = AccessDriver(world.env, world.port, hit_cost_us=cost,
                          flush_every=4)
    runs = []
    world.port.note_hit_run = runs.append

    def gen(env):
        yield from driver.access(world.base_addr, is_write=True)  # fault
        for _ in range(10):
            yield from driver.access(world.base_addr)

    world.run(gen(world.env))
    assert (driver.faults, driver.hits) == (1, 10)
    assert runs == [4, 4]
    assert driver._hits_since_flush == 2


@pytest.mark.parametrize("cost", [0.0, 0.15])
def test_a_miss_ends_the_hit_run_whatever_the_hit_cost(fluid_world, cost):
    """Fault, 2 hits, fault, 2 hits at ``flush_every=4``: the second
    fault closes the first run of 2, at a zero hit cost as at a
    positive one, and the last 2 hits stay pending."""
    world = fluid_world
    driver = AccessDriver(world.env, world.port, hit_cost_us=cost,
                          flush_every=4)
    runs = []
    world.port.note_hit_run = runs.append

    def gen(env):
        for vaddr in (world.base_addr, world.base_addr + PAGE_SIZE):
            yield from driver.access(vaddr, is_write=True)  # fault
            for _ in range(2):
                yield from driver.access(vaddr)

    world.run(gen(world.env))
    assert (driver.faults, driver.hits) == (2, 4)
    assert runs == [2]
    assert driver._run_hits == driver._hits_since_flush == 2


# ----------------------------------------------------------------- Pmbench

def test_pmbench_config_validation():
    with pytest.raises(WorkloadError):
        PmbenchConfig(wss_pages=0)
    with pytest.raises(WorkloadError):
        PmbenchConfig(read_ratio=1.5)
    with pytest.raises(WorkloadError):
        PmbenchConfig(measured_accesses=0)


def run_pmbench(world, wss_pages, accesses=2000):
    bench = Pmbench(
        world.env, world.port, world.base_addr,
        PmbenchConfig(wss_pages=wss_pages, measured_accesses=accesses),
    )
    return world.run(bench.run())


def test_pmbench_all_local_is_fast():
    """WSS below the LRU budget: everything hits after warm-up."""
    world = make_fluidmem_world(lru_pages=256)
    result = run_pmbench(world, wss_pages=64)
    assert result.hit_fraction == 1.0
    assert result.average_latency_us < 5.0


def test_pmbench_hit_fraction_tracks_local_remote_ratio():
    """Paper VI-B: sub-10us faults ~= the local:total memory ratio."""
    world = make_fluidmem_world(lru_pages=64)
    result = run_pmbench(world, wss_pages=256, accesses=4000)
    # 64 local / 256 WSS = 25% expected hits (boot pages add noise).
    assert 0.12 <= result.hit_fraction <= 0.40
    cdf = result.cdf()
    assert cdf.fraction_below(10.0) == pytest.approx(
        result.hit_fraction, abs=0.08
    )


def test_pmbench_read_write_split():
    world = make_fluidmem_world(lru_pages=64)
    result = run_pmbench(world, wss_pages=128, accesses=1000)
    assert result.read_latency.count + result.write_latency.count == 1000
    # 50/50 mix within statistical noise.
    assert 350 <= result.read_latency.count <= 650


def test_pmbench_swap_world_runs():
    world = make_swap_world(dram_pages=96)
    result = run_pmbench(world, wss_pages=256, accesses=1500)
    assert result.faults > 0
    assert result.average_latency_us > 1.0
    # kswapd actually reclaimed into swap.
    assert world.mm.swap.counters["swapped_out"] > 0


def test_pmbench_remote_slower_than_local():
    local = make_fluidmem_world(lru_pages=512)
    remote = make_fluidmem_world(lru_pages=64)
    fast = run_pmbench(local, wss_pages=128, accesses=1500)
    slow = run_pmbench(remote, wss_pages=256, accesses=1500)
    assert slow.average_latency_us > 2 * fast.average_latency_us
