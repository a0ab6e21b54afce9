"""Tests for Profiler, FluidMemConfig, and the libuserfault app."""

import pytest

from repro.bench.platform import build_platform
from repro.core import CodePath, FluidMemConfig, Profiler, UserfaultApp
from repro.core.config import MonitorLatency
from repro.errors import FluidMemError
from repro.kv import DramStore
from repro.workloads import Pmbench, PmbenchConfig

from tests.conftest import build_stack


# ------------------------------------------------------------------ Profiler

def test_profiler_records_and_tables():
    profiler = Profiler()
    for value in (1.0, 2.0, 3.0):
        profiler.record(CodePath.UFFD_COPY, value)
    profiler.record(CodePath.READ_PAGE, 10.0)
    rows = profiler.table()
    names = [row[0] for row in rows]
    # Table I order: COPY before READ_PAGE.
    assert names == ["UFFD_COPY", "READ_PAGE"]
    copy_row = rows[0]
    assert copy_row[1] == pytest.approx(2.0)   # avg
    assert copy_row[3] == pytest.approx(3.0, abs=0.1)  # p99


def test_profiler_table_skips_unrecorded_paths():
    profiler = Profiler()
    profiler.record(CodePath.WAKE, 1.0)  # not a Table I path
    assert profiler.table() == []
    assert profiler.has_samples(CodePath.WAKE)
    assert not profiler.has_samples(CodePath.READ_PAGE)


def test_profiler_recorder_lookup():
    profiler = Profiler()
    with pytest.raises(KeyError):
        profiler.recorder(CodePath.READ_PAGE)
    profiler.record(CodePath.READ_PAGE, 5.0)
    assert profiler.recorder(CodePath.READ_PAGE).mean == 5.0


def test_profiler_reset():
    profiler = Profiler()
    profiler.record(CodePath.READ_PAGE, 5.0)
    profiler.reset()
    assert not profiler.has_samples(CodePath.READ_PAGE)


def test_monitor_profiler_keeps_table1_samples_after_a_reset():
    """A reset mid-run must not cut the monitor off from the profiler:
    the faults after it land in ``table()`` again."""
    platform = build_platform(
        "fluidmem-dram", memory_scale=1.0 / 1024, seed=42,
        fluidmem_config=FluidMemConfig(fault_handlers=1, prefetch_pages=0),
        faults=None,
    )
    monitor = platform.monitor

    def pmbench_run(name):
        bench = Pmbench(
            platform.env, platform.port, platform.workload_base,
            PmbenchConfig(
                wss_pages=platform.shape.wss_pages(4.0),
                read_ratio=0.5, measured_accesses=200,
            ),
            rng=platform.streams.stream(name),
        )
        platform.run(bench.run())

    pmbench_run("pmbench-1")
    monitor.profiler.reset()
    before = dict(monitor.counters)
    pmbench_run("pmbench-2")
    faults = monitor.counters["faults"] - before["faults"]
    reads = monitor.counters["remote_reads"] - before["remote_reads"]
    assert faults > 0 and reads > 0
    profiler = monitor.profiler
    paths = {row[0] for row in profiler.table()}
    assert {"UFFD_REMAP", "UFFD_COPY", "READ_PAGE"} <= paths
    # Each post-reset fault is dispatched once and each remote read
    # timed once; nothing from before the reset is counted.
    assert profiler.recorder(CodePath.EVENT_DISPATCH).count == faults
    assert profiler.recorder(CodePath.READ_PAGE).count == reads


def test_table1_paths_are_the_papers_eight():
    assert [p.value for p in CodePath.table1_paths()] == [
        "UPDATE_PAGE_CACHE",
        "INSERT_PAGE_HASH_NODE",
        "INSERT_LRU_CACHE_NODE",
        "UFFD_ZEROPAGE",
        "UFFD_REMAP",
        "UFFD_COPY",
        "READ_PAGE",
        "WRITE_PAGE",
    ]


# ----------------------------------------------------------- FluidMemConfig

def test_config_validation():
    with pytest.raises(FluidMemError):
        FluidMemConfig(lru_capacity_pages=0)
    with pytest.raises(FluidMemError):
        FluidMemConfig(writeback_batch_pages=0)
    with pytest.raises(FluidMemError):
        FluidMemConfig(writeback_stale_us=0)


def test_config_with_optimizations():
    base = FluidMemConfig()
    variant = base.with_optimizations(async_read=False,
                                      async_writeback=True)
    assert not variant.async_read
    assert variant.async_writeback
    assert variant.lru_capacity_pages == base.lru_capacity_pages


def test_config_default_table2():
    config = FluidMemConfig.default_table2()
    assert not config.async_read
    assert not config.async_writeback
    assert config.zero_page_tracker  # the tracker stays on


def test_config_is_frozen():
    config = FluidMemConfig()
    with pytest.raises(Exception):
        config.async_read = False


def test_monitor_latency_defaults_match_table1():
    latency = MonitorLatency()
    assert latency.update_page_cache_mean == 2.56
    assert latency.insert_page_hash_mean == 2.58
    assert latency.insert_lru_mean == 2.87


# ------------------------------------------------------------- UserfaultApp

def test_app_region_bounds():
    stack = build_stack()
    app = UserfaultApp(stack.env, stack.monitor, DramStore(stack.env),
                       region_pages=4)
    with pytest.raises(FluidMemError):
        app.addr(4)
    with pytest.raises(FluidMemError):
        app.addr(-1)
    with pytest.raises(FluidMemError):
        UserfaultApp(stack.env, stack.monitor, DramStore(stack.env),
                     region_pages=0)


def test_app_faults_through_monitor():
    stack = build_stack()
    stack.monitor.set_lru_capacity(4)
    store = DramStore(stack.env)
    app = UserfaultApp(stack.env, stack.monitor, store, region_pages=8)

    def gen(env):
        for index in range(8):
            yield from app.access(index, is_write=True)
        # page 0 was evicted; re-access reads it back
        assert not app.is_resident(0)
        yield from app.access(0)

    stack.run(gen(stack.env))
    assert app.is_resident(0)
    assert stack.monitor.counters["faults"] == 9


def test_app_hits_are_free():
    stack = build_stack()
    app = UserfaultApp(stack.env, stack.monitor, DramStore(stack.env),
                       region_pages=4)

    def gen(env):
        yield from app.access(0, is_write=True)
        before = env.now
        yield from app.access(0)
        return env.now - before

    assert stack.run(gen(stack.env)) == 0.0


def test_two_apps_isolated():
    stack = build_stack()
    store_a, store_b = DramStore(stack.env), DramStore(stack.env)
    app_a = UserfaultApp(stack.env, stack.monitor, store_a, region_pages=4)
    app_b = UserfaultApp(stack.env, stack.monitor, store_b, region_pages=4)
    assert app_a.pid != app_b.pid

    stack.monitor.set_lru_capacity(2)

    def gen(env):
        for index in range(4):
            yield from app_a.access(index, is_write=True)
        for index in range(4):
            yield from app_b.access(index, is_write=True)
        yield from stack.monitor.writeback.drain()

    stack.run(gen(stack.env))
    # Evictions landed in each app's own store.
    assert store_a.stored_keys() > 0
    assert store_b.stored_keys() > 0
