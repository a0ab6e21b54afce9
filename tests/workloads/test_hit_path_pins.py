"""Seed-42 pins for the hit path where no baseline file reaches.

``benchmarks/baselines/quick-seed42.json`` holds only FluidMem backends
and no Figure 4 run, so a change to the swap port, the guest kernel's
hit path or Graph500 could move simulated results without any byte pin
failing.  These tests run small seed-42 workloads there -- pmbench on
the three swap backends, Graph500 on ``fluidmem-dram`` and
``swap-dram``, and Graph500 at Figure 4a's shape (the benchmark's
``fig4a-graph500`` graph) on two backends of each port -- and hash
every simulated output: per-access samples,
hits and faults, the final clock, the guest kernel's, swap's and the
device's counters and samples, BFS times and edges, the FluidMem port's
hit-run diagnostics, and the referenced/dirty/version marks of every
resident page.  Each hash must equal the constant below,
and the same run under the ``FifoSchedule`` reference must give it too.
A change that moves one of these hashes changes simulated behaviour and
must say why before the constant is refreshed.
"""

import hashlib

import pytest

from repro.bench.fig4_graph500 import memory_scale_for
from repro.bench.platform import build_platform
from repro.errors import UffdError
from repro.mem import PAGE_SIZE
from repro.workloads import (
    AccessDriver,
    Graph500,
    Graph500Config,
    KroneckerGraph,
    Pmbench,
    PmbenchConfig,
)

SEED = 42
MEMORY_SCALE = 1.0 / 1024
PMBENCH_MEASURED_ACCESSES = 2_000
GRAPH_SCALE = 10
#: Figure 4a's graph, as the fig4a-graph500 benchmark workload runs it.
FIG4A_SCALE = 12
GRAPH_EDGEFACTOR = 16
GRAPH_BFS_ROOTS = 2

PMBENCH_PINS = {
    "swap-dram": (
        "d377993d6e154f1934b4722938458ea0"
        "47565dd2a3c28d37cd5b5621e574bfce"
    ),
    "swap-nvmeof": (
        "14c69dffacbf7ea0bcd7171fd0df9f30"
        "e718a3c5a5c7bedc4cfc6c3cb293f95b"
    ),
    "swap-ssd": (
        "1976fd627e992738972ff93ab5b49b4c"
        "744daadd83c62ea11dfb304fe30edddf"
    ),
}
#: (backend, working set as a fraction of local DRAM, graph scale):
#: Figure 4a's all-in-DRAM point, and one past DRAM where both backends
#: evict; then Figure 4a's shape at its all-in-DRAM point and at 3x
#: DRAM, where most accesses miss, on a FluidMem and a swap backend
#: each.
GRAPH500_PINS = {
    ("fluidmem-dram", 0.6, GRAPH_SCALE): (
        "1a2c1e3a07e3985b4a5d1964c438aad7"
        "377492b2a64adb49261564fe62f87667"
    ),
    ("swap-dram", 0.6, GRAPH_SCALE): (
        "1b4193c66be713395d1fe8578e504e26"
        "d674895e1782d2a7243ce1e43d4b4fa8"
    ),
    ("fluidmem-dram", 1.5, GRAPH_SCALE): (
        "4a125f9b2145d26be225589ac094e548"
        "cd1078b6919b9074c41fc05604a6ddd4"
    ),
    ("swap-dram", 1.5, GRAPH_SCALE): (
        "d400e74440e25e725a8e371985ce5c27"
        "dfcdd33bf32e7cf2d34af41bdc9252af"
    ),
    ("fluidmem-dram", 0.6, FIG4A_SCALE): (
        "fb95adac4ec381ebf295b314c5a3b41d"
        "d523bec13c53435957f317b70e5c7463"
    ),
    ("swap-dram", 0.6, FIG4A_SCALE): (
        "3328fe2bcee49ed9cf206cec804df4a1"
        "5831b0e18b2208c380028c745282cc74"
    ),
    ("fluidmem-ramcloud", 3.0, FIG4A_SCALE): (
        "6b2313001822720a4bc46d99b7b8f0b5"
        "36f1b4955c0d477554505fcdd6725189"
    ),
    ("swap-nvmeof", 3.0, FIG4A_SCALE): (
        "fd151b2da60373b4a5c1424127eb4cab"
        "f294488963d0164e9c25779effab14de"
    ),
}


def graph500_pin_id(key) -> str:
    """``backend-wss``, with ``-scaleN`` when the graph is not the
    default ``GRAPH_SCALE``."""
    backend, wss_of_dram, scale = key
    suffix = "" if scale == GRAPH_SCALE else f"-scale{scale}"
    return f"{backend}-{wss_of_dram}{suffix}"


def digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def counters(owner):
    return sorted(owner.counters.as_dict().items())


def page_marks(table, base):
    """Each resident page's marks, keyed by its offset from ``base``
    (host addresses differ from run to run; offsets do not)."""
    return tuple(sorted(
        (vaddr - base, pte.page.referenced, pte.page.dirty,
         pte.page.version)
        for vaddr, pte in table.items()
    ))


def swap_outputs(platform):
    """The guest kernel's, swap's and the swap device's state."""
    mm, device = platform.mm, platform.swap_device
    return (
        counters(mm),
        page_marks(mm.table, 0),
        tuple(mm.fault_latency.samples),
        counters(mm.swap),
        counters(device),
        tuple(device.read_latency.samples),
        tuple(device.write_latency.samples),
    )


def pmbench_outputs(backend):
    platform = build_platform(backend, memory_scale=MEMORY_SCALE, seed=SEED)
    config = PmbenchConfig(
        wss_pages=platform.shape.wss_pages(4.0),
        read_ratio=0.5,
        measured_accesses=PMBENCH_MEASURED_ACCESSES,
    )
    bench = Pmbench(
        platform.env, platform.port, platform.workload_base, config,
        rng=platform.streams.stream("pmbench"),
    )
    result = platform.run(bench.run())
    return (
        tuple(result.read_latency.samples),
        tuple(result.write_latency.samples),
        result.hits,
        result.faults,
        result.warmup_time_us,
        result.measured_time_us,
        platform.env.now,
        swap_outputs(platform),
    )


def graph500_outputs(backend, wss_of_dram, scale=GRAPH_SCALE):
    graph = KroneckerGraph(scale, GRAPH_EDGEFACTOR, seed=SEED)
    platform = build_platform(
        backend, memory_scale=memory_scale_for(graph, wss_of_dram),
        seed=SEED, remote_factor=6,
    )
    bench = Graph500(
        platform.env, platform.port, platform.workload_base,
        Graph500Config(
            scale=scale, edgefactor=GRAPH_EDGEFACTOR,
            num_bfs_roots=GRAPH_BFS_ROOTS, seed=SEED,
        ),
        graph=graph,
    )
    result = platform.run(bench.run())
    outputs = (
        tuple(result.bfs_times_us),
        tuple(result.edges_traversed),
        tuple(result.teps),
        platform.env.now,
    )
    if platform.monitor is not None:
        return outputs + (
            platform.port.hit_runs,
            platform.port.hit_run_pages,
            counters(platform.monitor),
            page_marks(platform.qemu.page_table, platform.qemu.ram_base),
        )
    return outputs + swap_outputs(platform)


@pytest.mark.parametrize("backend", sorted(PMBENCH_PINS))
def test_pmbench_on_swap_matches_pin_and_reference(backend, fifo_reference):
    pinned = digest(pmbench_outputs(backend))
    assert pinned == PMBENCH_PINS[backend]
    with fifo_reference():
        assert digest(pmbench_outputs(backend)) == pinned


@pytest.mark.parametrize("backend,wss_of_dram,scale", [
    pytest.param(*key, id=graph500_pin_id(key))
    for key in sorted(GRAPH500_PINS)
])
def test_graph500_matches_pin_and_reference(
    backend, wss_of_dram, scale, fifo_reference
):
    pinned = digest(graph500_outputs(backend, wss_of_dram, scale))
    assert pinned == GRAPH500_PINS[(backend, wss_of_dram, scale)]
    with fifo_reference():
        assert digest(graph500_outputs(backend, wss_of_dram, scale)) \
            == pinned


def side_effects(platform):
    """What a fault charges: the clock, used frames and the counters of
    the guest kernel (swap) or of the monitor and uffd (FluidMem)."""
    if platform.monitor is not None:
        frames = platform.monitor.ops.frames
        owners = (platform.monitor, platform.monitor.uffd)
    else:
        frames = platform.mm.frames
        owners = (platform.mm, platform.mm.swap)
    return (
        platform.env.now,
        frames.used_frames,
        tuple(counters(owner) for owner in owners),
    )


@pytest.mark.parametrize("backend,error", [
    ("fluidmem-dram", UffdError),
    ("swap-dram", ValueError),
])
def test_misaligned_address_through_driver_still_raises(backend, error):
    """The hit probe skips the alignment check: a misaligned address
    can only miss, and the port's miss body rejects it, with the error
    it always raised, before it charges the clock, takes a frame or
    counts a fault."""
    platform = build_platform(backend, memory_scale=MEMORY_SCALE, seed=SEED)
    driver = AccessDriver(platform.env, platform.port)
    base = platform.workload_base

    def access(vaddr):
        yield from driver.access(vaddr, is_write=True)

    platform.run(access(base))
    assert platform.port.is_resident(base)
    misaligned = base + PAGE_SIZE // 2
    hits, faults = driver.hits, driver.faults
    before = side_effects(platform)
    assert not driver.try_hit(misaligned)
    with pytest.raises(error, match="not page aligned"):
        platform.run(access(misaligned))
    assert (driver.hits, driver.faults) == (hits, faults)
    assert side_effects(platform) == before
