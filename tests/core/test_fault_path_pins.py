"""Seed-42 pins for the FluidMem fault path, retention caps included.

pmbench at the Fig 3 shape (working set 4x local DRAM, 50 % reads)
runs on each FluidMem backend.  Everything the fault path produces
hashes to a constant recorded before its statistics became appends and
its counters in-place updates: the per-access read and write samples,
hits and faults, the final clock, the monitor, userfaultfd, ioctl,
write-back and store counters (``as_dict()``, key order included), and
every profiler histogram's retained samples, exact statistics, bucket
counts and summary.  The same run under the ``FifoSchedule`` reference
must give it too.

One more RAMCloud cell runs observed, over a registry that retains 64
samples per histogram, and snapshots the registry once mid-run and once
at the end: every phase histogram crosses its cap, and the mirrored
counters are read while the run is live.  An in-place append that
skips the fold past the cap, or a mirrored total that drifts from its
component's count, changes the hash.
"""

import hashlib

import pytest

from repro.bench.platform import build_platform
from repro.core import CodePath, FluidMemConfig
from repro.obs import MetricsRegistry, Observability
from repro.workloads import Pmbench, PmbenchConfig

SEED = 42
MEMORY_SCALE = 1.0 / 1024
MEASURED_ACCESSES = 3_000
#: The paper's monitor: one fault handler, no prefetch.
PAPER_MONITOR = FluidMemConfig(fault_handlers=1, prefetch_pages=0)
#: The observed cell's retention cap and mid-run snapshot time (µs).
CAPPED_SAMPLES = 64
MID_RUN_US = 50_000.0

PINS = {
    "fluidmem-dram": (
        "cb2e5277bb4116c3594ec7ddf43ae6e1"
        "0e26c67bf377a8d74b56f28995f687ce"
    ),
    "fluidmem-ramcloud": (
        "40e498f317e2542e5207e367e146d538"
        "c6f1e13ddca6c9e2861e2d2dddda1316"
    ),
    "fluidmem-memcached": (
        "b01cfa18ee93ef9923fc7abbf0bd9eb9"
        "a430903b4a8edcd6cdcc2185444620c0"
    ),
}
CAPPED_PIN = (
    "6d5dbfac817ddf80de229f59487cfe9a"
    "2c4f8d65309fcc7f4d1acdb4c747f313"
)


def digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def recorder_state(recorder):
    return (
        recorder.samples, recorder.count, recorder.sum, recorder.mean,
        recorder.stdev, recorder.minimum, recorder.maximum,
    )


def profiler_state(profiler):
    state = []
    for path in CodePath:
        if profiler.has_samples(path):
            histogram = profiler.recorder(path)
            state.append((
                path.value, recorder_state(histogram),
                histogram.bucket_counts, histogram.summary(),
            ))
    return tuple(state)


def pmbench_cell(backend, obs=None):
    platform = build_platform(
        backend, memory_scale=MEMORY_SCALE, seed=SEED,
        fluidmem_config=PAPER_MONITOR, faults=None, obs=obs,
    )
    config = PmbenchConfig(
        wss_pages=platform.shape.wss_pages(4.0),
        read_ratio=0.5,
        measured_accesses=MEASURED_ACCESSES,
    )
    bench = Pmbench(
        platform.env, platform.port, platform.workload_base, config,
        rng=platform.streams.stream("pmbench"),
    )
    env = platform.env
    process = env.process(bench.run())
    snapshots = []
    if obs is not None:
        env.run(until=MID_RUN_US)
        assert process.is_alive
        snapshots.append(obs.registry.snapshot())
    env.run()
    if obs is not None:
        snapshots.append(obs.registry.snapshot())
    result = process.value
    monitor = platform.monitor
    outputs = (
        result.read_latency.samples,
        result.write_latency.samples,
        result.hits,
        result.faults,
        env.now,
        tuple(monitor.counters.as_dict().items()),
        tuple(monitor.uffd.counters.as_dict().items()),
        tuple(monitor.ops.counters.as_dict().items()),
        tuple(monitor.writeback.counters.as_dict().items()),
        tuple(platform.store.counters.as_dict().items()),
        profiler_state(monitor.profiler),
        recorder_state(monitor.fault_latency),
        tuple(snapshots),
    )
    return outputs, monitor


@pytest.mark.parametrize("backend", sorted(PINS))
def test_fault_path_matches_pin_and_reference(backend, fifo_reference):
    outputs, monitor = pmbench_cell(backend)
    assert monitor.counters["faults"] > MEASURED_ACCESSES // 2
    pinned = digest(outputs)
    assert pinned == PINS[backend]
    with fifo_reference():
        assert digest(pmbench_cell(backend)[0]) == pinned


def capped_cell():
    registry = MetricsRegistry(max_samples_per_histogram=CAPPED_SAMPLES)
    return pmbench_cell(
        "fluidmem-ramcloud", obs=Observability(registry=registry)
    )


def test_capped_observed_cell_matches_pin_and_reference(fifo_reference):
    outputs, monitor = capped_cell()
    # Every Table I phase the path takes crossed its retention cap.
    for path in CodePath.table1_paths():
        if path is CodePath.WRITE_PAGE:
            continue  # asynchronous write-back: no synchronous write
        histogram = monitor.profiler.recorder(path)
        assert len(histogram.samples) == CAPPED_SAMPLES
        assert histogram.count > CAPPED_SAMPLES
    pinned = digest(outputs)
    assert pinned == CAPPED_PIN
    with fifo_reference():
        assert digest(capped_cell()[0]) == pinned
