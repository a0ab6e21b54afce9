"""Test-platform builder: the six configurations of the evaluation.

§VI-A's testbed, as one factory: dual-socket hypervisor, FDR InfiniBand
fabric, a RAMCloud server (25 GB), a Memcached server over IPoIB, an
NVMeoF target exposing remote DRAM, and a local SSD.  The paper's six
memory configurations (Figure 3) are::

    fluidmem-dram        monitor evicting to a local DRAM table
    fluidmem-ramcloud    monitor evicting to RAMCloud over RDMA
    fluidmem-memcached   monitor evicting to Memcached over IPoIB
    swap-dram            guest swap on a local pmem block device
    swap-nvmeof          guest swap on an NVMeoF remote-DRAM target
    swap-ssd             guest swap on a local SSD

Every build takes a ``memory_scale``: the fraction of the paper's sizes
to use (1.0 = 1 GiB local DRAM, 4 GiB remote, 81 042 boot pages).  The
local:remote ratio, the boot-footprint share of DRAM, and all latency
constants are invariant under scaling, so the comparative results keep
their shape at a laptop-friendly 1/1024 scale.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Generator, Optional

from ..blockdev import BlockDevice, NvmeofDisk, PmemDisk, SsdDisk
from ..core import FluidMemConfig, FluidMemoryPort, Monitor, VmRegistration
from ..errors import BenchError
from ..faults import NAMED_PLANS, FaultyStore, named_plan
from ..kernel import (
    GuestMemoryManager,
    SwapPathLatency,
    UffdLatency,
    UffdOps,
    Userfaultfd,
)
from ..kv import (
    DramStore,
    KeyValueBackend,
    MemcachedServer,
    MemcachedStore,
    RamCloudServer,
    RamCloudStore,
    ReplicatedStore,
)
from ..mem import GIB, MIB, PAGE_SIZE, FrameAllocator
from ..net import Fabric, IPOIB, RDMA_FDR
from ..obs import NULL_OBS, Observability
from ..sim import Environment, RandomStreams
from ..vm import BootProfile, GuestVM, MemoryHotplug, QemuProcess, \
    SwapMemoryPort

__all__ = [
    "PLATFORM_NAMES",
    "FLUIDMEM_PLATFORMS",
    "SWAP_PLATFORMS",
    "PlatformShape",
    "Platform",
    "build_platform",
    "set_default_fault_plan",
    "default_fault_plan",
    "set_default_observability",
    "default_observability",
    "FAULT_REPLICAS",
]

#: Replicas a fault-injected platform spreads the store over; the
#: named plans keep at least one of them alive (except "blackout").
FAULT_REPLICAS = 2

#: Process-wide default fault plan name, set by the CLI's ``--faults``
#: so every build_platform() call inside an experiment runs under it.
_DEFAULT_FAULT_PLAN: Optional[str] = None


def set_default_fault_plan(name: Optional[str]) -> None:
    """Set (or clear, with None) the default fault plan for builds."""
    global _DEFAULT_FAULT_PLAN
    if name is not None and name not in NAMED_PLANS:
        raise BenchError(
            f"unknown fault plan {name!r}; choose from "
            f"{sorted(NAMED_PLANS)}"
        )
    _DEFAULT_FAULT_PLAN = name


def default_fault_plan() -> Optional[str]:
    return _DEFAULT_FAULT_PLAN


#: Process-wide default observability sink, set by the CLI's
#: ``--metrics`` / ``--trace`` so every build inside an experiment
#: feeds the same registry and tracer.
_DEFAULT_OBS: Observability = NULL_OBS


def set_default_observability(obs: Optional[Observability]) -> None:
    """Set (or clear, with None) the default observability for builds."""
    global _DEFAULT_OBS
    _DEFAULT_OBS = obs if obs is not None else NULL_OBS


def default_observability() -> Observability:
    return _DEFAULT_OBS

FLUIDMEM_PLATFORMS = (
    "fluidmem-dram",
    "fluidmem-ramcloud",
    "fluidmem-memcached",
)
SWAP_PLATFORMS = ("swap-dram", "swap-nvmeof", "swap-ssd")
PLATFORM_NAMES = FLUIDMEM_PLATFORMS + SWAP_PLATFORMS

#: The paper's full-size numbers (§VI-A / §VI-B).
PAPER_LOCAL_DRAM_BYTES = 1 * GIB
PAPER_REMOTE_BYTES = 4 * GIB
PAPER_SWAP_DEVICE_BYTES = 20 * GIB
PAPER_RAMCLOUD_BYTES = 25 * GIB


@dataclass(frozen=True)
class PlatformShape:
    """Concrete sizes after applying ``memory_scale``."""

    memory_scale: float
    local_dram_bytes: int
    remote_bytes: int
    swap_device_bytes: int
    boot_pages: int

    @classmethod
    def at_scale(
        cls, memory_scale: float, remote_factor: int = 4
    ) -> "PlatformShape":
        """``remote_factor`` x local of hotplugged remote memory (the
        paper uses 4; Figure 4's largest working set needs a little
        extra headroom because we enforce guest-physical bounds that
        the paper's 4.8 GiB-in-5 GiB configuration skirts)."""
        if not 0 < memory_scale <= 1.0:
            raise BenchError(
                f"memory_scale must be in (0, 1], got {memory_scale}"
            )
        if remote_factor < 1:
            raise BenchError(f"remote_factor must be >= 1: {remote_factor}")
        local = max(64 * PAGE_SIZE,
                    int(PAPER_LOCAL_DRAM_BYTES * memory_scale))
        local -= local % PAGE_SIZE
        return cls(
            memory_scale=memory_scale,
            local_dram_bytes=local,
            remote_bytes=remote_factor * local,
            swap_device_bytes=20 * local,
            boot_pages=max(16, int(81042 * memory_scale)),
        )

    @property
    def local_pages(self) -> int:
        return self.local_dram_bytes // PAGE_SIZE

    @property
    def total_vm_bytes(self) -> int:
        """1 GiB boot memory + 4 GiB hotplug at full scale."""
        return self.local_dram_bytes + self.remote_bytes

    def wss_pages(self, fraction_of_dram: float) -> int:
        """A working set sized relative to DRAM (Figure 4's x-axis)."""
        return max(1, int(self.local_pages * fraction_of_dram))


class Platform:
    """One built configuration, ready to run workloads."""

    def __init__(
        self,
        name: str,
        env: Environment,
        vm: GuestVM,
        shape: PlatformShape,
        port,
        monitor: Optional[Monitor] = None,
        mm: Optional[GuestMemoryManager] = None,
        store: Optional[KeyValueBackend] = None,
        swap_device: Optional[BlockDevice] = None,
        data_disk: Optional[BlockDevice] = None,
        registration: Optional[VmRegistration] = None,
        qemu: Optional[QemuProcess] = None,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.name = name
        self.env = env
        self.vm = vm
        self.shape = shape
        self.port = port
        self.monitor = monitor
        self.mm = mm
        self.store = store
        self.swap_device = swap_device
        self.data_disk = data_disk
        self.registration = registration
        self.qemu = qemu
        self.streams = streams

    @property
    def is_fluidmem(self) -> bool:
        return self.monitor is not None

    @property
    def workload_base(self) -> int:
        return self.vm.first_free_guest_addr()

    def run(self, generator: Generator):
        """Drive one simulation generator to completion."""
        process = self.env.process(generator)
        self.env.run()
        return process.value

    def boot(self) -> None:
        self.run(self.vm.boot())

    def drain_writebacks(self) -> None:
        if self.monitor is not None:
            self.run(self.monitor.writeback.drain())

    def __repr__(self) -> str:
        return f"<Platform {self.name!r} scale={self.shape.memory_scale}>"


def _build_fabric(env: Environment, streams: RandomStreams) -> Fabric:
    fabric = Fabric(env, streams)
    fabric.add_host("hypervisor")
    fabric.add_host("ramcloud")
    fabric.add_host("memcached")
    fabric.add_host("nvmeof-target")
    fabric.connect("hypervisor", "ramcloud", RDMA_FDR)
    fabric.connect("hypervisor", "nvmeof-target", RDMA_FDR)
    fabric.connect("hypervisor", "memcached", IPOIB)
    return fabric


def _make_store(
    name: str,
    env: Environment,
    fabric: Fabric,
    shape: PlatformShape,
) -> KeyValueBackend:
    if name == "fluidmem-dram":
        return DramStore(env)
    if name == "fluidmem-ramcloud":
        server = RamCloudServer(
            memory_bytes=max(
                int(PAPER_RAMCLOUD_BYTES * shape.memory_scale),
                8 * MIB + shape.remote_bytes,
            )
        )
        return RamCloudStore(env, fabric, "hypervisor", "ramcloud", server)
    if name == "fluidmem-memcached":
        server = MemcachedServer(
            memory_bytes=max(2 * MIB + 2 * shape.remote_bytes, 4 * MIB)
        )
        return MemcachedStore(env, fabric, "hypervisor", "memcached", server)
    raise BenchError(f"unknown FluidMem backend {name!r}")


#: Concurrent requests a swap device actually services in parallel (its
#: queue depth).  The target's engine largely serializes 4 KB requests;
#: 2 models a little pipelining.  A one-vCPU guest never fills it: it
#: has at most two swap I/Os in flight, kswapd's one batch write and the
#: fault's read or direct-reclaim write, so no request waits for a slot
#: (none did at seed 42 in pmbench at 1.5x, 4x or 8x DRAM on any swap
#: backend, nor in the Fig 4 and Fig 5 quick runs).
SWAP_DEVICE_CONCURRENCY = 2


def _make_swap_device(
    name: str,
    env: Environment,
    fabric: Fabric,
    shape: PlatformShape,
    streams: RandomStreams,
) -> BlockDevice:
    size = shape.swap_device_bytes
    if name == "swap-dram":
        return PmemDisk(env, size, streams.stream("swapdev"),
                        queue_depth=SWAP_DEVICE_CONCURRENCY)
    if name == "swap-nvmeof":
        return NvmeofDisk(
            env, size, streams.stream("swapdev"),
            fabric=fabric,
            initiator_host="hypervisor",
            target_host="nvmeof-target",
            queue_depth=SWAP_DEVICE_CONCURRENCY,
        )
    if name == "swap-ssd":
        return SsdDisk(env, size, streams.stream("swapdev"),
                       queue_depth=SWAP_DEVICE_CONCURRENCY)
    raise BenchError(f"unknown swap backend {name!r}")


def build_platform(
    name: str,
    memory_scale: float = 1.0 / 1024,
    seed: int = 42,
    boot: bool = True,
    with_data_disk: bool = False,
    fluidmem_config: Optional[FluidMemConfig] = None,
    boot_profile: Optional[BootProfile] = None,
    remote_factor: int = 4,
    faults: Optional[str] = None,
    obs: Optional[Observability] = None,
) -> Platform:
    """Build one of the six named configurations.

    ``with_data_disk`` attaches the SSD holding MongoDB's collection
    (only the Figure 5 experiment needs it).

    ``faults`` names a :data:`repro.faults.NAMED_PLANS` plan: the
    FluidMem store is then built as :data:`FAULT_REPLICAS` independent
    replicas, each behind a fault-injecting wrapper driven by that plan
    (seed-derived, so runs stay reproducible).  When None, the
    process-wide default from :func:`set_default_fault_plan` applies.
    Swap platforms have no store and ignore fault plans.

    ``obs`` threads an observability sink through the monitor, LRU
    buffer, write-back queue, and (chaos builds) the fault-injecting
    store wrappers.  When None, the process-wide default from
    :func:`set_default_observability` applies (disabled by default,
    so unobserved builds pay only cheap ``enabled`` checks).
    """
    if name not in PLATFORM_NAMES:
        raise BenchError(
            f"unknown platform {name!r}; choose from {PLATFORM_NAMES}"
        )
    shape = PlatformShape.at_scale(memory_scale, remote_factor=remote_factor)
    env = Environment()
    streams = RandomStreams(seed=seed)
    fabric = _build_fabric(env, streams)
    profile = boot_profile or BootProfile().scaled(memory_scale)

    data_disk = None
    if with_data_disk:
        data_disk = SsdDisk(
            env, max(64 * MIB, 8 * shape.local_dram_bytes),
            streams.stream("datadisk"),
        )

    if faults is None:
        faults = _DEFAULT_FAULT_PLAN
    if obs is None:
        obs = _DEFAULT_OBS
    if name in FLUIDMEM_PLATFORMS:
        return _build_fluidmem(
            name, env, streams, fabric, shape, profile, data_disk,
            fluidmem_config, boot, faults=faults, seed=seed, obs=obs,
        )
    return _build_swap(
        name, env, streams, fabric, shape, profile, data_disk, boot,
    )


def _make_faulty_store(
    name: str,
    env: Environment,
    fabric: Fabric,
    shape: PlatformShape,
    plan_name: str,
    seed: int,
    obs: Observability = NULL_OBS,
) -> KeyValueBackend:
    """The chaos configuration: N replicas, each behind a FaultyStore."""
    from ..sim import derive_seed

    plan = named_plan(plan_name, seed=derive_seed(seed, "bench-faults"))
    replicas = [
        FaultyStore(
            env,
            _make_store(name, env, fabric, shape),
            plan,
            node=f"replica{index}",
            obs=obs,
        )
        for index in range(FAULT_REPLICAS)
    ]
    return ReplicatedStore(env, replicas, obs=obs)


def _build_fluidmem(
    name: str,
    env: Environment,
    streams: RandomStreams,
    fabric: Fabric,
    shape: PlatformShape,
    profile: BootProfile,
    data_disk: Optional[BlockDevice],
    config: Optional[FluidMemConfig],
    boot: bool,
    faults: Optional[str] = None,
    seed: int = 42,
    obs: Observability = NULL_OBS,
) -> Platform:
    uffd = Userfaultfd(env, UffdLatency(), streams.stream("uffd"))
    # Host DRAM: local budget + generous headroom for monitor buffers.
    host_frames = FrameAllocator(shape.local_pages * 4 + 4096)
    ops = UffdOps(env, UffdLatency(), streams.stream("ops"), host_frames)
    if config is None:
        config = FluidMemConfig(lru_capacity_pages=shape.local_pages)
    else:
        # Keep every caller knob; only the LRU budget is the shape's.
        config = dataclasses.replace(
            config, lru_capacity_pages=shape.local_pages
        )
    monitor = Monitor(env, uffd, ops, config=config,
                      rng=streams.stream("monitor"), name=name, obs=obs)
    monitor.start()

    # "The VM was created with [local] memory, but ... an additional
    # 4 GB of hotplug memory was added" (§VI-B), all registered.
    vm = GuestVM(env, name, memory_bytes=shape.local_dram_bytes,
                 boot_profile=profile)
    qemu = QemuProcess(vm)
    if faults is not None:
        store = _make_faulty_store(
            name, env, fabric, shape, faults, seed, obs=obs
        )
    else:
        store = _make_store(name, env, fabric, shape)
    registration = monitor.register_vm(qemu, store)
    hotplug = MemoryHotplug(qemu)
    slot = hotplug.add_memory(shape.remote_bytes)
    monitor.register_region(registration, slot.host_region)
    # The guest now believes it has local+remote bytes of RAM.
    vm.memory_bytes = shape.total_vm_bytes

    port = FluidMemoryPort(env, vm, qemu, monitor, registration)
    vm.attach_port(port)
    platform = Platform(
        name, env, vm, shape, port,
        monitor=monitor, store=store, data_disk=data_disk,
        registration=registration, qemu=qemu, streams=streams,
    )
    if boot:
        platform.boot()
        platform.drain_writebacks()
    return platform


def _build_swap(
    name: str,
    env: Environment,
    streams: RandomStreams,
    fabric: Fabric,
    shape: PlatformShape,
    profile: BootProfile,
    data_disk: Optional[BlockDevice],
    boot: bool,
) -> Platform:
    swap_device = _make_swap_device(name, env, fabric, shape, streams)
    # §VI-D2: "vm.swappiness and disk readahead were set to 100 and 0"
    # — readahead off means page_cluster=1 (no speculative swap-ins).
    mm = GuestMemoryManager(
        env,
        streams.stream("guest-mm"),
        dram_bytes=shape.local_dram_bytes,
        latency=SwapPathLatency(page_cluster=1),
        swap_device=swap_device,
        data_disk=data_disk,
        swappiness=100,
    )
    vm = GuestVM(env, name, memory_bytes=shape.local_dram_bytes,
                 boot_profile=profile)
    port = SwapMemoryPort(mm)
    vm.attach_port(port)
    platform = Platform(
        name, env, vm, shape, port,
        mm=mm, swap_device=swap_device, data_disk=data_disk,
        streams=streams,
    )
    if boot:
        platform.boot()
    return platform
