"""Root conftest: the shared FluidMem stack builder and fixtures.

Every suite that needs a wired-up stack (env + uffd + ops + monitor +
fabric) gets it from here — either by importing :func:`build_stack`
directly (for module-level helpers that customize the config) or via
the ``stack`` / ``stack_factory`` fixtures.  The ``fifo_reference``
fixture gives the determinism pins their reference run, and
:func:`repeat_runs` gives the run-body tests their repeat-heavy access
lists.
"""

import contextlib

import pytest
from hypothesis import strategies as st

from repro.check.explorer import FifoSchedule
from repro.core import FluidMemConfig, FluidMemoryPort, Monitor
from repro.kernel import UffdLatency, UffdOps, Userfaultfd
from repro.kv import DramStore, RamCloudServer, RamCloudStore
from repro.mem import MIB, FrameAllocator
from repro.net import Fabric, RDMA_FDR
from repro.sim import Environment, RandomStreams
from repro.vm import BootProfile, GuestVM, QemuProcess


class Stack:
    """Bundle of everything the core tests need."""

    def __init__(self, env, uffd, ops, monitor, fabric):
        self.env = env
        self.uffd = uffd
        self.ops = ops
        self.monitor = monitor
        self.fabric = fabric

    def run(self, gen):
        proc = self.env.process(gen)
        self.env.run()
        return proc.value

    def make_dram_store(self):
        return DramStore(self.env)

    def make_ramcloud_store(self, table_id=1):
        server = RamCloudServer(memory_bytes=64 * MIB)
        return RamCloudStore(
            self.env, self.fabric, "hypervisor", "kv-server", server,
            table_id=table_id,
        )

    def make_vm(self, memory_mib=32, boot_pages=0, lru_pages=None,
                store=None, name="vm", partition_lease=None):
        """A FluidMem-backed VM, optionally booted."""
        vm = GuestVM(
            self.env,
            name,
            memory_bytes=memory_mib * MIB,
            boot_profile=BootProfile(total_pages=max(4, boot_pages or 4)),
        )
        qemu = QemuProcess(vm)
        store = store or self.make_dram_store()
        registration = self.monitor.register_vm(
            qemu, store, partition_lease=partition_lease
        )
        port = FluidMemoryPort(self.env, vm, qemu, self.monitor,
                               registration)
        vm.attach_port(port)
        if lru_pages is not None:
            self.monitor.set_lru_capacity(lru_pages)
        if boot_pages:
            self.run(vm.boot())
        return vm, qemu, port, registration


def build_stack(config=None, host_dram_mib=256, seed=7, obs=None,
                check=None):
    env = Environment()
    streams = RandomStreams(seed=seed)
    fabric = Fabric(env, streams)
    fabric.add_host("hypervisor")
    fabric.add_host("kv-server")
    fabric.connect("hypervisor", "kv-server", RDMA_FDR)
    uffd = Userfaultfd(env, UffdLatency(), streams.stream("uffd"))
    ops = UffdOps(
        env, UffdLatency(), streams.stream("ops"),
        FrameAllocator.for_bytes(host_dram_mib * MIB),
    )
    monitor = Monitor(
        env, uffd, ops,
        config=config or FluidMemConfig(lru_capacity_pages=64),
        rng=streams.stream("monitor"),
        obs=obs,
        check=check,
    )
    monitor.start()
    return Stack(env, uffd, ops, monitor, fabric)


@pytest.fixture
def stack():
    """A default stack (64-page LRU, DRAM-class store on demand)."""
    return build_stack()


@pytest.fixture
def stack_factory():
    """The :func:`build_stack` callable, for tests that need a custom
    config, seed, observability, or checker."""
    return build_stack


@pytest.fixture
def fifo_reference(monkeypatch):
    """A context manager that installs :class:`FifoSchedule` on every
    :class:`Environment` built inside it: the reference run.

    Any schedule policy turns every engine fast path off, and FIFO
    keeps the engine's native event order, so a seeded run inside the
    context must reproduce the no-scheduler run byte for byte.
    """
    init = Environment.__init__

    def init_with_fifo(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.scheduler = FifoSchedule()

    @contextlib.contextmanager
    def installed():
        with monkeypatch.context() as patch:
            patch.setattr(Environment, "__init__", init_with_fifo)
            yield

    return installed


def repeat_runs(addresses):
    """Access lists made of runs of one address each: one to eight runs,
    each an address drawn from ``addresses`` two to six times in a row,
    each access with its own write flag, as ``(vaddr, is_write)``
    pairs."""
    runs = st.lists(
        st.tuples(addresses, st.lists(st.booleans(), min_size=2,
                                      max_size=6)),
        min_size=1,
        max_size=8,
    )
    return runs.map(lambda drawn: [
        (vaddr, write) for vaddr, flags in drawn for write in flags
    ])
