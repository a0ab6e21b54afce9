"""Tests for GuestVM, BootProfile, QemuProcess, hotplug, balloon."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import VmError
from repro.kernel import GuestMemoryManager
from repro.mem import GIB, MIB, PAGE_SIZE, MemoryRegion, PageKind
from repro.sim import Environment
from repro.vm import (
    BALLOON_FLOOR_PAGES,
    BalloonDriver,
    BootProfile,
    GuestVM,
    MemoryHotplug,
    PAPER_BOOT_PAGES,
    QemuProcess,
    SwapMemoryPort,
)
from tests.conftest import repeat_runs


def run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


@pytest.fixture
def env():
    return Environment()


# -------------------------------------------------------------- BootProfile

def test_default_profile_matches_paper():
    profile = BootProfile()
    assert profile.total_pages == PAPER_BOOT_PAGES
    # 81042 pages = 316.57 MB, Table III row 1.
    assert profile.total_pages * PAGE_SIZE / (1024 * 1024) == pytest.approx(
        316.57, abs=0.5
    )


def test_profile_fractions_validated():
    with pytest.raises(VmError):
        BootProfile(kernel_fraction=0.9)  # sums > 1


def test_profile_scaling():
    small = BootProfile().scaled(0.01)
    assert small.total_pages == int(PAPER_BOOT_PAGES * 0.01)
    with pytest.raises(VmError):
        BootProfile().scaled(0)


def test_profile_pages_mix():
    profile = BootProfile(total_pages=1000)
    pages = list(profile.pages(0x1000000))
    assert len(pages) == 1000
    kinds = [kind for _v, kind, _m in pages]
    assert kinds.count(PageKind.KERNEL) == 220
    assert kinds.count(PageKind.FILE_BACKED) == 450
    mlocked = [m for _v, _k, m in pages if m]
    assert len(mlocked) == 30
    # Addresses are distinct and aligned.
    addrs = [v for v, _k, _m in pages]
    assert len(set(addrs)) == 1000
    assert all(a % PAGE_SIZE == 0 for a in addrs)


# ------------------------------------------------------------------ GuestVM

def make_swap_vm(env, dram_pages=2048, boot_pages=600):
    vm = GuestVM(
        env,
        "test-vm",
        memory_bytes=dram_pages * PAGE_SIZE,
        boot_profile=BootProfile(total_pages=boot_pages),
    )
    mm = GuestMemoryManager(
        env, random.Random(0), dram_bytes=dram_pages * PAGE_SIZE
    )
    vm.attach_port(SwapMemoryPort(mm))
    return vm, mm


def test_vm_validation(env):
    with pytest.raises(VmError):
        GuestVM(env, "x", memory_bytes=100)
    with pytest.raises(VmError):
        GuestVM(env, "x", vcpus=0)


def test_boot_populates_footprint(env):
    vm, mm = make_swap_vm(env)
    run(env, vm.boot())
    assert vm.booted
    assert mm.resident_pages == 600
    assert len(vm.boot_page_addresses()) == 600


def test_boot_requires_port(env):
    vm = GuestVM(env, "x", memory_bytes=64 * MIB)
    with pytest.raises(VmError):
        vm.require_port()


def test_double_boot_rejected(env):
    vm, _mm = make_swap_vm(env)
    run(env, vm.boot())

    def again(env):
        yield from vm.boot()

    env.process(again(env))
    with pytest.raises(VmError):
        env.run()


def test_boot_footprint_must_fit(env):
    vm, _ = make_swap_vm(env, dram_pages=256, boot_pages=600)
    env.process(vm.boot())
    with pytest.raises(VmError):
        env.run()


def test_mlocked_boot_pages_marked(env):
    vm, mm = make_swap_vm(env)
    run(env, vm.boot())
    mlocked = [
        pte.page
        for _vaddr, pte in mm.table.items()
        if pte.page.mlocked
    ]
    assert len(mlocked) == int(600 * 0.03)


def test_os_working_set_spreads(env):
    vm, _ = make_swap_vm(env)
    run(env, vm.boot())
    ws = vm.os_working_set(100)
    assert len(ws) == 100
    assert len(set(ws)) == 100
    with pytest.raises(VmError):
        vm.os_working_set(10_000)


def test_os_working_set_requires_boot(env):
    vm, _ = make_swap_vm(env)
    with pytest.raises(VmError):
        vm.os_working_set(10)


# ---------------------------------------------------------- SwapMemoryPort

def booted_swap_port():
    """A booted 64-page swap VM: its 16 boot pages are resident."""
    env = Environment()
    vm, mm = make_swap_vm(env, dram_pages=64, boot_pages=16)
    run(env, vm.boot())
    return vm.port, mm


def swap_marks(mm):
    return sorted(
        (vaddr, pte.page.referenced, pte.page.dirty, pte.page.version)
        for vaddr, pte in mm.table.items()
    )


#: Guest addresses for the swap port's run: pages around its 16 boot
#: pages (guest pages 4-19), and misaligned and negative addresses.
SWAP_RUN_ADDRESSES = st.one_of(
    st.integers(-2, 20).map(lambda page: page * PAGE_SIZE),
    st.integers(-PAGE_SIZE, 20 * PAGE_SIZE),
)


@settings(max_examples=60, deadline=None)
@given(
    accesses=st.one_of(
        st.lists(st.tuples(SWAP_RUN_ADDRESSES, st.booleans()), max_size=30),
        repeat_runs(st.one_of(
            st.integers(4, 19).map(lambda page: page * PAGE_SIZE),
            SWAP_RUN_ADDRESSES,
        )),
    ),
    data=st.data(),
)
def test_swap_port_touch_run_equals_try_touch_per_access(accesses, data):
    """The swap port's run body (the guest page table's) marks what
    ``try_touch`` per access marks and stops at its first miss,
    misaligned and negative addresses included; half the access lists
    are runs of one repeated address, a boot page in most runs, writes
    among the repeats."""
    vaddrs = [vaddr for vaddr, _write in accesses]
    writes = [write for _vaddr, write in accesses]
    start = data.draw(st.integers(0, len(vaddrs)), label="start")
    # Drawn back from the end: hypothesis favours small draws, and a
    # run that stops where it starts exercises nothing.
    stop = len(vaddrs) - data.draw(
        st.integers(0, len(vaddrs) - start), label="short of the end"
    )
    run_port, run_mm = booted_swap_port()
    loop_port, loop_mm = booted_swap_port()
    assert run_port.touch_run.__self__ is run_mm.table
    index = start
    while index < stop and loop_port.try_touch(vaddrs[index], writes[index]):
        index += 1
    assert run_port.touch_run(vaddrs, writes, start, stop) == index
    assert swap_marks(run_mm) == swap_marks(loop_mm)


# ------------------------------------------------------------- QemuProcess

def test_qemu_translation_roundtrip(env):
    vm = GuestVM(env, "x", memory_bytes=64 * MIB)
    qemu = QemuProcess(vm)
    host = qemu.guest_to_host(0)
    assert qemu.host_to_guest(host) == 0
    host2 = qemu.guest_to_host(5 * PAGE_SIZE)
    assert host2 - host == 5 * PAGE_SIZE


def test_qemu_translation_bounds(env):
    vm = GuestVM(env, "x", memory_bytes=64 * MIB)
    qemu = QemuProcess(vm)
    with pytest.raises(VmError):
        qemu.guest_to_host(64 * MIB)
    with pytest.raises(VmError):
        qemu.guest_to_host(-1)
    with pytest.raises(VmError):
        qemu.host_to_guest(0x1000)


def test_qemu_pids_unique(env):
    vm = GuestVM(env, "x", memory_bytes=64 * MIB)
    a, b = QemuProcess(vm), QemuProcess(vm)
    assert a.pid != b.pid


# ------------------------------------------------------------ MemoryHotplug

def test_hotplug_extends_guest_memory(env):
    vm = GuestVM(env, "x", memory_bytes=1 * GIB)
    qemu = QemuProcess(vm)
    hotplug = MemoryHotplug(qemu)
    slot = hotplug.add_memory(4 * GIB)
    assert slot.num_pages == 4 * GIB // PAGE_SIZE
    assert slot.guest_phys_start == 1 * GIB
    assert hotplug.total_guest_bytes == 5 * GIB
    assert qemu.total_ram_pages == 5 * GIB // PAGE_SIZE
    # Translation now reaches into the hotplugged region.
    host = qemu.guest_to_host(1 * GIB)
    assert host == slot.host_region.start


def test_linear_ram_covers_regions_laid_out_back_to_back(env):
    """``linear_ram_bytes`` is the guest RAM whose host address is
    ``ram_base`` plus the guest address: it grows with each hotplugged
    region placed right after the last one, and stops growing at the
    first region placed apart."""
    vm = GuestVM(env, "x", memory_bytes=16 * MIB)
    qemu = QemuProcess(vm)
    hotplug = MemoryHotplug(qemu)
    assert qemu.linear_ram_bytes == 16 * MIB
    hotplug.add_memory(8 * MIB)
    assert qemu.linear_ram_bytes == 24 * MIB
    qemu.address_space.add(MemoryRegion(qemu.ram_base + 24 * MIB, PAGE_SIZE))
    apart = hotplug.add_memory(4 * MIB)
    assert apart.host_region.start == qemu.ram_base + 24 * MIB + PAGE_SIZE
    hotplug.add_memory(4 * MIB)
    assert qemu.linear_ram_bytes == 24 * MIB
    for guest in (0, 16 * MIB, 24 * MIB - PAGE_SIZE, 24 * MIB, 30 * MIB):
        linear = guest < qemu.linear_ram_bytes
        assert (qemu.guest_to_host(guest) == qemu.ram_base + guest) \
            == linear


def test_hotplug_slot_limit(env):
    vm = GuestVM(env, "x", memory_bytes=64 * MIB)
    hotplug = MemoryHotplug(QemuProcess(vm), max_slots=2)
    hotplug.add_memory(16 * MIB)
    hotplug.add_memory(16 * MIB)
    with pytest.raises(VmError):
        hotplug.add_memory(16 * MIB)


def test_hotplug_size_validated(env):
    vm = GuestVM(env, "x", memory_bytes=64 * MIB)
    hotplug = MemoryHotplug(QemuProcess(vm))
    with pytest.raises(VmError):
        hotplug.add_memory(100)


# ------------------------------------------------------------ BalloonDriver

def test_balloon_takes_only_free_frames(env):
    mm = GuestMemoryManager(env, random.Random(0),
                            dram_bytes=1000 * PAGE_SIZE)
    for i in range(400):
        mm.populate_resident(0x100000 + i * PAGE_SIZE)
    balloon = BalloonDriver(mm, floor_pages=100)
    taken = balloon.inflate(10_000)
    # 600 were free; floor of 100 total footprint is below used count,
    # so the balloon stops when free frames are gone.
    assert taken == 600
    assert mm.frames.free_frames == 0


def test_balloon_respects_floor(env):
    mm = GuestMemoryManager(env, random.Random(0),
                            dram_bytes=1000 * PAGE_SIZE)
    balloon = BalloonDriver(mm, floor_pages=300)
    taken = balloon.inflate(10_000)
    assert taken == 700
    assert balloon.guest_footprint_pages == 300


def test_balloon_deflate_returns_memory(env):
    mm = GuestMemoryManager(env, random.Random(0),
                            dram_bytes=100 * PAGE_SIZE)
    balloon = BalloonDriver(mm, floor_pages=10)
    balloon.inflate(50)
    released = balloon.deflate(20)
    assert released == 20
    assert balloon.inflated_pages == 30
    assert mm.frames.free_frames == 70


def test_balloon_floor_matches_paper():
    assert BALLOON_FLOOR_PAGES == 20480
    env = Environment()
    mm = GuestMemoryManager(env, random.Random(0),
                            dram_bytes=30000 * PAGE_SIZE)
    balloon = BalloonDriver(mm)
    assert balloon.max_reachable_footprint_mib() == pytest.approx(80.0)


def test_balloon_validation(env):
    mm = GuestMemoryManager(env, random.Random(0),
                            dram_bytes=100 * PAGE_SIZE)
    with pytest.raises(VmError):
        BalloonDriver(mm, floor_pages=0)
    balloon = BalloonDriver(mm, floor_pages=1)
    with pytest.raises(VmError):
        balloon.inflate(-1)
    with pytest.raises(VmError):
        balloon.deflate(-1)
