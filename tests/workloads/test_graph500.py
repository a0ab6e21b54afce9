"""Tests for the Kronecker generator and traced BFS."""

import numpy as np
import pytest

from repro.bench.fig4_graph500 import memory_scale_for
from repro.bench.platform import build_platform
from repro.errors import WorkloadError
from repro.mem import PAGE_SIZE, PageKind
from repro.vm import MemoryPort
from repro.workloads import (
    AccessDriver,
    Graph500,
    Graph500Config,
    KroneckerGraph,
    generate_kronecker_edges,
)
from repro.workloads.graph500 import PARENT_BYTES, VISITED_BYTES, XADJ_BYTES

from .conftest import make_fluidmem_world


def test_generator_shape_and_range():
    rng = np.random.default_rng(0)
    edges = generate_kronecker_edges(scale=8, edgefactor=4, rng=rng)
    assert edges.shape == (4 * 256, 2)
    assert edges.min() >= 0
    assert edges.max() < 256


def test_generator_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(WorkloadError):
        generate_kronecker_edges(0, 4, rng)
    with pytest.raises(WorkloadError):
        generate_kronecker_edges(4, 0, rng)


def test_generator_skewed_degrees():
    """R-MAT graphs have heavy-tailed degree distributions."""
    graph = KroneckerGraph(scale=10, edgefactor=8, seed=3)
    degrees = np.diff(graph.xadj)
    assert degrees.max() > 8 * degrees.mean()


def test_csr_consistency():
    graph = KroneckerGraph(scale=7, edgefactor=4, seed=1)
    assert graph.xadj[0] == 0
    assert graph.xadj[-1] == len(graph.adjacency)
    assert (np.diff(graph.xadj) >= 0).all()
    # Undirected: every edge appears in both directions.
    for v in range(0, graph.num_vertices, 13):
        for w in graph.neighbors(v):
            assert v in graph.neighbors(int(w))


def test_csr_has_no_self_loops():
    graph = KroneckerGraph(scale=7, edgefactor=4, seed=2)
    for v in range(graph.num_vertices):
        assert v not in graph.neighbors(v)


def test_bfs_tree_validates():
    """The traced BFS produces a valid BFS tree (Graph500 validation)."""
    world = make_fluidmem_world(lru_pages=4096, vm_mib=128)
    config = Graph500Config(scale=7, edgefactor=4, num_bfs_roots=1, seed=2)
    bench = Graph500(world.env, world.port, world.base_addr, config)

    def gen(env):
        yield from bench.load_graph()
        from repro.workloads.driver import AccessDriver
        driver = AccessDriver(env, world.port)
        root = bench.pick_roots()[0]
        edges, parent = yield from bench.bfs(root, driver)
        return root, edges, parent

    root, edges, parent = world.run(gen(world.env))
    assert edges > 0
    assert bench.validate_bfs(root, parent)


def test_bfs_distances_match_networkx():
    networkx = pytest.importorskip("networkx")
    world = make_fluidmem_world(lru_pages=4096, vm_mib=128)
    config = Graph500Config(scale=6, edgefactor=4, num_bfs_roots=1, seed=4)
    bench = Graph500(world.env, world.port, world.base_addr, config)
    graph = bench.graph

    nx_graph = networkx.Graph()
    nx_graph.add_nodes_from(range(graph.num_vertices))
    for v in range(graph.num_vertices):
        for w in graph.neighbors(v):
            nx_graph.add_edge(v, int(w))

    def gen(env):
        yield from bench.load_graph()
        from repro.workloads.driver import AccessDriver
        driver = AccessDriver(env, world.port)
        root = bench.pick_roots()[0]
        _edges, parent = yield from bench.bfs(root, driver)
        return root, parent

    root, parent = world.run(gen(world.env))
    reachable_model = set(
        networkx.single_source_shortest_path_length(nx_graph, root)
    )
    reachable_ours = {v for v in range(graph.num_vertices)
                      if parent[v] != -1}
    assert reachable_ours == reachable_model


def test_full_run_reports_teps():
    world = make_fluidmem_world(lru_pages=4096, vm_mib=128)
    config = Graph500Config(scale=7, edgefactor=4, num_bfs_roots=2, seed=5)
    bench = Graph500(world.env, world.port, world.base_addr, config)
    result = world.run(bench.run())
    assert len(result.teps) == 2
    assert result.harmonic_mean_teps > 0
    assert result.mean_teps_millions > 0


def test_teps_degrades_with_less_local_memory():
    """The Figure 4 mechanism: less DRAM -> remote faults -> lower TEPS."""
    # Scale 10 x edgefactor 8 -> ~40 traced pages of CSR arrays; a
    # 24-page budget forces remote faults, 8192 keeps it all local.
    config = Graph500Config(scale=10, edgefactor=8, num_bfs_roots=1, seed=6)

    big = make_fluidmem_world(lru_pages=8192, vm_mib=128)
    bench_big = Graph500(big.env, big.port, big.base_addr, config)
    fast = big.run(bench_big.run())

    small = make_fluidmem_world(lru_pages=24, vm_mib=128)
    bench_small = Graph500(small.env, small.port, small.base_addr, config)
    slow = small.run(bench_small.run())

    assert fast.harmonic_mean_teps > 2 * slow.harmonic_mean_teps


def test_config_validation():
    with pytest.raises(WorkloadError):
        Graph500Config(num_bfs_roots=0)


def test_memory_bytes_accounting():
    graph = KroneckerGraph(scale=8, edgefactor=4, seed=0)
    expected = (257 * 8) + len(graph.adjacency) * 8 + 256 * 9
    # scale 8 -> 256 vertices... num_vertices is 256.
    expected = (graph.num_vertices + 1) * 8 \
        + len(graph.adjacency) * 8 + graph.num_vertices * 9
    assert graph.memory_bytes() == expected


# ------------------------------------------------------ BFS access order

def reference_bfs(bench, root, driver, slot=0):
    """``Graph500.bfs`` as it was before a vertex's accesses became one
    run: one ``try_hit`` (or ``access``) per traced array element, in
    traversal order.  The reference the run-built trace must match."""
    graph = bench.graph
    try_hit = driver.try_hit
    access = driver.access
    xadj = graph.xadj
    adjacency = graph.adjacency
    adj_pages = bench._adj_pages
    page_mask = ~(PAGE_SIZE - 1)
    xadj_base = bench.xadj_base
    visited_base = bench.visited_bases[slot]
    parent_base = bench.parent_bases[slot]

    parent = [-1] * graph.num_vertices
    parent[root] = root
    yield from access((parent_base + root * PARENT_BYTES) & page_mask,
                      is_write=True)
    yield from access((visited_base + root * VISITED_BYTES) & page_mask,
                      is_write=True)

    frontier = [root]
    edges_traversed = 0
    while frontier:
        next_frontier = []
        for vertex in frontier:
            start = int(xadj[vertex])
            end = int(xadj[vertex + 1])
            page = (xadj_base + vertex * XADJ_BYTES) & page_mask
            if not try_hit(page):
                yield from access(page)
            for page in adj_pages(start, end):
                if not try_hit(page):
                    yield from access(page)
            for neighbor in adjacency[start:end].tolist():
                edges_traversed += 1
                page = (visited_base + neighbor * VISITED_BYTES) \
                    & page_mask
                if not try_hit(page):
                    yield from access(page)
                if parent[neighbor] == -1:
                    parent[neighbor] = vertex
                    page = (parent_base + neighbor * PARENT_BYTES) \
                        & page_mask
                    if not try_hit(page, is_write=True):
                        yield from access(page, is_write=True)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return edges_traversed, np.array(parent, dtype=np.int64)


class RecordingPort(MemoryPort):
    """Passes every call through to ``inner`` unchanged and logs each
    page access it sees: (guest page, write flag, hit, clock)."""

    def __init__(self, env, inner):
        self.env = env
        self.inner = inner
        self.log = []

    def _note(self, vaddr, is_write, hit):
        self.log.append((vaddr, bool(is_write), hit, self.env.now))

    def is_resident(self, vaddr):
        return self.inner.is_resident(vaddr)

    def try_touch(self, vaddr, is_write=False):
        hit = self.inner.try_touch(vaddr, is_write)
        self._note(vaddr, is_write, hit)
        return hit

    def touch_run(self, vaddrs, writes, start, stop):
        done = self.inner.touch_run(vaddrs, writes, start, stop)
        for index in range(start, done):
            self._note(vaddrs[index], writes[index], True)
        return done

    def touch(self, vaddr, is_write=False):
        self.inner.touch(vaddr, is_write)
        self._note(vaddr, is_write, True)

    def try_access(self, vaddr, is_write=False, kind=PageKind.ANONYMOUS):
        hit = self.inner.try_access(vaddr, is_write, kind)
        self._note(vaddr, is_write, hit)
        return hit

    def fault(self, vaddr, is_write=False, kind=PageKind.ANONYMOUS):
        self._note(vaddr, is_write, False)
        return (yield from self.inner.fault(vaddr, is_write, kind))

    def note_hit_run(self, count):
        self.inner.note_hit_run(count)

    @property
    def resident_capacity(self):
        return self.inner.resident_capacity

    @property
    def resident_pages(self):
        return self.inner.resident_pages


ORDER_SCALE = 10


def traced_bfs_run(backend, wss_of_dram, bfs):
    """Graph500.run's steps, with each root's parent array kept, behind
    a recording port; ``bfs`` is the traversal under test."""
    graph = KroneckerGraph(ORDER_SCALE, 16, seed=42)
    platform = build_platform(
        backend, memory_scale=memory_scale_for(graph, wss_of_dram),
        seed=42, remote_factor=6,
    )
    port = RecordingPort(platform.env, platform.port)
    bench = Graph500(
        platform.env, port, platform.workload_base,
        Graph500Config(scale=ORDER_SCALE, edgefactor=16, num_bfs_roots=2,
                       seed=42),
        graph=graph,
    )

    def run():
        yield from bench.load_graph()
        driver = AccessDriver(bench.env, port, rng=bench._rng)
        trees = []
        for index, root in enumerate(bench.pick_roots()):
            edges, parent = yield from bfs(bench, root, driver, index % 2)
            yield from driver.flush()
            trees.append((root, edges, parent))
        return trees

    trees = platform.run(run())
    return bench, trees, port.log


@pytest.mark.parametrize("backend,wss_of_dram", [
    ("fluidmem-dram", 0.6),
    ("swap-dram", 0.6),
    ("fluidmem-ramcloud", 3.0),
    ("swap-nvmeof", 3.0),
])
def test_bfs_accesses_pages_in_the_reference_order(backend, wss_of_dram):
    """Each vertex's run-built trace makes the same port calls, page
    for page, with the same write flags, hits and misses, at the same
    simulated instants as the per-element loop, and both traversals
    give the same valid BFS trees."""
    _bench, expected, expected_log = traced_bfs_run(
        backend, wss_of_dram, reference_bfs
    )
    bench, trees, log = traced_bfs_run(
        backend, wss_of_dram, lambda b, *args: b.bfs(*args)
    )
    assert log == expected_log
    assert any(not hit for _page, _write, hit, _now in log)
    assert len(trees) == len(expected) == 2
    for (root, edges, parent), (root_ref, edges_ref, parent_ref) in zip(
        trees, expected
    ):
        assert (root, edges) == (root_ref, edges_ref)
        assert np.array_equal(parent, parent_ref)
        assert bench.validate_bfs(root, parent)
