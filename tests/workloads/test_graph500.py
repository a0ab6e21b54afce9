"""Tests for the Kronecker generator and traced BFS."""

import numpy as np
import pytest

from repro.bench.fig4_graph500 import memory_scale_for
from repro.bench.platform import build_platform
from repro.core import FluidMemConfig
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
import repro.workloads.graph500 as graph500_module
from repro.workloads.graph500 import (
    ADJ_BYTES,
    PARENT_BYTES,
    VISITED_BYTES,
    XADJ_BYTES,
)

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

def adjacency_pages(bench, start, end):
    """The pages that adjacency elements ``start`` to ``end - 1`` live
    on, in address order."""
    return sorted({(bench.adj_base + edge * ADJ_BYTES) & ~(PAGE_SIZE - 1)
                   for edge in range(start, end)})


def reference_bfs(bench, root, driver, slot=0):
    """``Graph500.bfs`` as it was before a vertex's accesses became one
    run: one ``try_hit`` (or ``access``) per traced array element, in
    traversal order.  The reference the run-built trace must match."""
    graph = bench.graph
    try_hit = driver.try_hit
    access = driver.access
    xadj = graph.xadj
    adjacency = graph.adjacency
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
            for page in adjacency_pages(bench, start, end):
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
    page access it sees: (guest page, write flag, hit, clock).  It also
    counts the runs a FluidMem port retires through its ``try_touch``
    per access rather than its page table's run body."""

    def __init__(self, env, inner):
        self.env = env
        self.inner = inner
        self.log = []
        self.per_access_runs = 0

    def _note(self, vaddr, is_write, hit):
        self.log.append((vaddr, bool(is_write), hit, self.env.now))

    def is_resident(self, vaddr):
        return self.inner.is_resident(vaddr)

    def try_touch(self, vaddr, is_write=False):
        hit = self.inner.try_touch(vaddr, is_write)
        self._note(vaddr, is_write, hit)
        return hit

    def touch_run(self, vaddrs, writes, start, stop):
        monitor = getattr(self.inner, "monitor", None)
        if monitor is not None and (
            monitor._prefetched_addrs or monitor.lru.reorder_on_access
        ):
            self.per_access_runs += 1
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


def traced_bfs_run(backend, wss_of_dram, bfs, config=None):
    """Graph500.run's steps, with each root's parent array kept, behind
    a recording port; ``bfs`` is the traversal under test and
    ``config`` the FluidMem monitor's (the platform's default when
    None)."""
    graph = KroneckerGraph(ORDER_SCALE, 16, seed=42)
    platform = build_platform(
        backend, memory_scale=memory_scale_for(graph, wss_of_dram),
        seed=42, remote_factor=6, fluidmem_config=config,
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
    return bench, trees, port


@pytest.mark.parametrize("backend,wss_of_dram,config", [
    pytest.param("fluidmem-dram", 0.6, None, id="fluidmem-dram-0.6"),
    pytest.param("swap-dram", 0.6, None, id="swap-dram-0.6"),
    pytest.param("fluidmem-ramcloud", 3.0, None, id="fluidmem-ramcloud-3.0"),
    pytest.param("swap-nvmeof", 3.0, None, id="swap-nvmeof-3.0"),
    # FluidMemoryPort.touch_run's per-access body: prefetched pages
    # await their first hit, or the LRU-reorder ablation is on.
    pytest.param("fluidmem-dram", 3.0, FluidMemConfig(prefetch_pages=4),
                 id="fluidmem-dram-3.0-prefetch4"),
    pytest.param("fluidmem-dram", 3.0,
                 FluidMemConfig(lru_reorder_on_access=True),
                 id="fluidmem-dram-3.0-reorder"),
])
def test_bfs_accesses_pages_in_the_reference_order(
    backend, wss_of_dram, config
):
    """The chunk-built trace makes the same port calls, page for page,
    with the same write flags, hits and misses, at the same simulated
    instants as the per-element loop, and both traversals give the
    same valid BFS trees."""
    _bench, expected, expected_port = traced_bfs_run(
        backend, wss_of_dram, reference_bfs, config
    )
    bench, trees, port = traced_bfs_run(
        backend, wss_of_dram, lambda b, *args: b.bfs(*args), config
    )
    log = port.log
    assert log == expected_port.log
    assert any(not hit for _page, _write, hit, _now in log)
    assert (port.per_access_runs > 0) == (config is not None)
    assert len(trees) == len(expected) == 2
    for (root, edges, parent), (root_ref, edges_ref, parent_ref) in zip(
        trees, expected
    ):
        assert (root, edges) == (root_ref, edges_ref)
        assert np.array_equal(parent, parent_ref)
        assert bench.validate_bfs(root, parent)


# ------------------------------------------- chunked levels, per vertex

def per_vertex_bfs(bench, root, slot):
    """The per-vertex loop ``Graph500.bfs`` ran before it expanded each
    level in chunks, with the driver taken out.  Returns the edge count,
    the parent list, each level's frontier with the access count of
    each of its vertices, and the pages and write flags handed over,
    the root's two writes first."""
    graph = bench.graph
    xadj = graph.xadj
    adjacency = graph.adjacency
    page_mask = ~(PAGE_SIZE - 1)
    visited_base = bench.visited_bases[slot]
    parent_base = bench.parent_bases[slot]
    parent = [-1] * graph.num_vertices
    parent[root] = root
    trace = [(parent_base + root * PARENT_BYTES) & page_mask,
             (visited_base + root * VISITED_BYTES) & page_mask]
    trace_writes = [True, True]
    levels = []
    frontier = [root]
    edges_traversed = 0
    while frontier:
        next_frontier = []
        lengths = []
        for vertex in frontier:
            start = int(xadj[vertex])
            end = int(xadj[vertex + 1])
            pages = [(bench.xadj_base + vertex * XADJ_BYTES) & page_mask]
            pages.extend(adjacency_pages(bench, start, end))
            writes = [False] * len(pages)
            for neighbor in adjacency[start:end].tolist():
                pages.append(
                    (visited_base + neighbor * VISITED_BYTES) & page_mask
                )
                writes.append(False)
                if parent[neighbor] == -1:
                    parent[neighbor] = vertex
                    pages.append(
                        (parent_base + neighbor * PARENT_BYTES) & page_mask
                    )
                    writes.append(True)
                    next_frontier.append(neighbor)
            edges_traversed += end - start
            trace.extend(pages)
            trace_writes.extend(writes)
            lengths.append(len(pages))
        levels.append((frontier, lengths))
        frontier = next_frontier
    return edges_traversed, parent, levels, trace, trace_writes


def chunk_lengths(graph, frontier, lengths, bound):
    """The access count of each chunk of a level: whole vertices, at
    most ``bound`` edges a chunk unless one vertex holds more."""
    chunks, edges = [], 0
    for vertex, length in zip(frontier, lengths):
        degree = graph.degree(vertex)
        if chunks and edges + degree <= bound:
            chunks[-1] += length
            edges += degree
        else:
            chunks.append(length)
            edges = degree
    return chunks


class ListDriver:
    """A driver on which every access hits; it keeps each access it is
    handed and checks that it is a Python int with a Python bool.  It
    declines every set offer, so ``bfs`` hands it each chunk as lists."""

    def __init__(self):
        self.pages = []
        self.writes = []

    def try_hit_set(self, vaddrs, writes, start=0):
        return None

    def try_hits(self, vaddrs, writes, start=0):
        assert start == 0 and len(vaddrs) == len(writes)
        assert {type(vaddr) for vaddr in vaddrs} <= {int}
        assert {type(write) for write in writes} <= {bool}
        self.pages.extend(vaddrs)
        self.writes.extend(writes)
        return len(vaddrs)

    def access(self, vaddr, is_write=False):
        assert type(vaddr) is int and type(is_write) is bool
        self.pages.append(vaddr)
        self.writes.append(is_write)
        yield from ()


#: (scale, edgefactor, seed) of each graph: scales 4 to 11; the last
#: has a vertex of more than 4,096 edges.
CHUNK_GRAPHS = [(4, 4, 1), (5, 8, 2), (6, 16, 3), (7, 4, 4), (8, 16, 5),
                (9, 8, 6), (10, 16, 7), (11, 16, 8), (11, 32, 9)]


@pytest.mark.parametrize("bound", [1, 7, None], ids=["1", "7", "default"])
@pytest.mark.parametrize("scale,edgefactor,seed", CHUNK_GRAPHS)
def test_chunked_levels_equal_the_per_vertex_loop(
    monkeypatch, scale, edgefactor, seed, bound
):
    """Chunk by chunk, ``Graph500.bfs`` hands the driver the pages and
    write flags the per-vertex loop did, in its order, and ends with
    its edge count and parent array; each level's frontier is the
    loop's, cut into the chunks the bound allows.  The roots include a
    vertex of no edges where the graph has one, and the BFS expands a
    vertex holding more edges than the bound whenever the graph has
    one."""
    if bound is not None:
        monkeypatch.setattr(graph500_module, "_CHUNK_EDGES", bound)
    bound = graph500_module._CHUNK_EDGES
    graph = KroneckerGraph(scale, edgefactor, seed)
    bench = Graph500(None, None, 0x40000, Graph500Config(
        scale=scale, edgefactor=edgefactor, num_bfs_roots=3, seed=seed,
    ), graph=graph)
    roots = bench.pick_roots()
    isolated = np.flatnonzero(np.diff(graph.xadj) == 0)
    roots += [int(vertex) for vertex in isolated[:1]]

    expanded = []
    chunked = ([], [])
    expand = Graph500._expand

    def recording_expand(self, frontier, parent, slot):
        chunks = []
        expanded.append((frontier.tolist(), chunks))
        for chunk in expand(self, frontier, parent, slot):
            chunk_pages, chunk_writes, _new = chunk
            assert chunk_pages.dtype == np.int64
            assert chunk_writes.dtype == np.bool_
            chunked[0].extend(chunk_pages.tolist())
            chunked[1].extend(chunk_writes.tolist())
            chunks.append(len(chunk_pages))
            yield chunk

    monkeypatch.setattr(Graph500, "_expand", recording_expand)
    oversized = False
    for index, root in enumerate(roots):
        slot = index % 2
        edges, parent, levels, pages, writes = per_vertex_bfs(
            bench, root, slot
        )
        driver = ListDriver()
        expanded.clear()
        for handed in chunked:
            handed.clear()
        with pytest.raises(StopIteration) as done:
            next(bench.bfs(root, driver, slot))
        got_edges, got_parent = done.value.value
        assert type(got_edges) is int and got_edges == edges
        assert got_parent.dtype == np.int64
        assert got_parent.tolist() == parent
        assert (driver.pages, driver.writes) == (pages, writes)
        # The chunks' arrays, the root's two writes before them.
        assert chunked == (pages[2:], writes[2:])
        assert [frontier for frontier, _chunks in expanded] == [
            frontier for frontier, _lengths in levels
        ]
        for (frontier, chunks), (_frontier, lengths) in zip(
            expanded, levels
        ):
            assert chunks == chunk_lengths(graph, frontier, lengths, bound)
        oversized |= any(
            graph.degree(vertex) > bound
            for frontier, _lengths in levels for vertex in frontier
        )
    assert oversized == bool(np.diff(graph.xadj).max() > bound)
