"""Tests for the Kronecker generator and traced BFS."""

import gc
import weakref

import numpy as np
import pytest

from repro.bench.fig4_graph500 import memory_scale_for
from repro.bench.platform import PLATFORM_NAMES, build_platform
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


def traced_bfs_run(backend, wss_of_dram, bfs, config=None, graph=None):
    """Graph500.run's steps, with each root's parent array kept, behind
    a recording port; ``bfs`` is the traversal under test, ``config``
    the FluidMem monitor's (the platform's default when None) and
    ``graph`` the graph (a fresh one when None)."""
    if graph is None:
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
    same valid BFS trees; so does a second run on the same graph, which
    replays both roots' traces."""
    _bench, expected, expected_port = traced_bfs_run(
        backend, wss_of_dram, reference_bfs, config
    )
    graph = KroneckerGraph(ORDER_SCALE, 16, seed=42)
    for replayed in (False, True):
        assert len(graph.traces) == 2 * replayed
        bench, trees, port = traced_bfs_run(
            backend, wss_of_dram, lambda b, *args: b.bfs(*args), config,
            graph=graph,
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
    handed, and each chunk's length, and checks that it is a Python int
    with a Python bool.  It declines every set offer, so ``bfs`` hands
    it each chunk as lists."""

    def __init__(self):
        self.pages = []
        self.writes = []
        self.chunks = []

    def try_hit_set(self, vaddrs, writes, start=0):
        assert vaddrs.dtype == np.int64 and writes.dtype == np.bool_
        return None

    def try_hits(self, vaddrs, writes, start=0):
        assert start == 0 and len(vaddrs) == len(writes)
        assert {type(vaddr) for vaddr in vaddrs} <= {int}
        assert {type(write) for write in writes} <= {bool}
        self.pages.extend(vaddrs)
        self.writes.extend(writes)
        self.chunks.append(len(vaddrs))
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
    one.  A second BFS of each root replays the trace the first one
    kept, expanding nothing, and hands over the same chunks."""
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
        graph.traces.clear()
        handed_chunks = None
        for replayed in (False, True):
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
            if replayed:
                assert expanded == [] and chunked == ([], [])
                assert driver.chunks == handed_chunks
                continue
            assert len(graph.traces) == 1
            handed_chunks = driver.chunks
            # The chunks' arrays, the root's two writes before them.
            assert chunked == (pages[2:], writes[2:])
            assert [frontier for frontier, _chunks in expanded] == [
                frontier for frontier, _lengths in levels
            ]
            assert [
                length for _frontier, chunks in expanded for length in chunks
            ] == handed_chunks
            for (frontier, chunks), (_frontier, lengths) in zip(
                expanded, levels
            ):
                assert chunks == chunk_lengths(
                    graph, frontier, lengths, bound
                )
        oversized |= any(
            graph.degree(vertex) > bound
            for frontier, _lengths in levels for vertex in frontier
        )
    assert oversized == bool(np.diff(graph.xadj).max() > bound)


# ---------------------------------------------------- one trace per graph

def list_bfs(bench, root, slot, driver=None):
    """``bench.bfs`` on a :class:`ListDriver` (or ``driver``), which
    never waits; returns the edge count, the parent array and the
    driver."""
    driver = driver or ListDriver()
    with pytest.raises(StopIteration) as done:
        next(bench.bfs(root, driver, slot))
    edges, parent = done.value.value
    return edges, parent, driver


def small_bench(graph=None):
    """A Graph500 of no platform on a scale-8 graph (16 edges a
    vertex, about 21 pages of arrays), for runs on a ListDriver."""
    graph = graph or KroneckerGraph(8, 16, seed=5)
    return Graph500(None, None, 0x40000, Graph500Config(
        scale=8, edgefactor=16, num_bfs_roots=12, seed=5,
    ), graph=graph)


class ChunkLog:
    """Passes every call on to an AccessDriver and logs each chunk
    ``bfs`` offers it: the pages and write flags of its first set offer,
    which must be int64 and bool arrays."""

    def __init__(self, driver):
        self.driver = driver
        self.access = driver.access
        self.try_hits = driver.try_hits
        self.chunks = []

    def try_hit_set(self, vaddrs, writes, start=0):
        if start == 0:
            assert vaddrs.dtype == np.int64 and writes.dtype == np.bool_
            self.chunks.append((vaddrs.tolist(), writes.tolist()))
        return self.driver.try_hit_set(vaddrs, writes, start)


def logged_bfs_runs(backend, wss_of_dram, graph, roots, fresh):
    """A BFS of each of ``roots`` in turn, root ``i`` in slot ``i % 2``,
    on a ``backend`` platform with the graph at ``wss_of_dram`` of its
    DRAM, behind a recording port and a chunk log.  ``fresh`` empties
    the graph's traces before each BFS.  Returns the workload base,
    each BFS's chunks, edge count and parent list, and the port's
    log."""
    platform = build_platform(
        backend, memory_scale=memory_scale_for(graph, wss_of_dram),
        seed=42, remote_factor=6,
    )
    port = RecordingPort(platform.env, platform.port)
    bench = Graph500(
        platform.env, port, platform.workload_base,
        Graph500Config(scale=ORDER_SCALE, edgefactor=16, num_bfs_roots=1,
                       seed=42),
        graph=graph,
    )

    def run():
        yield from bench.load_graph()
        driver = AccessDriver(bench.env, port, rng=bench._rng)
        runs = []
        for index, root in enumerate(roots):
            if fresh:
                graph.traces.clear()
            log = ChunkLog(driver)
            edges, parent = yield from bench.bfs(root, log, index % 2)
            yield from driver.flush()
            runs.append((log.chunks, edges, parent.tolist()))
        return runs

    return platform.workload_base, platform.run(run()), port.log


@pytest.mark.parametrize("backend", PLATFORM_NAMES)
def test_a_replayed_bfs_hands_the_driver_what_a_fresh_one_does(
    monkeypatch, backend
):
    """On every platform, at two memory points and so at two workload
    bases, a BFS that replays its graph's trace hands the driver,
    chunk by chunk, the int64 pages and bool writes a fresh expansion
    does, and returns its edge count and parent; the port sees the same
    calls at the same instants.  Root ``a`` runs in slot 0, ``b`` in
    slot 1, then ``a`` in slot 0 again (a replay at the base that
    recorded it) and in slot 1 (a new trace, as the slot's arrays sit
    elsewhere).  At the second point all four replay, shifted."""
    expansions = []
    traverse = Graph500._traverse

    def counted_traverse(self, root, parent, slot):
        expansions.append((root, slot))
        return traverse(self, root, parent, slot)

    monkeypatch.setattr(Graph500, "_traverse", counted_traverse)
    graph = KroneckerGraph(ORDER_SCALE, 16, seed=42)
    a, b = Graph500(None, None, 0, Graph500Config(
        scale=ORDER_SCALE, edgefactor=16, num_bfs_roots=2, seed=42,
    ), graph=graph).pick_roots()
    assert a != b
    roots = [a, b, a, a]
    bases = []
    for wss_of_dram, expanded in ((0.6, [(a, 0), (b, 1), (a, 1)]),
                                  (3.0, [])):
        expansions.clear()
        base, runs, log = logged_bfs_runs(
            backend, wss_of_dram, graph, roots, fresh=False
        )
        assert expansions == expanded
        fresh_base, fresh_runs, fresh_log = logged_bfs_runs(
            backend, wss_of_dram, KroneckerGraph(ORDER_SCALE, 16, seed=42),
            roots, fresh=True,
        )
        assert base == fresh_base
        assert runs == fresh_runs
        assert log == fresh_log
        bases.append(base)
    assert len(graph.traces) == 3
    assert bases[0] != bases[1]


def test_a_new_chunk_bound_cuts_new_chunks(monkeypatch):
    """A BFS under another ``_CHUNK_EDGES`` than the graph's trace of
    its root was recorded with expands afresh, into the new bound's
    chunks; back under the first bound it replays the first trace."""
    bench = small_bench()
    graph = bench.graph
    root = bench.pick_roots()[0]
    edges, parent, levels, pages, writes = per_vertex_bfs(bench, root, 0)
    default = graph500_module._CHUNK_EDGES
    cuts = {}
    for bound in (default, 7, default):
        monkeypatch.setattr(graph500_module, "_CHUNK_EDGES", bound)
        got_edges, got_parent, driver = list_bfs(bench, root, 0)
        assert (got_edges, got_parent.tolist()) == (edges, parent)
        assert (driver.pages, driver.writes) == (pages, writes)
        cuts[bound] = [
            length for frontier, lengths in levels
            for length in chunk_lengths(graph, frontier, lengths, bound)
        ]
        assert driver.chunks == cuts[bound]
    assert cuts[7] != cuts[default]
    assert len(graph.traces) == 2


def test_an_abandoned_bfs_stores_nothing():
    """A BFS closed while it waits on an access, or one whose driver
    raises, leaves no trace on its graph; one that completes does."""

    class Pausing(ListDriver):
        """Retires the first two chunks, then waits on the next access."""

        def try_hits(self, vaddrs, writes, start=0):
            if len(self.chunks) < 2:
                return super().try_hits(vaddrs, writes, start)
            return start

        def access(self, vaddr, is_write=False):
            if len(self.chunks) == 2:
                yield "waiting"
            yield from super().access(vaddr, is_write)

    class Failing(ListDriver):
        """Raises on the third chunk."""

        def try_hits(self, vaddrs, writes, start=0):
            if len(self.chunks) == 2:
                raise RuntimeError("driver failed")
            return super().try_hits(vaddrs, writes, start)

    bench = small_bench()
    graph = bench.graph
    root = bench.pick_roots()[0]
    run = bench.bfs(root, Pausing(), 0)
    assert next(run) == "waiting"
    run.close()
    assert graph.traces == {}
    with pytest.raises(RuntimeError, match="driver failed"):
        list_bfs(bench, root, 0, Failing())
    assert graph.traces == {}
    _edges, _parent, driver = list_bfs(bench, root, 0)
    assert len(driver.chunks) > 2
    assert len(graph.traces) == 1


def test_each_bfs_returns_its_own_parent_array():
    """Writing to the parent array a BFS returned changes no later BFS
    of that root, recorded or replayed, and the kept arrays are
    read-only."""
    bench = small_bench()
    graph = bench.graph
    root = bench.pick_roots()[0]
    edges, parent, _levels, pages, writes = per_vertex_bfs(bench, root, 0)
    for _ in range(3):
        got_edges, got_parent, driver = list_bfs(bench, root, 0)
        assert (got_edges, got_parent.tolist()) == (edges, parent)
        assert (driver.pages, driver.writes) == (pages, writes)
        got_parent[:] = 7
    (trace,) = graph.traces.values()
    assert not trace.parent.flags.writeable
    assert not any(array.flags.writeable
                   for chunk in trace.chunks for array in chunk)


def test_a_full_graph_keeps_no_more_traces():
    """A graph keeps traces only while their bytes stay within its CSR
    arrays' bytes.  A BFS past that hands the driver the same chunks
    and returns the same results as ever, and keeps nothing; the kept
    traces still replay."""
    bench = small_bench()
    graph = bench.graph
    room = graph.xadj.nbytes + graph.adjacency.nbytes
    roots = bench.pick_roots()
    assert len(set(roots)) == len(roots)
    kept = []
    for _pass in range(2):
        for root in roots:
            edges, parent, _levels, pages, writes = per_vertex_bfs(
                bench, root, 0
            )
            got_edges, got_parent, driver = list_bfs(bench, root, 0)
            assert (got_edges, got_parent.tolist()) == (edges, parent)
            assert (driver.pages, driver.writes) == (pages, writes)
            kept.append(len(graph.traces))
            assert graph.trace_room() == room - sum(
                trace.nbytes for trace in graph.traces.values()
            ) >= 0
    assert 1 < kept[-1] < len(roots)
    assert kept[len(roots):] == [kept[-1]] * len(roots)


def test_dropping_the_graph_frees_its_traces():
    """A graph's traces live and die with it: nothing else holds them."""
    bench = small_bench()
    list_bfs(bench, bench.pick_roots()[0], 0)
    graph = bench.graph
    (trace,) = graph.traces.values()
    refs = [weakref.ref(graph), weakref.ref(trace.parent),
            weakref.ref(trace.chunks[0][0])]
    del bench, graph, trace
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
