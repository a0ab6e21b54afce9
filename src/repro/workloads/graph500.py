"""Graph500: Kronecker graph generation + sequential reference BFS.

The paper uses the *sequential reference implementation* of Graph500
(§VI-D1): build a Kronecker (R-MAT) graph of 2^scale vertices and
edgefactor 16, run 64 BFS traversals from random roots, and report the
harmonic mean of TEPS (traversed edges per second).  BFS over a CSR
graph is memory bound with irregular access — precisely the workload
that stresses a paging system.

This implementation really runs BFS (results are validated against the
generated edges) while *tracing* its memory accesses at page
granularity onto a :class:`~repro.vm.MemoryPort`: the CSR arrays
(xadj, adjacency), the parent array, and the visited bitmap are laid
out in guest memory, and every BFS array access touches the page that
element lives on.  TEPS is computed in simulated time.

A BFS's page trace depends only on the graph, the root and where the
arrays sit, so the first BFS of a root records it on its
:class:`KroneckerGraph` and every later one on that graph replays it:
the Figure 4 cells, which share one graph and one set of roots, build
each trace once (:meth:`Graph500.bfs`).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Generator, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import WorkloadError
from ..mem import PAGE_SHIFT, PAGE_SIZE
from ..sim import Environment, harmonic_mean
from ..vm import MemoryPort
from .driver import AccessDriver

__all__ = [
    "Graph500Config",
    "KroneckerGraph",
    "Graph500Result",
    "Graph500",
    "generate_kronecker_edges",
]

#: R-MAT initiator probabilities from the Graph500 specification.
RMAT_A, RMAT_B, RMAT_C = 0.57, 0.19, 0.19

#: Bytes per element of each traced array.
XADJ_BYTES = 8       # int64 offsets
ADJ_BYTES = 8        # int64 neighbor ids
PARENT_BYTES = 8     # int64 parent ids
VISITED_BYTES = 1    # byte-per-vertex bitmap (simplified)

#: Most edges in one chunk of a BFS level (a vertex with more is a chunk
#: of its own): a chunk's arrays stay near 100 KB, where a whole level
#: of a scale-12 graph can hold over 100k accesses.
_CHUNK_EDGES = 4096


def generate_kronecker_edges(
    scale: int, edgefactor: int, rng: np.random.Generator
) -> np.ndarray:
    """Edge list (m x 2) per the Graph500 Kronecker generator."""
    if scale < 1:
        raise WorkloadError(f"scale must be >= 1, got {scale}")
    if edgefactor < 1:
        raise WorkloadError(f"edgefactor must be >= 1, got {edgefactor}")
    n_edges = edgefactor << scale
    ab = RMAT_A + RMAT_B
    c_norm = RMAT_C / (1.0 - ab)
    a_norm = RMAT_A / ab

    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    for bit in range(scale):
        heads = rng.random(n_edges) > ab
        tails = rng.random(n_edges) > np.where(heads, c_norm, a_norm)
        src |= heads.astype(np.int64) << bit
        dst |= tails.astype(np.int64) << bit

    # Permute vertex labels and shuffle edges, per the reference code.
    perm = rng.permutation(1 << scale)
    src, dst = perm[src], perm[dst]
    order = rng.permutation(n_edges)
    return np.stack([src[order], dst[order]], axis=1)


@dataclass(frozen=True)
class BfsTrace:
    """What one traced BFS handed its driver, kept on its graph.

    ``chunks`` holds each chunk as its pages, in pages from the page that
    holds ``xadj[0]`` and in the smallest unsigned dtype that holds the
    layout's page span, and the positions of its writes.  ``edges`` and
    ``parent`` are what the BFS returned; ``nbytes`` counts every
    array's bytes.  The arrays are read-only.
    """

    chunks: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    edges: int
    parent: np.ndarray
    nbytes: int

    @classmethod
    def of(
        cls,
        chunks: List[Tuple[np.ndarray, np.ndarray]],
        edges: int,
        parent: np.ndarray,
    ) -> "BfsTrace":
        """The trace of ``chunks`` and ``edges`` with a copy of
        ``parent``, every array made read-only."""
        parent = parent.copy()
        arrays = [parent]
        for offsets, positions in chunks:
            arrays += (offsets, positions)
        nbytes = 0
        for array in arrays:
            array.flags.writeable = False
            nbytes += array.nbytes
        return cls(tuple(chunks), edges, parent, nbytes)

    def replay(self, base: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Each chunk as an int64 page array and a bool write array,
        its pages shifted to ``base``, the page that holds ``xadj[0]``."""
        for offsets, positions in self.chunks:
            pages = offsets.astype(np.int64)
            pages <<= PAGE_SHIFT
            pages += base
            writes = np.zeros(len(pages), dtype=bool)
            writes[positions] = True
            yield pages, writes


class KroneckerGraph:
    """CSR form of an undirected Kronecker graph.

    It also keeps the BFS traces that :meth:`Graph500.bfs` records on it
    (``traces``), as long as their bytes stay within those of its own
    CSR arrays, so they live and die with the graph.
    """

    def __init__(self, scale: int, edgefactor: int, seed: int) -> None:
        self.scale = scale
        self.edgefactor = edgefactor
        self.num_vertices = 1 << scale
        rng = np.random.default_rng(seed)
        edges = generate_kronecker_edges(scale, edgefactor, rng)
        self.num_input_edges = len(edges)

        # Undirected: both directions; drop self-loops for traversal.
        mask = edges[:, 0] != edges[:, 1]
        fwd = edges[mask]
        both = np.concatenate([fwd, fwd[:, ::-1]])
        order = np.lexsort((both[:, 1], both[:, 0]))
        both = both[order]
        self.adjacency = both[:, 1].copy()
        counts = np.bincount(both[:, 0], minlength=self.num_vertices)
        self.xadj = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=self.xadj[1:])
        #: Recorded BFS traces, by what each depends on (:meth:`Graph500.bfs`).
        self.traces: Dict[Tuple[int, ...], BfsTrace] = {}

    def neighbors(self, vertex: int) -> np.ndarray:
        return self.adjacency[self.xadj[vertex]:self.xadj[vertex + 1]]

    def degree(self, vertex: int) -> int:
        return int(self.xadj[vertex + 1] - self.xadj[vertex])

    @property
    def num_directed_edges(self) -> int:
        return len(self.adjacency)

    def trace_room(self) -> int:
        """Bytes of BFS traces the graph may still keep: all of them
        together stay within its CSR arrays' bytes."""
        room = self.xadj.nbytes + self.adjacency.nbytes
        for trace in self.traces.values():
            room -= trace.nbytes
        return room

    def keep_trace(self, key: Tuple[int, ...], trace: BfsTrace) -> None:
        """Keep ``trace`` under ``key`` if it fits :meth:`trace_room`."""
        if trace.nbytes <= self.trace_room():
            self.traces[key] = trace

    def memory_bytes(self) -> int:
        """Bytes of the traced arrays (the workload's WSS)."""
        return (
            (self.num_vertices + 1) * XADJ_BYTES
            + self.num_directed_edges * ADJ_BYTES
            + self.num_vertices * (PARENT_BYTES + VISITED_BYTES)
        )


@dataclass(frozen=True)
class Graph500Config:
    """One Graph500 run (§VI-D1 parameters, counts scaled by callers)."""

    scale: int = 14
    edgefactor: int = 16
    num_bfs_roots: int = 64
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_bfs_roots < 1:
            raise WorkloadError("need at least one BFS root")


class Graph500Result:
    """TEPS per root plus the harmonic mean the benchmark reports."""

    def __init__(self, teps: List[float], edges_traversed: List[int],
                 bfs_times_us: List[float]) -> None:
        if not teps:
            raise WorkloadError("no BFS trials completed")
        self.teps = teps
        self.edges_traversed = edges_traversed
        self.bfs_times_us = bfs_times_us

    @property
    def harmonic_mean_teps(self) -> float:
        return harmonic_mean(self.teps)

    @property
    def mean_teps_millions(self) -> float:
        """Millions of TEPS — the y-axis of Figure 4."""
        return self.harmonic_mean_teps / 1e6

    def __repr__(self) -> str:
        return (
            f"<Graph500Result {self.mean_teps_millions:.2f} MTEPS over "
            f"{len(self.teps)} roots>"
        )


class Graph500:
    """The traced sequential BFS benchmark."""

    def __init__(
        self,
        env: Environment,
        port: MemoryPort,
        base_addr: int,
        config: Optional[Graph500Config] = None,
        graph: Optional[KroneckerGraph] = None,
    ) -> None:
        self.env = env
        self.port = port
        self.config = config or Graph500Config()
        self.graph = graph or KroneckerGraph(
            self.config.scale, self.config.edgefactor, self.config.seed
        )
        self._rng = random.Random(self.config.seed)

        # Array layout in guest memory, page aligned.  The per-BFS
        # result arrays (parent, visited) are double-buffered: the
        # reference code allocates fresh arrays per trial, which is
        # where its ~150k minor faults — and FluidMem's 2.6 % overhead
        # at scale 20 — come from; two rotating slots reproduce the
        # fresh-allocation faulting without unbounded address growth.
        graph_size = self.graph
        self.xadj_base = base_addr
        xadj_bytes = (graph_size.num_vertices + 1) * XADJ_BYTES
        self.adj_base = self._align(self.xadj_base + xadj_bytes)
        adj_bytes = graph_size.num_directed_edges * ADJ_BYTES
        parent_bytes = graph_size.num_vertices * PARENT_BYTES
        visited_bytes = graph_size.num_vertices * VISITED_BYTES
        self.parent_bases = []
        self.visited_bases = []
        cursor = self._align(self.adj_base + adj_bytes)
        for _slot in range(2):
            self.parent_bases.append(cursor)
            cursor = self._align(cursor + parent_bytes)
            self.visited_bases.append(cursor)
            cursor = self._align(cursor + visited_bytes)
        self.end_addr = cursor

    @staticmethod
    def _align(addr: int) -> int:
        return (addr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)

    # -- the benchmark -------------------------------------------------------------

    def load_graph(self) -> Generator:
        """Populate the CSR arrays in guest memory (the generation phase).

        Sequential writes over the graph structure — like the reference
        code's construction.  The per-BFS result arrays are NOT loaded:
        each trial first-touches its own slot, as the reference's fresh
        allocations do.
        """
        driver = AccessDriver(self.env, self.port, rng=self._rng)
        try_hit = driver.try_hit
        for addr in range(self.xadj_base, self.parent_bases[0], PAGE_SIZE):
            if not try_hit(addr, is_write=True):
                yield from driver.access(addr, is_write=True)
        yield from driver.flush()

    def pick_roots(self) -> List[int]:
        """Sample roots with at least one edge, like the reference code."""
        roots: List[int] = []
        attempts = 0
        while len(roots) < self.config.num_bfs_roots:
            attempts += 1
            if attempts > 100 * self.config.num_bfs_roots:
                raise WorkloadError(
                    "could not find enough connected BFS roots"
                )
            vertex = self._rng.randrange(self.graph.num_vertices)
            if self.graph.degree(vertex) > 0:
                roots.append(vertex)
        return roots

    def bfs(self, root: int, driver: AccessDriver,
            slot: int = 0) -> Generator:
        """One traced BFS; returns (edges_traversed, parent array).

        Each level is expanded in chunks (:meth:`_expand`).  A chunk's
        page accesses are offered to ``driver.try_hit_set``, which
        retires them when every page they touch is resident, falling
        back to ``driver.access`` where a flush stops it; from the first
        offer it declines, the rest of the chunk is retired as one run
        of hits through ``driver.try_hits`` over Python lists, falling
        back to ``driver.access`` where the run stops.  The trace
        depends only on the graph, the root and the layout (nothing
        simulated reads ``parent`` or the frontier), so it can be built
        before its first access, and a run of hits passes no simulated
        time: the port sees the marks, at the instants, of a loop that
        touches one array element at a time.

        So the graph keeps the trace (``KroneckerGraph.traces``), keyed
        by all it depends on besides the graph: the root, where
        ``xadj_base`` sits in its page, the slot's parent and visited
        offsets from ``xadj_base``, and ``_CHUNK_EDGES``.  The first BFS
        of a key hands each chunk to the driver as soon as it is built
        and appends a compact copy of it (:class:`BfsTrace`); when the
        BFS completes, the graph keeps the copies with the edge count
        and a copy of ``parent``, if they fit its room
        (:meth:`KroneckerGraph.trace_room`).  A BFS that outgrows the
        room stops copying, and an abandoned one stores nothing.  Every
        later BFS of the key on the graph, from any ``Graph500``, hands
        the driver the same chunks unpacked into the same int64 page
        and bool write arrays, shifted to its own ``xadj_base``.  The
        key fixes where that base sits in its page, so the shift is a
        whole number of pages and commutes with the page mask.  Each
        call returns its own ``parent`` array.
        """
        access = driver.access
        try_hit_set = driver.try_hit_set
        try_hits = driver.try_hits
        page_mask = ~(PAGE_SIZE - 1)
        yield from access(
            (self.parent_bases[slot] + root * PARENT_BYTES) & page_mask,
            is_write=True,
        )
        yield from access(
            (self.visited_bases[slot] + root * VISITED_BYTES) & page_mask,
            is_write=True,
        )
        graph = self.graph
        base = self.xadj_base & page_mask
        key = (root, self.xadj_base - base,
               self.parent_bases[slot] - self.xadj_base,
               self.visited_bases[slot] - self.xadj_base, _CHUNK_EDGES)
        trace = graph.traces.get(key)
        kept: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        if trace is not None:
            chunks = trace.replay(base)
        else:
            parent = np.full(graph.num_vertices, -1, dtype=np.int64)
            parent[root] = root
            chunks = self._traverse(root, parent, slot)
            room = graph.trace_room() - parent.nbytes
            if room >= 0:
                kept = []
                span = (self.end_addr - base) // PAGE_SIZE
                dtype = np.min_scalar_type(span - 1)
        for pages, writes in chunks:
            if kept is not None:
                offsets = ((pages - base) >> PAGE_SHIFT).astype(dtype)
                positions = np.flatnonzero(writes).astype(
                    np.min_scalar_type(len(pages) - 1)
                )
                room -= offsets.nbytes + positions.nbytes
                if room < 0:
                    kept = None
                else:
                    kept.append((offsets, positions))
            stop = len(pages)
            index = 0
            done = try_hit_set(pages, writes)
            while done is not None and done < stop:
                yield from access(int(pages[done]), bool(writes[done]))
                index = done + 1
                done = try_hit_set(pages, writes, index)
            if done is None:
                # Declined (a page of the rest is absent, or the driver
                # has no set body for it): the rest goes through the run
                # body, whatever it faults in.
                pages, writes = pages.tolist(), writes.tolist()
                index = try_hits(pages, writes, index)
                while index < stop:
                    yield from access(pages[index], writes[index])
                    index = try_hits(pages, writes, index + 1)
        if trace is not None:
            return trace.edges, trace.parent.copy()
        # Each reached vertex was expanded once, all its edges with it.
        degrees = np.diff(graph.xadj)
        edges = int(degrees[parent != -1].sum())
        if kept is not None:
            graph.keep_trace(key, BfsTrace.of(kept, edges, parent))
        return edges, parent

    def _traverse(
        self, root: int, parent: np.ndarray, slot: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The pages and writes of each chunk of the BFS from ``root``,
        level after level (:meth:`_expand`), setting ``parent``."""
        frontier = np.array([root], dtype=np.int64)
        while frontier.size:
            reached = []
            for pages, writes, new in self._expand(frontier, parent, slot):
                reached.append(new)
                yield pages, writes
            frontier = np.concatenate(reached)

    def _expand(
        self, frontier: np.ndarray, parent: np.ndarray, slot: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Expand one BFS level, a chunk of frontier vertices at a time.

        A chunk is a run of whole vertices holding at most
        ``_CHUNK_EDGES`` edges, or one vertex holding more.  Yields
        :meth:`_trace_chunk` of each chunk, in frontier order.
        """
        xadj = self.graph.xadj
        starts, ends = xadj[frontier], xadj[frontier + 1]
        bounds = np.cumsum(ends - starts).tolist()
        lo = 0
        while lo < len(bounds):
            most = (bounds[lo - 1] if lo else 0) + _CHUNK_EDGES
            hi = max(bisect_right(bounds, most, lo), lo + 1)
            yield self._trace_chunk(frontier[lo:hi], starts[lo:hi],
                                    ends[lo:hi], parent, slot)
            lo = hi

    def _trace_chunk(
        self,
        vertices: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        parent: np.ndarray,
        slot: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Traverse ``vertices`` (edges ``starts[i]:ends[i]`` each).

        Sets ``parent`` of the vertices they reach and returns the page
        accesses in traversal order (per vertex its ``xadj`` page and
        adjacency pages, then per neighbour the visited page and, for a
        newly reached neighbour, the parent page as a write) as an int64
        array of pages and a bool array of write flags, and the reached
        vertices in the order a per-vertex loop appends them to the
        next frontier.  A neighbour is newly reached at its first
        occurrence in the chunk if its parent is still -1 at the
        chunk's start: that is where the loop would find it unset,
        since only an earlier occurrence could have set it.
        """
        page_mask = ~(PAGE_SIZE - 1)
        # Each edge's neighbour, vertex after vertex; ``owner`` is the
        # index of the vertex it belongs to, ``offsets`` each vertex's
        # first edge.
        degrees = ends - starts
        offsets = np.cumsum(degrees) - degrees
        edge = np.arange(int(offsets[-1] + degrees[-1]))
        owner = np.repeat(np.arange(len(vertices)), degrees)
        neighbors = self.graph.adjacency[edge + (starts - offsets)[owner]]

        unseen = np.flatnonzero(parent[neighbors] == -1)
        _values, once = np.unique(neighbors[unseen], return_index=True)
        new = np.sort(unseen[once])
        reached = neighbors[new]
        parent[reached] = vertices[owner[new]]

        # Positions: a vertex's head (its xadj page, then its adjacency
        # pages) precedes its neighbours' accesses, and each newly
        # reached neighbour adds its parent write after its visited
        # read.  So edge ``e`` reads its visited page after the heads up
        # to its own vertex's, ``e`` earlier visited reads and one
        # parent write per newly reached neighbour before it; a vertex's
        # xadj page comes after the heads, visited reads and parent
        # writes of the vertices before it, and ``adj_step`` numbers
        # each vertex's adjacency pages from 0.
        adj_first = (self.adj_base + starts * ADJ_BYTES) & page_mask
        adj_last = (self.adj_base + (ends - 1) * ADJ_BYTES) & page_mask
        adj_pages = np.where(
            degrees > 0, (adj_last - adj_first) // PAGE_SIZE + 1, 0
        )
        head_end = np.cumsum(adj_pages + 1)
        visited_at = head_end[owner] + edge + np.searchsorted(new, edge)
        xadj_at = (head_end - adj_pages - 1 + offsets
                   + np.searchsorted(new, offsets))
        heads = int(head_end[-1])
        adj_step = np.arange(heads - len(vertices)) - np.repeat(
            np.cumsum(adj_pages) - adj_pages, adj_pages
        )
        parent_at = visited_at[new] + 1

        pages = np.empty(heads + len(edge) + len(new), dtype=np.int64)
        pages[xadj_at] = (self.xadj_base + vertices * XADJ_BYTES) & page_mask
        pages[np.repeat(xadj_at + 1, adj_pages) + adj_step] = (
            np.repeat(adj_first, adj_pages) + adj_step * PAGE_SIZE
        )
        pages[visited_at] = (
            self.visited_bases[slot] + neighbors * VISITED_BYTES
        ) & page_mask
        pages[parent_at] = (
            self.parent_bases[slot] + reached * PARENT_BYTES
        ) & page_mask
        writes = np.zeros(len(pages), dtype=bool)
        writes[parent_at] = True
        return pages, writes, reached

    def run(self) -> Generator:
        """Load the graph, run the BFS trials, return a Graph500Result."""
        yield from self.load_graph()
        driver = AccessDriver(self.env, self.port, rng=self._rng)
        teps: List[float] = []
        traversed: List[int] = []
        times: List[float] = []
        for index, root in enumerate(self.pick_roots()):
            started = self.env.now
            edges, _parent = yield from self.bfs(root, driver,
                                                 slot=index % 2)
            yield from driver.flush()
            elapsed_us = self.env.now - started
            if elapsed_us <= 0 or edges == 0:
                continue
            times.append(elapsed_us)
            traversed.append(edges)
            # TEPS counts input (undirected) edges per the spec; our
            # traversal count covers both directions, so halve it.
            teps.append((edges / 2) / (elapsed_us / 1e6))
        return Graph500Result(teps, traversed, times)

    def validate_bfs(self, root: int, parent: np.ndarray) -> bool:
        """Graph500-style validation: the parent array is a BFS tree."""
        graph = self.graph
        if parent[root] != root:
            return False
        # Every reached vertex's parent edge must exist, and distances
        # must be consistent (parent depth + 1).
        depth = np.full(graph.num_vertices, -1, dtype=np.int64)
        depth[root] = 0
        frontier = [root]
        while frontier:
            next_frontier = []
            for vertex in frontier:
                for neighbor in graph.neighbors(vertex):
                    neighbor = int(neighbor)
                    if depth[neighbor] == -1:
                        depth[neighbor] = depth[vertex] + 1
                        next_frontier.append(neighbor)
            frontier = next_frontier
        for vertex in range(graph.num_vertices):
            if parent[vertex] == -1:
                if depth[vertex] != -1:
                    return False
                continue
            if vertex == root:
                continue
            par = int(parent[vertex])
            if vertex not in graph.neighbors(par):
                return False
            if depth[vertex] != depth[par] + 1:
                return False
        return True
