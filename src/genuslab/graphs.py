"""Simple undirected graphs and the structural operations the rest of the
package builds on: components, 2-cores, kernels, induced subgraphs and
bounded-length cycle enumeration.

Vertices are the integers 0..n-1.  Self-loops and parallel edges are
rejected.  Storage is a canonical int64 edge array (pairs u < v sorted by
colex code) plus a CSR adjacency with int32 indices while they fit, so the
structural operations stay cheap at n around 10^6.  Graph(n, edges)
validates and sorts its input; code that holds canonical edges already
builds through Graph._from_canonical.

Everything here runs on numpy alone, with no scipy.  One labeller,
_component_roots, hooks and pointer-jumps over a shrinking edge list; it
labels components (Graph._components, behind component_count and
component_labels), the runs of core-degree-2 vertices in which kernel
finds the bare cycles, and, over the chain ends of the kernel, the
2-core's components for giant_vertices (behind giant_component), which
sizes each component by the vertices the 2-core peel's forest maps to it.
Breadth-first search (bfs_tree) is one Python first-in first-out loop,
_fifo_search, over a CSR read through memoryviews; fragile.select_cores
runs the same loop.  induced_subgraph and kernel relabel dart heads by a
gather from one n-long map in the CSR index dtype.  kernel pairs each
core dart with its reverse by inverting one argsort, takes the least
vertex of each bare cycle as a kernel vertex, so that every core edge lies
on a chain, and finds the chains by pointer jumping over the core darts
until every dart reaches a kernel vertex; enumerate_cycles grows path
prefixes over the kernel as arrays, in batches of at most EXPAND_SLICE,
and builds vertex tuples only for the cycles it finds.  Its roots run in
blocks, each with a direct index of at most INDEX_ENTRIES entries over
the sorted kernel darts: a prefix starts at the first dart of its end
past its root, and the darts that close a step are read by two gathers,
with no search.

A Graph caches its component labels, the read-only result of its 2-core
peel (_peel: the core degrees behind two_core and kernel, the forest, and
the count of vertices the forest maps to each vertex, behind
giant_vertices and the cycle census) and its kernel, with read-only
arrays, behind giant_vertices and enumerate_cycles; each is computed at
most once, whichever function asks first.  It also holds, in
_cored, the cored piece decompositions that fragile.fragile_experiment
computed for it as a base graph, one per (l, Delta).  A Graph is
immutable, so no cache is ever invalidated, and none takes part in == or
hash.

Integer arrays are deduplicated by _distinct, one sort and a comparison
of neighbours: numpy 2's np.unique hashes instead, which is many times
slower on int64 arrays.  Only random_models._ordered_distinct keeps
np.unique, for the first positions of values in its short repair arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GraphError(ValueError):
    """Invalid graph input: label out of range, self-loop, duplicate edge."""


class CycleBudgetError(RuntimeError):
    """Cycle enumeration passed its cap before finishing."""

    def __init__(self, cap: int, max_length: int):
        super().__init__(
            f"more than {cap} simple cycles of length <= {max_length}"
        )
        self.cap = cap
        self.max_length = max_length

    def __reduce__(self):
        # rebuild from the fields, so the error survives a worker process
        return type(self), (self.cap, self.max_length)


# Default cap of enumerate_cycles and of every cycle census built on it.
CYCLE_CAP = 10_000_000


def _as_edge_array(edges) -> np.ndarray:
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                     dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError("edges must be pairs of vertices")
    return arr


def _encode_pairs(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Colex code hi*(hi-1)/2 + lo of the pairs lo < hi; sorting the codes
    sorts the pairs by (hi, lo)."""
    return hi * (hi - 1) // 2 + lo


def _decode_pairs(codes: np.ndarray) -> np.ndarray:
    """Colex code -> (k, 2) array of pairs (u, v) with u < v; exact for
    codes below 2**52."""
    v = ((1.0 + np.sqrt(8.0 * codes + 1.0)) * 0.5).astype(np.int64)
    u = codes - (v * (v - 1) >> 1)
    # the float estimate of v may be one off; then u falls outside [0, v)
    low = u < 0
    v[low] -= 1
    u[low] += v[low]
    high = u >= v
    u[high] -= v[high]
    v[high] += 1
    return np.column_stack([u, v])


def _index_dtype(n: int, darts: int) -> type:
    """Index type of a CSR with n vertices and the given number of darts:
    int32 while n and darts fit in it, which halves the CSR's memory, and
    int64 beyond."""
    return np.int32 if max(n, darts) <= np.iinfo(np.int32).max else np.int64


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Edges are normalized to (u, v) with u < v and stored as an int64 array
    sorted by colex code (by v, then u), so two graphs with the same edge
    set have identical edge arrays.  The CSR adjacency over both dart
    directions is built from that canonical array by one sort of the int64
    dart keys tail*n + head, which fit while n < 3*10^9.  Its index arrays,
    and so degrees() and neighbors(), are int32 while n and 2m fit in
    int32 (_index_dtype), and int64 beyond.
    """

    __slots__ = ("_n", "_edges", "_indptr", "_indices", "_labels", "_ncomp", "_peeled", "_kernel",
                 "_cored")

    def __init__(self, n: int, edges=()):
        n = int(n)
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        arr = _as_edge_array(edges)
        if arr.size:
            if arr.min() < 0 or arr.max() >= n:
                raise GraphError("edge endpoint out of range")
            if (arr[:, 0] == arr[:, 1]).any():
                raise GraphError("self-loops are not allowed")
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            codes = _encode_pairs(lo, hi)
            order = np.argsort(codes)
            codes = codes[order]
            if codes.size > 1 and (codes[1:] == codes[:-1]).any():
                raise GraphError("duplicate edges are not allowed")
            arr = np.column_stack([lo[order], hi[order]])
            del lo, hi, codes, order  # the CSR build below sets the memory peak
        self._build(n, arr)

    @classmethod
    def _from_canonical(cls, n: int, edges: np.ndarray) -> Graph:
        """Graph on 0..n-1 from an (m, 2) int64 edge array that is already
        canonical: distinct rows (u, v) with 0 <= u < v < n, sorted by colex
        code.  Nothing is checked; the array becomes the graph's own."""
        G = cls.__new__(cls)
        G._build(n, edges)
        return G

    def _build(self, n: int, edges: np.ndarray) -> None:
        """Set every field from n and a canonical edge array."""
        m = len(edges)
        self._n = n
        self._edges = edges
        edges.setflags(write=False)
        # sorted dart keys leave every neighbor list sorted
        keys = np.empty(2 * m, dtype=np.int64)
        np.multiply(edges[:, 0], n, out=keys[:m])
        keys[:m] += edges[:, 1]
        np.multiply(edges[:, 1], n, out=keys[m:])
        keys[m:] += edges[:, 0]
        keys.sort()
        itype = _index_dtype(n, 2 * m)
        self._indices = np.empty(2 * m, dtype=itype)
        np.remainder(keys, n, out=self._indices, casting="unsafe")
        keys //= n  # now the tails
        counts = np.bincount(keys, minlength=n)
        del keys  # the CSR build sets the memory peak of a gnm draw
        self._indptr = np.zeros(n + 1, dtype=itype)
        np.cumsum(counts, out=self._indptr[1:])
        self._indices.setflags(write=False)
        self._labels = None
        self._ncomp = None
        self._peeled = None
        self._kernel = None
        self._cored = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._edges.shape[0]

    @property
    def edge_array(self) -> np.ndarray:
        """Read-only (m, 2) array, rows sorted with u < v."""
        return self._edges

    def edge_list(self) -> list[tuple[int, int]]:
        return [(int(u), int(v)) for u, v in self._edges]

    def degrees(self) -> np.ndarray:
        """Degree array, of the CSR index dtype (int32 unless n or 2m
        exceeds it)."""
        return np.diff(self._indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array (read-only view), of the CSR index dtype."""
        return self._indices[self._indptr[v]:self._indptr[v + 1]]

    def adjacency_lists(self) -> list[list[int]]:
        ind = self._indices.tolist()
        ptr = self._indptr.tolist()
        return [ind[ptr[v]:ptr[v + 1]] for v in range(self._n)]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return i < len(row) and row[i] == v

    def _components(self) -> tuple[int, np.ndarray]:
        """(count, labels), cached: the components are numbered 0, 1, ...
        by their least vertex, as a search started at each unlabelled
        vertex in turn numbers them."""
        if self._labels is None:
            root = _component_roots(self._n, self._edges[:, 0], self._edges[:, 1])
            first = root == np.arange(self._n)
            number = np.cumsum(first, dtype=root.dtype) - 1
            self._ncomp, self._labels = int(np.count_nonzero(first)), number[root]
        return self._ncomp, self._labels

    @property
    def component_count(self) -> int:
        return self._components()[0]

    def component_labels(self) -> np.ndarray:
        """Label array: component_labels()[v] identifies v's component."""
        return self._components()[1]

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.m})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._edges, other._edges)

    def __hash__(self):
        return hash((self._n, self._edges.tobytes()))


def _component_roots(n: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """The least vertex of each vertex's component, in the graph on 0..n-1
    whose edges, loops and repeats allowed, are the pairs (tails[i],
    heads[i]); of the CSR index dtype for n vertices.

    Hooking and pointer jumping (Shiloach and Vishkin, "An O(log n)
    parallel connectivity algorithm", J. Algorithms 1982) in whole-array
    rounds over a shrinking edge list.  Each round moves every edge to the
    roots of its ends and drops the edges whose ends share a root; every
    root then hooks to the least root it shares an edge with, if that is
    below its own (one np.minimum.at), and the labels pointer-jump until
    each points at a root.  A root hooks only to a smaller root, so the
    least vertex of a component is never hooked and ends as its root.
    """
    label = np.arange(n, dtype=_index_dtype(n, 0))
    while True:
        tails, heads = label[tails], label[heads]
        apart = tails != heads
        tails, heads = tails[apart], heads[apart]
        if not tails.size:
            return label
        np.minimum.at(label, np.maximum(tails, heads), np.minimum(tails, heads))
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]


def bfs_tree(G: Graph, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first search from root: (order, parent).

    order lists the vertices reached, in first-in first-out order with each
    vertex's neighbours taken ascending.  parent[v] is the vertex that first
    reached v, or -1 for the root and for every vertex not reached.  Both
    are of the CSR index dtype, and equal scipy.sparse.csgraph's
    breadth_first_order with its -9999 read as -1.  The search is
    _fifo_search over G's own CSR.
    """
    if not 0 <= root < G.n:
        raise GraphError("root out of range")
    return _fifo_search(G._indptr, G._indices, [int(root)])


def _fifo_search(ptr: np.ndarray, indices: np.ndarray, starts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """First-in first-out search over the CSR (ptr, indices) from the
    distinct vertices starts, queued in the given order: (order, parent)
    as in bfs_tree, with parent -1 at every start.

    The search is a Python loop that reads the CSR through memoryviews, so
    it copies no array into a list and makes Python ints only for the
    vertices and darts it visits.
    """
    parent = np.full(len(ptr) - 1, -1, dtype=indices.dtype)
    ptr, heads, up = memoryview(ptr), memoryview(indices), memoryview(parent)
    seen = bytearray(len(parent))
    order = list(starts)
    append = order.append
    for v in order:
        seen[v] = 1
    for u in order:  # reads on through the vertices appended below
        for x in heads[ptr[u]:ptr[u + 1]]:
            if not seen[x]:
                seen[x] = 1
                up[x] = u
                append(x)
    return np.array(order, dtype=indices.dtype), parent


@dataclass(frozen=True)
class InducedSubgraph:
    """Induced subgraph relabeled to 0..k-1, with the label correspondence.

    old_labels[i] is the original label of new vertex i (sorted ascending).
    """

    graph: Graph
    old_labels: np.ndarray


def induced_subgraph(G: Graph, vertices) -> InducedSubgraph:
    """Subgraph induced on the given vertex set, relabeled compactly.

    Only the darts of the kept vertices are read, and each head is relabeled
    by one gather from an n-long map, so beyond sorting S the work is
    O(n + vol S) for the kept set S and the sum vol S of its degrees.
    """
    keep = _distinct(np.asarray(list(vertices) if not isinstance(vertices, np.ndarray) else vertices,
                                dtype=np.int64))
    if keep.size and (keep[0] < 0 or keep[-1] >= G.n):
        raise GraphError("vertex out of range")
    ptr = G._indptr
    heads = G._indices[_dart_positions(ptr, keep)]
    tails = np.repeat(np.arange(keep.size), ptr[keep + 1] - ptr[keep])
    # new label of each vertex; keep.size, above every tail, when dropped
    index = np.full(G.n, keep.size, dtype=heads.dtype)
    index[keep] = np.arange(keep.size, dtype=heads.dtype)
    new = np.take(index, heads)
    del index
    # a dart from a kept tail down to a kept head is one edge (head, tail);
    # CSR order sorts these by (tail, head), which is colex order
    down = new < tails
    edges = np.column_stack([new[down].astype(np.int64), tails[down]])
    return InducedSubgraph(Graph._from_canonical(keep.size, edges), keep)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-d array, ascending, as np.unique gives
    them, by one sort and a comparison of neighbours.  numpy 2's np.unique
    hashes instead, which took 15 to 50 times as long on random int64
    arrays of 5,000 to 367,000 entries."""
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _dart_positions(ptr: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """CSR positions of the darts leaving the given vertices, concatenated."""
    return _ranges(ptr[vertices], ptr[vertices + 1] - ptr[vertices])


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of the ranges starts[i] .. starts[i] + counts[i] - 1."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _peel(G: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(core degrees, forest, owned) of G, read-only and cached on G, so G
    is peeled at most once.

    The core degree of a vertex is its degree in the 2-core, or 0 for a
    vertex outside it.  The forest maps every vertex to the core vertex
    its pendant tree hangs from, or to the root of its tree component;
    core vertices and roots map to themselves.  owned counts the vertices
    the forest maps to each vertex: for a core vertex, itself and its
    pendant trees; for a root, its whole tree component; 0 elsewhere.  All
    three are of the CSR index dtype.

    Leaf peel: each round removes the live vertices of degree below 2.
    Every vertex keeps the XOR of its live neighbours' ids, so a leaf reads
    its one live neighbour directly, and hangs from it; a vertex left with
    no live neighbour is a root.  Two leaves that remove each other in the
    same round form a K2, whose larger vertex hangs from the smaller.  The
    degree and XOR updates of a round are grouped by neighbour with one
    sort of (neighbour, leaf) keys and a reduceat, so the peel is O(n + m)
    work plus a fixed cost per round; a pendant path of length L takes
    about L rounds.  One pass over the rounds in reverse then resolves
    every vertex to the end of its chain of hangs.
    """
    if G._peeled is not None:
        return G._peeled
    n, ptr = G._n, G._indptr
    deg = G.degrees()
    # XOR of each neighbour list, from prefix XORs of the CSR indices
    xor = np.zeros(ptr[-1] + 1, dtype=deg.dtype)
    np.bitwise_xor.accumulate(G._indices, out=xor[1:])
    xor = np.take(xor, ptr)
    np.bitwise_xor(xor[1:], xor[:-1], out=xor[:-1])
    xor = xor[:-1]
    hang = np.arange(n, dtype=deg.dtype)
    alive = deg > 0  # isolated vertices are roots already
    # a round's leaves sort by the keys (neighbour << bits) | leaf; the XOR
    # of a run of keys carries the XOR of its leaves in the low bits
    bits = max(1, (n - 1).bit_length())
    if bits > 31:
        raise GraphError("the peel packs two vertex ids into int64 keys; n must be at most 2**31")
    low = (1 << bits) - 1
    frontier = np.flatnonzero(deg == 1)
    rounds = []
    # each scratch array goes as soon as it is used: on a sparse random
    # graph the first round holds about a third of all vertices
    while frontier.size:
        rounds.append(frontier.astype(deg.dtype))
        alive[frontier] = False
        key = xor[frontier].astype(np.int64)
        hang[frontier] = key
        key <<= bits
        key |= frontier
        del frontier
        key.sort()
        up = key >> bits
        cut = np.empty(up.size + 1, dtype=bool)
        cut[0] = cut[-1] = True
        np.not_equal(up[1:], up[:-1], out=cut[1:-1])
        cut = np.flatnonzero(cut)
        hit = up[cut[:-1]]
        del up
        xored = np.bitwise_xor.reduceat(key, cut[:-1]) & low
        del key
        left = deg[hit] - np.diff(cut).astype(deg.dtype)
        del cut
        deg[hit] = left
        xor[hit] ^= xored.astype(xor.dtype)
        # a hit left with no live neighbour is a root, or the other leaf of
        # a K2, whose smaller vertex is the root; no live vertex hangs from
        # it, so it leaves the peel here.  The degree and XOR of a removed
        # vertex may change above; they are never read again
        gone = np.flatnonzero(left == 0)
        if gone.size:
            gone, other = hit[gone], xored[gone]
            pair = np.compress(~alive[gone] & (gone < other), gone)
            hang[pair] = pair
            alive[gone] = False
        frontier = np.compress(left == 1, hit)
    del xor
    for frontier in reversed(rounds):
        hang[frontier] = np.take(hang, np.take(hang, frontier))
    del rounds
    deg[~alive] = 0
    owned = np.bincount(hang, minlength=n).astype(deg.dtype)
    for a in (deg, hang, owned):
        a.setflags(write=False)
    G._peeled = deg, hang, owned
    return G._peeled


def _core_degrees(G: Graph) -> np.ndarray:
    """Degree of each vertex in the 2-core, or 0 for a vertex outside it;
    read-only, from the peel cached on G (_peel)."""
    return _peel(G)[0]


def two_core(G: Graph) -> InducedSubgraph:
    """Maximal subgraph with minimum degree 2 (empty if none exists), from
    the peel cached on G."""
    return induced_subgraph(G, np.flatnonzero(_core_degrees(G) > 0))


@dataclass(frozen=True)
class Kernel:
    """The 2-core of a graph with its degree-2 chains suppressed.

    vertices holds, ascending, the labels of the core vertices of core
    degree at least 3 and the least vertex of each core component that is
    a bare cycle; so the kernel has one vertex for each bare cycle.  The
    chains are the edges of the kernel multigraph, loops and parallel
    chains included, one array entry each: chain i runs from
    vertices[tail[i]] to vertices[head[i]] (the same vertex for a loop)
    through the inner vertices inner[offsets[i]:offsets[i + 1]], labels of
    the graph listed from tail to head.  A bare cycle is one loop, listed
    from its least vertex towards the smaller of that vertex's neighbours.
    Every core edge lies on exactly one chain.
    """

    vertices: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    offsets: np.ndarray
    inner: np.ndarray

    @property
    def length(self) -> np.ndarray:
        """Edge count of each chain."""
        return np.diff(self.offsets) + 1


def kernel(G: Graph) -> Kernel:
    """Kernel of G, from the 2-core peel cached on G, on arrays; cached on
    G with read-only arrays, so it is built at most once.

    The core darts are numbered in CSR order, their heads relabeled to core
    indices by one gather from an n-long map, and each is paired with its
    reverse by inverting the argsort of the (head, tail) keys; the work is
    O(n) plus a sort of the core darts.  The kernel vertices are the core
    vertices of core degree at least 3 and the least vertex of each bare
    cycle: _component_roots over the edges between vertices of core degree
    2 labels each run of them by its least vertex, and a run that no dart
    joins to a vertex of core degree at least 3 is a bare cycle.  A dart
    into any other vertex steps to that vertex's other dart, and pointer
    jumping follows the steps to give every dart the last dart of its chain
    and the number of darts after it, until every dart's last dart ends at
    a kernel vertex.  A chain starts at each dart leaving a kernel vertex;
    of its two orientations the one whose first dart comes first is kept,
    so the chains are listed by tail, then by the first vertex after it.
    """
    if G._kernel is not None:
        return G._kernel
    deg = _core_degrees(G)
    core = np.flatnonzero(deg > 0)
    cdeg = deg[core].astype(np.int64)
    heads = G._indices[_dart_positions(G._indptr, core)]
    # core darts in CSR order, tail and head as indices into core
    index = np.full(G.n, -1, dtype=heads.dtype)
    index[core] = np.arange(core.size, dtype=heads.dtype)
    head = np.take(index, heads)
    del index, heads
    head = head[head >= 0].astype(np.int64)
    tail = np.repeat(np.arange(core.size), cdeg)
    first = np.cumsum(cdeg) - cdeg  # each core vertex's first dart
    # the darts sorted by (head, tail) are the reverses of the darts in
    # order, so inverting that sort pairs each dart with its reverse
    rev = np.empty(head.size, dtype=np.int64)
    rev[np.argsort(head * core.size + tail)] = np.arange(head.size)
    # each run of core-degree-2 vertices is labelled by its least vertex,
    # every other vertex by itself; the labels are the kernel vertices,
    # less the runs a dart leaves for a vertex of core degree 3 or more,
    # which lie on chains between such vertices
    two = cdeg == 2
    on, to = two[tail], two[head]
    run = on & to & (tail < head)
    root = _component_roots(core.size, tail[run], head[run])
    branch = root == np.arange(core.size)
    branch[root[tail[on & ~to]]] = False
    through = ~branch[head]
    step = np.where(through, 2 * first[head] + 1 - rev, np.arange(head.size))
    # every bare cycle has a kernel vertex, so every dart's steps reach one
    last, after = step, through.astype(np.int64)
    while through[last].any():
        after = after + after[last]
        last = last[last]
    index = np.cumsum(branch) - 1  # kernel index of each kernel vertex
    start = np.flatnonzero(branch[tail])
    start = start[start < rev[last[start]]]
    end = last[start]
    offsets = np.zeros(start.size + 1, dtype=np.int64)
    np.cumsum(after[start], out=offsets[1:])
    # the inner vertices are the heads of the kept chains' darts before
    # their last; the other orientations find no chain
    chain = np.full(head.size, -1)
    chain[end] = np.arange(start.size)
    mid = np.flatnonzero(through)
    c = chain[last[mid]]
    mid, c = mid[c >= 0], c[c >= 0]
    inner = np.empty(offsets[-1], dtype=np.int64)
    inner[offsets[c + 1] - after[mid]] = core[head[mid]]
    K = Kernel(core[branch], index[tail[start]], index[head[end]], offsets, inner)
    for a in (K.vertices, K.tail, K.head, K.offsets, K.inner):
        a.setflags(write=False)
    G._kernel = K
    return K


def _core_components(K: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """(core, labels): every vertex of the 2-core whose kernel is K, once,
    and labels equal exactly on the vertices of one core component.

    The kernel vertices are labelled by _component_roots over the chain
    ends, the labeller behind Graph._components, and the inner vertices of
    a chain take the label of its ends.
    """
    label = _component_roots(K.vertices.size, K.tail, K.head)
    core = np.concatenate([K.vertices, K.inner])
    labels = np.concatenate([label, np.repeat(label[K.tail], np.diff(K.offsets))])
    return core, labels


def giant_vertices(G: Graph) -> np.ndarray:
    """Vertices of the largest connected component, ascending; ties broken
    by the smallest contained vertex.

    Only the 2-core is labelled, from the kernel cached on G
    (_core_components).  The peel's forest maps each component to its core
    vertices, or else to its root, so a component's size is the sum of the
    owned counts (_peel) of those vertices.  The winner's vertices are the
    ones the forest maps into it, found by one gather of a mask.
    """
    if G.n == 0:
        raise GraphError("empty graph has no components")
    deg, forest, owned = _peel(G)
    core, labels = _core_components(kernel(G))
    sizes = np.bincount(labels, weights=owned[core])
    tree = deg == 0
    tree_top = int(owned.max(where=tree, initial=0))
    top = max(int(sizes.max(initial=0)), tree_top)
    # mark the core vertices or the root of every largest component
    mark = np.zeros(G.n, dtype=bool)
    mark[core[sizes[labels] == top]] = True
    roots = np.flatnonzero(tree & (owned == top)) if tree_top == top else []
    mark[roots] = True
    if np.count_nonzero(sizes == top) + len(roots) > 1:
        # the least vertex of a largest component names the winner
        rep = forest[np.argmax(mark[forest])]
        mark[:] = False
        if deg[rep]:
            mark[core[labels == labels[np.argmax(core == rep)]]] = True
        else:
            mark[rep] = True
    return np.flatnonzero(mark[forest])


def giant_component(G: Graph) -> InducedSubgraph:
    """Largest connected component; ties broken by smallest contained label."""
    return induced_subgraph(G, giant_vertices(G))


# Most path prefixes enumerate_cycles expands at once.  This bounds one
# expansion, not the search: its stack keeps one remainder batch per depth,
# so the peak memory grows with max_length.
EXPAND_SLICE = 512
# Most entries of the dart index enumerate_cycles builds for one block of
# roots; at least (N + 1)**2 keeps a kernel of N vertices in one block.
INDEX_ENTRIES = 1 << 18


def enumerate_cycles(G: Graph, max_length: int, cap: int = CYCLE_CAP) -> list[tuple[int, ...]]:
    """All simple cycles of length at most max_length, as canonical tuples.

    A cycle (v0, ..., v_{k-1}) is canonical when v0 is its smallest vertex
    and v1 < v_{k-1}; each cycle appears exactly once, and the list is
    sorted.  Raises CycleBudgetError if there are more than cap cycles.

    The search runs on the kernel.  A cycle is a loop, a bare cycle
    included, or a closed path of two or more chains through distinct
    kernel vertices.  Such a
    path is rooted at its least kernel vertex r and kept in the orientation
    whose first chain id is below its closing chain id.  The roots run in
    consecutive blocks, and the paths from the roots of a block grow
    together, one chain per step, as arrays of prefixes: a prefix steps
    along a chain to w only when w > r, w is not on it yet and its length
    stays below max_length, and the step closes a cycle for each chain from
    w back to r whose id is above the first chain's and whose length keeps
    the cycle within max_length.  Each block has a direct index over the
    kernel darts, sorted by (tail, head), that gives the first dart of any
    vertex whose head is at least a given root of the block.  So a prefix
    reads only the darts past its root, and the darts w -> r that close a
    step take two gathers.  The index has one row per vertex with darts
    into the block and one row shared by all other vertices; a block takes
    as many roots as keep it within INDEX_ENTRIES entries, which is every
    root of a kernel of at most 511 vertices.  Within a block, a stack of
    prefix batches is expanded deepest first, at most EXPAND_SLICE prefixes
    at a time, and the count is checked against cap after each expansion.
    The rest of a cut batch stays on the stack, so the stack holds one
    remainder batch per depth; past the roots, a batch has at most
    EXPAND_SLICE times the largest kernel degree prefixes, each as wide as
    its depth.  So EXPAND_SLICE bounds one expansion, and the peak memory
    grows with max_length.
    Vertex tuples are built only for the cycles found.
    """
    if max_length < 3:
        return []
    K = kernel(G)
    length = K.length
    loop = K.tail == K.head
    loops = np.flatnonzero(loop & (length <= max_length))[:, None]
    found = [(loops, np.ones(loops.shape, dtype=bool))]
    count = loops.size
    if count > cap:
        raise CycleBudgetError(cap, max_length)
    # search darts: both orientations of each chain short enough to share a
    # cycle with another, sorted by (tail, head)
    ids = np.flatnonzero(~loop & (length < max_length))
    N = K.vertices.size
    tails = np.concatenate([K.tail[ids], K.head[ids]])
    heads = np.concatenate([K.head[ids], K.tail[ids]])
    order = np.argsort(tails * N + heads)
    tails, heads = tails[order], heads[order]
    chains = np.concatenate([ids, ids])[order]
    forward = order < ids.size
    steps = length[chains]
    ptr = np.searchsorted(tails, np.arange(N + 1))
    itype = _index_dtype(N, heads.size)
    base = ptr[:-1]  # each vertex's first dart whose head is at least r0
    r0 = 0
    while r0 < N:
        # a block of roots r0 .. r1 - 1, as many as keep its index within
        # INDEX_ENTRIES: one row for each vertex with darts into the block,
        # which by symmetry are the heads of the darts out of it, and one
        # row for every other vertex, each row one entry wider than the block
        ends = np.arange(r0 + 1, N + 1)
        entries = (np.minimum(ptr[ends] - ptr[r0], N) + 1) * (ends - r0 + 1)
        r1 = r0 + max(1, int(np.count_nonzero(entries <= INDEX_ENTRIES)))
        width = r1 - r0 + 1
        into = heads[ptr[r0]:ptr[r1]]
        rows = _distinct(into)
        row = np.full(N, rows.size)
        row[rows] = np.arange(rows.size)
        # each dart v -> x into the block fills the cell
        # row[v] * width + x - r0 + 1, and index[k] counts the cells <= k;
        # so shift[v] + index[row[v] * width + j] is the first dart of v
        # whose head is at least r0 + j
        cells = np.sort(row[into] * width + tails[ptr[r0]:ptr[r1]] - r0 + 1)
        index = np.repeat(np.arange(cells.size + 1, dtype=itype),
                          np.diff(cells, prepend=0, append=(rows.size + 1) * width))
        shift = base - index[row * width]
        root = np.arange(r0, r1)
        stack = [(root, np.empty((root.size, 0), dtype=np.int64), np.zeros(root.size, dtype=np.int64))]
        while stack:
            root, path, total = stack.pop()
            if root.size > EXPAND_SLICE:
                stack.append((root[EXPAND_SLICE:], path[EXPAND_SLICE:], total[EXPAND_SLICE:]))
                root, path, total = root[:EXPAND_SLICE], path[:EXPAND_SLICE], total[:EXPAND_SLICE]
            # step only along darts whose head is above the root
            at = heads[path[:, -1]] if path.shape[1] else root
            start = shift[at] + np.take(index, row[at] * width + root - r0 + 1)
            counts = ptr[at + 1] - start
            src = np.repeat(np.arange(root.size), counts)
            dart = _ranges(start, counts)
            w = heads[dart]
            t = total[src] + steps[dart]
            ok = t < max_length
            if path.shape[1]:
                for on_path in heads[path].T:
                    ok &= on_path[src] != w
            src, dart, w, t = src[ok], dart[ok], w[ok], t[ok]
            r = root[src]
            first = chains[path[:, 0]][src] if path.shape[1] else chains[dart]
            # close through each dart w -> r
            key = row[w] * width + r - r0
            start = np.take(index, key)
            hits = np.take(index, key + 1) - start
            closing = np.flatnonzero(hits)
            hits = hits[closing]
            back = _ranges(shift[w[closing]] + start[closing], hits)
            closing = np.repeat(closing, hits)
            ok = (chains[back] > first[closing]) & (t[closing] + steps[back] <= max_length)
            closing, back = closing[ok], back[ok]
            count += closing.size
            if count > cap:
                raise CycleBudgetError(cap, max_length)
            if closing.size:
                darts = np.column_stack([path[src[closing]], dart[closing], back])
                found.append((chains[darts], forward[darts]))
            grow = t + 1 < max_length
            if grow.any():
                stack.append((r[grow], np.column_stack([path[src[grow]], dart[grow]]), t[grow]))
        base = shift + index[row * width + width - 1]
        r0 = r1
    return sorted(_cycle_tuples(K, found))


def _cycle_tuples(K: Kernel, found) -> list[tuple[int, ...]]:
    """Canonical vertex tuples of cycles given as (chain ids, forward flags)
    pairs of equal-shape arrays, one row per cycle listing its chains in
    walk order.  Each chain contributes the vertex it leaves, then its
    inner vertices in the walk's direction."""
    chain = np.concatenate([c.ravel() for c, _ in found])
    forward = np.concatenate([f.ravel() for _, f in found])
    if not chain.size:
        return []
    per_cycle = np.concatenate([np.full(len(c), c.shape[1]) for c, _ in found])
    seg = K.length[chain]
    seg_start = np.cumsum(seg) - seg
    which = np.repeat(np.arange(chain.size), seg)
    pos = np.arange(which.size) - seg_start[which]
    verts = K.vertices[np.where(forward, K.tail[chain], K.head[chain])][which]
    mid = pos > 0
    c, j = chain[which[mid]], pos[mid]
    verts[mid] = K.inner[np.where(forward[which[mid]], K.offsets[c] + j - 1, K.offsets[c + 1] - j)]
    size = np.add.reduceat(seg, np.cumsum(per_cycle) - per_cycle)
    begin = np.cumsum(size) - size
    out = []
    for k in _distinct(size).tolist():
        rows = verts[begin[size == k][:, None] + np.arange(k)]
        # rotate each row to its least vertex, then orient it
        rows = np.take_along_axis(rows, (rows.argmin(axis=1)[:, None] + np.arange(k)) % k, axis=1)
        flip = rows[:, 1] > rows[:, -1]
        rows[flip, 1:] = rows[flip, :0:-1]
        out += zip(*rows.T.tolist())
    return out


# -- edge list text format: first line "n m", then one "u v" line per edge --

def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError("header must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise GraphError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, edges)


def format_edge_list(G: Graph) -> str:
    rows = [f"{G.n} {G.m}"]
    rows.extend(f"{u} {v}" for u, v in G.edge_array)
    return "\n".join(rows) + "\n"


def load_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


# -- small named constructors used by fixtures, tests, and the CLI --

def path_graph(n: int) -> Graph:
    i = np.arange(max(n - 1, 0))
    return Graph(n, np.column_stack([i, i + 1]))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    i = np.arange(n)
    return Graph(n, np.column_stack([i, (i + 1) % n]))


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def hypercube_graph(d: int) -> Graph:
    if d < 0:
        raise GraphError("hypercube dimension must be nonnegative")
    n = 1 << d
    return Graph(n, [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)])


def grid_graph(rows: int, cols: int) -> Graph:
    idx = np.arange(rows * cols).reshape(rows, cols)
    across = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    down = np.column_stack([idx[:-1].ravel(), idx[1:].ravel()])
    return Graph(rows * cols, np.concatenate([across, down]))
