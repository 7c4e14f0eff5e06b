"""Simple undirected graphs and the structural operations the rest of the
package builds on: components, 2-cores, induced subgraphs, quotients, and
bounded-length cycle enumeration.

Vertices are the integers 0..n-1.  Self-loops and parallel edges are
rejected.  Storage is a canonical int64 edge array (pairs u < v sorted by
colex code) plus a CSR adjacency with int32 indices while they fit, so the
structural operations stay cheap at n around 10^6.  Graph(n, edges)
validates and sorts its input; code that holds canonical edges already
builds through Graph._from_canonical.

Only component labels (Graph._components, behind component_count,
component_labels and giant_component) and breadth-first search (_bfs,
behind bfs_tree) run in scipy, through the adapter _csr_matrix; each
imports scipy.sparse when first called.  Everything else here, the 2-core,
kernel and cycle enumeration included, runs on numpy alone.

A Graph caches its component labels and its read-only 2-core degrees
(_core_degrees, behind two_core, kernel and enumerate_cycles), each
computed at most once, whichever function asks first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


def _csr_matrix(n: int, indptr: np.ndarray, indices: np.ndarray):
    """scipy view of a CSR adjacency on 0..n-1, every dart of weight 1.0;
    float64 is the weight type scipy's graph routines work in, so they make
    no copy of the weights."""
    from scipy.sparse import csr_matrix

    return csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))


def _bfs(n: int, indptr: np.ndarray, indices: np.ndarray, root: int) -> tuple[np.ndarray, np.ndarray]:
    """bfs_tree over a CSR adjacency, whose darts are followed as given."""
    if not 0 <= root < n:
        raise GraphError("root out of range")
    from scipy.sparse.csgraph import breadth_first_order

    order, parent = breadth_first_order(
        _csr_matrix(n, indptr, indices), root, directed=True, return_predecessors=True
    )
    parent[parent < 0] = -1  # scipy marks the root and unreached vertices -9999
    return order, parent


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
    int32, the type scipy's graph routines take without a copy, while n and
    darts fit in it, and int64 beyond."""
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

    __slots__ = ("_n", "_edges", "_indptr", "_indices", "_labels", "_ncomp", "_core_deg")

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
        self._core_deg = None

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

    def degree(self, v: int) -> int:
        return int(self._indptr[v + 1] - self._indptr[v])

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
        if self._labels is None:
            if self._n == 0:
                self._ncomp, self._labels = 0, np.zeros(0, dtype=np.int64)
            else:
                from scipy.sparse.csgraph import connected_components

                mat = _csr_matrix(self._n, self._indptr, self._indices)
                ncomp, labels = connected_components(mat, directed=False)
                self._ncomp, self._labels = int(ncomp), labels
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


def bfs_tree(G: Graph, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first search from root: (order, parent).

    order lists the vertices reached, in first-in first-out order with each
    vertex's neighbours taken ascending.  parent[v] is the vertex that first
    reached v, or -1 for the root and for every vertex not reached.  The
    search runs in scipy over G's own CSR, which holds both dart directions.
    """
    return _bfs(G.n, G._indptr, G._indices, root)


@dataclass(frozen=True)
class InducedSubgraph:
    """Induced subgraph relabeled to 0..k-1, with the label correspondence.

    old_labels[i] is the original label of new vertex i (sorted ascending).
    """

    graph: Graph
    old_labels: np.ndarray


def induced_subgraph(G: Graph, vertices) -> InducedSubgraph:
    """Subgraph induced on the given vertex set, relabeled compactly.

    Only the darts of the kept vertices are read, and each head is looked
    up in the sorted kept set, so the work is O(|S| + vol(S) log |S|) for
    the kept set S and the sum vol(S) of its degrees, whatever G's size.
    """
    keep = np.sort(np.asarray(list(vertices) if not isinstance(vertices, np.ndarray) else vertices,
                              dtype=np.int64))
    first = np.ones(keep.size, dtype=bool)
    first[1:] = keep[1:] != keep[:-1]
    keep = keep[first]
    if keep.size and (keep[0] < 0 or keep[-1] >= G.n):
        raise GraphError("vertex out of range")
    ptr = G._indptr
    heads = G._indices[_dart_positions(ptr, keep)]
    tails = np.repeat(np.arange(keep.size), ptr[keep + 1] - ptr[keep])
    new = np.searchsorted(keep, heads)
    # a dart from a kept tail down to a kept head is one edge (head, tail);
    # CSR order sorts these by (tail, head), which is colex order
    down = new < tails
    down[down] = keep[new[down]] == heads[down]
    edges = np.column_stack([new[down], tails[down]])
    return InducedSubgraph(Graph._from_canonical(keep.size, edges), keep)


def _dart_positions(ptr: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """CSR positions of the darts leaving the given vertices, concatenated."""
    starts = ptr[vertices]
    counts = ptr[vertices + 1] - starts
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _core_degrees(G: Graph) -> np.ndarray:
    """Degree of each vertex in the 2-core, or 0 for a vertex outside it.

    The array is read-only and cached on G, so G is peeled at most once.
    Frontier peel over the CSR arrays: each round removes the live vertices
    of degree below 2 and lowers the degrees of their live neighbours, which
    form the next frontier when they drop below 2.  Only the darts of
    removed vertices are read, so the whole peel is O(n + m) work; each
    round also has a fixed cost, and a pendant path of length L takes
    about L rounds.
    """
    if G._core_deg is not None:
        return G._core_deg
    ind = G._indices
    deg = G.degrees()
    alive = deg > 0  # isolated vertices have no darts to read
    frontier = np.flatnonzero(deg == 1)
    while frontier.size:
        alive[frontier] = False
        heads = ind[_dart_positions(G._indptr, frontier)]
        hit, drop = np.unique(heads[alive[heads]], return_counts=True)
        deg[hit] -= drop
        frontier = hit[deg[hit] < 2]
    deg[~alive] = 0
    deg.setflags(write=False)
    G._core_deg = deg
    return deg


def two_core(G: Graph) -> InducedSubgraph:
    """Maximal subgraph with minimum degree 2 (empty if none exists), from
    the peel _core_degrees caches on G."""
    return induced_subgraph(G, np.flatnonzero(_core_degrees(G)))


def giant_label(G: Graph) -> int:
    """Component label of the largest component in G.component_labels();
    ties broken by smallest contained vertex."""
    if G.n == 0:
        raise GraphError("empty graph has no components")
    ncomp, labels = G._components()
    sizes = np.bincount(labels, minlength=ncomp)
    candidates = np.flatnonzero(sizes == sizes.max())
    if len(candidates) == 1:
        return int(candidates[0])
    # first vertex with a candidate label has the smallest label overall
    firsts = [np.argmax(labels == c) for c in candidates]
    return int(candidates[int(np.argmin(firsts))])


def giant_component(G: Graph) -> InducedSubgraph:
    """Largest connected component; ties broken by smallest contained label."""
    return induced_subgraph(G, np.flatnonzero(G.component_labels() == giant_label(G)))


def contract_sets(G: Graph, sets) -> Graph:
    """Quotient graph: each given vertex set becomes one vertex.

    Sets must be disjoint and nonempty.  Vertices outside every set are
    dropped, loops arising inside a set are dropped, and parallel edges
    collapse, so the result is a simple graph on len(sets) vertices.  When
    each set induces a connected subgraph, the result is a minor of G.
    """
    return _contract_edges(G.n, G.edge_array, sets)


def _contract_edges(n: int, edges: np.ndarray, sets) -> Graph:
    """contract_sets of the graph on 0..n-1 whose edges are the (k, 2) array
    edges, which may repeat a pair or list it in either orientation."""
    part = np.full(n, -1, dtype=np.int64)
    count = 0
    for i, s in enumerate(sets):
        members = np.asarray(list(s) if not isinstance(s, np.ndarray) else s, dtype=np.int64)
        if members.size == 0:
            raise GraphError("contraction sets must be nonempty")
        if members.min() < 0 or members.max() >= n:
            raise GraphError("vertex out of range")
        if (part[members] >= 0).any():
            raise GraphError("contraction sets must be disjoint")
        part[members] = i
        count = i + 1
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise GraphError("edge endpoint out of range")
    a = part[edges[:, 0]]
    b = part[edges[:, 1]]
    keep = (a >= 0) & (b >= 0) & (a != b)
    a, b = a[keep], b[keep]
    codes = np.unique(_encode_pairs(np.minimum(a, b), np.maximum(a, b)))
    return Graph._from_canonical(count, _decode_pairs(codes))


class Chain(NamedTuple):
    """A maximal path of the 2-core whose inner vertices have degree 2 there.

    tail and head index Kernel.vertices and are equal for a loop; inner
    lists the inner vertices, as labels of the graph, from tail to head.
    """

    tail: int
    head: int
    inner: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.inner) + 1


@dataclass(frozen=True)
class Kernel:
    """The 2-core of a graph with its degree-2 chains suppressed.

    vertices holds, ascending, the labels of the core vertices of core
    degree at least 3.  chains are the edges of the kernel multigraph,
    loops and parallel chains included.  rings are the core components with
    no kernel vertex, which are bare cycles, each listed from its least
    vertex towards the smaller of that vertex's neighbours.  Every core
    edge lies on exactly one chain or ring.
    """

    vertices: np.ndarray
    chains: list[Chain]
    rings: list[tuple[int, ...]]


def kernel(G: Graph) -> Kernel:
    """Peel G to its 2-core and walk each maximal degree-2 chain once."""
    deg = _core_degrees(G)
    core = np.flatnonzero(deg)
    heads = G._indices[_dart_positions(G._indptr, core)]
    flat = heads[deg[heads] > 0].tolist()
    # each core vertex's neighbours inside the core, sorted
    adj: dict[int, list[int]] = {}
    pos = 0
    for v, d in zip(core.tolist(), deg[core].tolist()):
        adj[v] = flat[pos:pos + d]
        pos += d
    branch = core[deg[core] >= 3]
    index = {v: i for i, v in enumerate(branch.tolist())}
    walked: set[int] = set()

    def walk(start: int, x: int) -> tuple[list[int], int]:
        """Degree-2 vertices from x on, stepping away from start, and the
        vertex that ends the walk: a kernel vertex, or start itself."""
        inner, prev = [], start
        while x != start and x not in index:
            inner.append(x)
            a, b = adj[x]
            prev, x = x, (b if a == prev else a)
        walked.update(inner)
        return inner, x

    chains = []
    for u, i in index.items():
        for w in adj[u]:
            if w in walked or (w in index and w < u):
                continue  # this chain was walked from its other end
            inner, end = walk(u, w)
            chains.append(Chain(i, index[end], tuple(inner)))
    rings = []
    for v in core[deg[core] == 2].tolist():
        if v not in walked:
            rings.append((v, *walk(v, adj[v][0])[0]))
    return Kernel(branch, chains, rings)


def _canonical(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate the cycle to start at its least vertex, then orient it so that
    the second entry is below the last."""
    i = cycle.index(min(cycle))
    cycle = cycle[i:] + cycle[:i]
    return cycle if cycle[1] < cycle[-1] else cycle[:1] + cycle[:0:-1]


def enumerate_cycles(G: Graph, max_length: int, cap: int = CYCLE_CAP) -> list[tuple[int, ...]]:
    """All simple cycles of length at most max_length, as canonical tuples.

    A cycle (v0, ..., v_{k-1}) is canonical when v0 is its smallest vertex
    and v1 < v_{k-1}; each cycle appears exactly once, and the list is
    sorted.  Raises CycleBudgetError if there are more than cap cycles.

    The search runs on the kernel.  A cycle is a ring, a loop, or a closed
    path of two or more chains through distinct kernel vertices.  Such a
    path is rooted at its least kernel vertex r and kept in the orientation
    whose first chain id is below its closing chain id.  A dict from each
    kernel neighbour of r to the chains back to r closes a path by lookup,
    so the search descends only while another chain could still close it.
    """
    if max_length < 3:
        return []
    K = kernel(G)
    labels = K.vertices.tolist()
    found = [ring for ring in K.rings if len(ring) <= max_length]
    # darts[v]: (far end, chain id, length, walk from v, walk back to v)
    darts: list[list[tuple]] = [[] for _ in labels]
    for c, chain in enumerate(K.chains):
        a, b, inner = chain
        if a == b:
            if chain.length <= max_length:
                found.append((labels[a], *inner))
        elif chain.length < max_length:
            there = (labels[a], *inner)
            back = (labels[b], *inner[::-1])
            darts[a].append((b, c, chain.length, there, back))
            darts[b].append((a, c, chain.length, back, there))
    if len(found) > cap:
        raise CycleBudgetError(cap, max_length)
    on_path = [False] * len(labels)
    for r, root_darts in enumerate(darts):
        close: dict[int, list[tuple]] = {}
        for w, c, length, _, back in root_darts:
            if w > r:
                close.setdefault(w, []).append((c, length, back))
        if not close:
            continue
        on_path[r] = True
        first = -1  # chain id of the current path's first chain
        # frames: (vertex, path length, path walk up to it, darts left to try)
        stack = [(r, 0, (), iter(root_darts))]
        while stack:
            _, length, prefix, todo = stack[-1]
            for w, c, step, there, _ in todo:
                total = length + step
                if w <= r or on_path[w] or total >= max_length:
                    continue
                if len(stack) == 1:
                    first = c
                for cc, back_length, back in close.get(w, ()):
                    if cc > first and total + back_length <= max_length:
                        found.append(prefix + there + back)
                        if len(found) > cap:
                            raise CycleBudgetError(cap, max_length)
                if total + 1 < max_length:
                    on_path[w] = True
                    stack.append((w, total, prefix + there, iter(darts[w])))
                    break
            else:
                on_path[stack.pop()[0]] = False
    return sorted(_canonical(cycle) for cycle in found)


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
    n = 1 << d
    return Graph(n, [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)])


def grid_graph(rows: int, cols: int) -> Graph:
    idx = np.arange(rows * cols).reshape(rows, cols)
    across = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    down = np.column_stack([idx[:-1].ravel(), idx[1:].ravel()])
    return Graph(rows * cols, np.concatenate([across, down]))
