"""Genus amplification by random edges.

A connected base graph of bounded maximum degree is cut into equal-size
connected cores; contracting each core of the random-edge graph onto a
single vertex yields a quotient that is a minor of the perturbed graph, so
any genus lower bound certified for the quotient transfers to the whole.
The quotient of a sublinear number of random edges is already a uniform
random graph dense enough to have genus proportional to its size, which is
what makes the genus of bounded-degree graphs fragile under perturbation.

The pieces and cores depend only on the base graph, l and Delta, so
fragile_experiment computes them once per (l, Delta) and caches them on the
base Graph; the trials of a run that share a base graph decompose it once
and then only draw pairs, contract them and bound the quotient.  Both
steps of the construction run here: select_cores keeps each piece of the
least size as its own core and finds the others with one first-in
first-out search (graphs._fifo_search, the loop behind bfs_tree) from
their first vertices over the base graph's own CSR, and build_quotient
maps the drawn pairs through the decomposition's core-owner array
(PieceDecomposition.owner) with one gather and one sorted dedupe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .embeddings import (
    genus_lower_bound_density,
    genus_lower_bound_short_cycles,
    genus_upper_bound,
)
from .graphs import (
    Graph,
    GraphError,
    _as_edge_array,
    _decode_pairs,
    _distinct,
    _encode_pairs,
    _fifo_search,
    bfs_tree,
)
from .random_models import uniform_pairs


class DecompositionError(ValueError):
    """Input violates the decomposition preconditions or guarantees."""


@dataclass(frozen=True)
class PieceDecomposition:
    """Disjoint connected pieces of a base graph, with optional cores.

    pieces is a sequence of vertex sets V_1..V_t, each of size between
    l*Delta and l*Delta**2, together covering all but fewer than l*Delta
    vertices, each inducing a connected subgraph.  cores, once selected,
    are connected subsets U_i of V_i sharing the common size
    s = min_i |V_i|; cores is empty until select_cores fills it.
    """

    l: int
    Delta: int
    pieces: tuple[tuple[int, ...], ...]
    cores: tuple[tuple[int, ...], ...]

    @property
    def t(self) -> int:
        return len(self.pieces)

    @property
    def s(self) -> int:
        return min(len(p) for p in self.pieces)

    @cached_property
    def owner(self) -> np.ndarray:
        """Read-only map from each vertex to the index of its core, or -1
        outside every core, built once per decomposition.  Its last entry
        is -1 and lies past the largest core vertex, so it also stands for
        every vertex beyond.  Not a field: == and hash ignore it.

        The cores are concatenated once; a vertex counted twice means two
        cores overlap.  Raises GraphError for an empty core, a negative
        member, or overlapping cores."""
        sizes = np.array([len(core) for core in self.cores], dtype=np.int64)
        if (sizes == 0).any():
            raise GraphError("contraction sets must be nonempty")
        flat = np.fromiter(chain.from_iterable(self.cores), dtype=np.int64)
        if flat.size and flat.min() < 0:
            raise GraphError("vertex out of range")
        if np.bincount(flat).max(initial=0) > 1:
            raise GraphError("contraction sets must be disjoint")
        owner = np.full(int(flat.max(initial=-1)) + 2, -1, dtype=np.int64)
        owner[flat] = np.repeat(np.arange(len(sizes)), sizes)
        owner.setflags(write=False)
        return owner


@dataclass(frozen=True)
class FragileReport:
    """Result of one amplification trial.

    genus_lower_gamma is a certified lower bound for the genus of the
    perturbed graph: in the standard branch it is the short-cycle Euler bound
    on the core quotient (a minor), and in the dense branch (k >= 6n, where
    decomposition is bypassed and t, s, gamma_edges, good_edge_count are
    reported as 0) it is the density bound, genus_lower_bound_density, of
    the graph of random edges alone (a subgraph).
    upper_bound is the base graph's genus bound plus one per added edge.
    t and s come from the cored decomposition of the base graph for
    (l, Delta), which is cached on the base Graph, so trials on one base
    graph report the same t and s without decomposing it again.
    good_edge_count, the number of added edges that join a new pair of
    cores, always equals gamma_edges.  The report echoes n, k and Delta but
    not the seed, which may be a Generator; the fragile command adds its own
    "master:trial" seed column.
    """

    n: int
    k: int
    Delta: int
    l: int
    t: int
    s: int
    gamma_edges: int
    good_edge_count: int
    genus_lower_gamma: int
    upper_bound: int


def _check_base(H: Graph, Delta: int) -> None:
    if Delta < 1:
        raise DecompositionError("Delta must be at least 1")
    if H.n == 0 or H.component_count != 1:
        raise DecompositionError("base graph must be connected")
    maxdeg = int(H.degrees().max())
    if maxdeg > Delta:
        raise DecompositionError(
            f"maximum degree {maxdeg} exceeds Delta={Delta}; the piece-size "
            "guarantee fails for high-degree hubs such as stars"
        )


def _groups(vertices: np.ndarray, labels: np.ndarray, t: int) -> tuple[tuple[int, ...], ...]:
    """Split the ascending vertices by their labels 0..t-1, which the stable
    sort keeps ascending within each group."""
    flat = vertices[np.argsort(labels, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(labels, minlength=t)).tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip([0] + ends[:-1], ends))


def _piece_labels(H: Graph, target: int) -> tuple[np.ndarray, int]:
    """Each vertex's piece index, t for the leftover, and the piece count t
    of decompose_into_pieces with pieces of at least target vertices."""
    order, parent = bfs_tree(H, 0)
    # the tree on search-order positions: up[i] is the position of the
    # parent of the vertex at position i, and the search root points to itself
    pos = np.empty(H.n, dtype=np.int64)
    pos[order] = np.arange(H.n)
    up = pos[parent[order]]
    up[0] = 0
    size = [1] * H.n
    detached: list[int] = []
    parent_at = memoryview(up)  # Python ints without a list copy
    for i in range(H.n - 1, -1, -1):
        if size[i] >= target:
            detached.append(i)
        elif i:
            size[parent_at[i]] += size[i]
    t = len(detached)
    roots = np.array(detached, dtype=np.int64)
    up[roots] = roots
    # pointer jumping, with the detached positions and the search root as
    # fixed points, ends at each position's nearest detached position at or
    # above it, or at the root for the leftover
    jump, nxt = up, up[up]
    while not np.array_equal(nxt, jump):
        jump, nxt = nxt, nxt[nxt]
    piece_id = np.full(H.n, t, dtype=np.int64)
    piece_id[roots] = np.arange(t)
    label = np.empty(H.n, dtype=np.int64)
    label[order] = piece_id[jump]
    return label, t


def decompose_into_pieces(H: Graph, l: int, Delta: int) -> PieceDecomposition:
    """Cut a connected graph of maximum degree at most Delta into connected
    pieces of size between l*Delta and l*Delta**2 covering all but fewer
    than l*Delta vertices.

    Works on the breadth-first spanning tree from vertex 0: scanning
    vertices deepest first, the subtree below a vertex is detached as a
    piece as soon as its undetached part reaches l*Delta vertices.  Every
    proper child subtree was below the threshold at that moment, so a
    detached piece has at most 1 + Delta*(l*Delta - 1) <= l*Delta**2
    vertices, and the final leftover around the root is below l*Delta and
    is discarded.  Pieces are listed in detachment order.
    """
    if l < 1:
        raise DecompositionError("l must be at least 1")
    _check_base(H, Delta)
    target = l * Delta
    if target > H.n:
        raise DecompositionError(
            f"need at least l*Delta={target} vertices, have {H.n}"
        )
    label, t = _piece_labels(H, target)
    covered = np.flatnonzero(label < t)
    pieces = _groups(covered, label[covered], t)
    return PieceDecomposition(l=l, Delta=Delta, pieces=pieces, cores=())


def select_cores(H: Graph, d: PieceDecomposition) -> PieceDecomposition:
    """Shrink each piece to a connected core of the common size s.

    The core is the first s vertices of a breadth-first traversal of the
    piece from its first vertex, which is the same as repeatedly pruning a
    leaf of the piece's spanning tree until s vertices remain, so a piece
    of s vertices is its own core.  The larger pieces are searched at
    once, by one _fifo_search (the loop behind bfs_tree) queued with their
    first vertices, ascending, over H's own CSR without the darts whose two
    ends carry different piece labels; no Graph is built.  The pieces are
    not joined to each other, so the vertices of one piece appear in that
    search in the order of the piece's own breadth-first traversal.
    Vertices outside every piece share the label -1; no start is among
    them, so nothing reaches them.
    """
    t, s = len(d.pieces), d.s
    sizes = np.array([len(piece) for piece in d.pieces], dtype=np.int64)
    flat = np.fromiter(chain.from_iterable(d.pieces), dtype=np.int64)
    label = np.full(H.n, -1, dtype=np.int32)
    label[flat] = np.repeat(np.arange(t), sizes)
    ptr = H._indptr
    inside = np.repeat(label, np.diff(ptr)) == label[H._indices]
    kept = np.zeros(inside.size + 1, dtype=ptr.dtype)
    np.cumsum(inside, out=kept[1:])
    starts = sorted(piece[0] for piece in d.pieces if len(piece) > s)
    order = _fifo_search(kept[ptr], H._indices[inside], starts)[0]
    # rank of each reached vertex within its piece, in search order
    by_piece = order[np.argsort(label[order], kind="stable")]
    counts = np.bincount(label[by_piece], minlength=t)
    rank = np.arange(len(by_piece)) - np.repeat(np.cumsum(counts) - counts, counts)
    core = np.sort(np.concatenate([by_piece[rank < s], flat[np.repeat(sizes == s, sizes)]]))
    cores = _groups(core, label[core], t)
    return PieceDecomposition(l=d.l, Delta=d.Delta, pieces=d.pieces, cores=cores)


def build_quotient(d: PieceDecomposition, edges) -> Graph:
    """Graph on the piece indices 0..t-1, joining i and j when some given
    edge runs between core U_i and core U_j.

    Edges touching a vertex outside every core, or with both ends in the
    same core, contribute nothing.  Equals the contraction of the cores in
    the graph formed by the given edges; since each core is connected in
    the base graph, the result is a minor of the union of base graph and
    given edges, and its genus is a valid lower bound for that union.

    The edges may reach past the last core member, repeat a pair or list
    it in either orientation: d.owner's last entry -1 is read for every
    vertex at or beyond it, one gather maps the pairs to core indices and
    _distinct of their colex codes drops the repeats.
    """
    if not d.cores:
        raise DecompositionError("cores have not been selected")
    edges = _as_edge_array(edges)
    if edges.size and edges.min() < 0:
        raise GraphError("edge endpoint out of range")
    ends = np.take(d.owner, edges, mode="clip")
    ends.sort(axis=1)
    ends = ends[(ends[:, 0] >= 0) & (ends[:, 0] != ends[:, 1])]
    codes = _distinct(_encode_pairs(ends[:, 0], ends[:, 1]))
    return Graph._from_canonical(len(d.cores), _decode_pairs(codes))


def count_good_edges(d: PieceDecomposition, edges_in_order) -> int:
    """Count the edges that join two distinct cores no earlier edge joined.

    Scanning in insertion order, an edge is good when both endpoints lie in
    cores, the cores differ, and the pair of cores is new, so the count is
    the edge count of the quotient over the same edges.
    """
    return build_quotient(d, edges_in_order).m


def _cored_decomposition(H: Graph, l: int, Delta: int) -> PieceDecomposition:
    """select_cores(H, decompose_into_pieces(H, l, Delta)), cached on H per
    (l, Delta).

    The piece count is checked against its guaranteed interval
    (n - l*Delta)/(l*Delta^2) <= t <= n/(l*Delta) before the result is
    cached, so a base that fails raises on every call and leaves nothing
    in the cache.
    """
    d = (H._cored or {}).get((l, Delta))
    if d is None:
        d = select_cores(H, decompose_into_pieces(H, l, Delta))
        lo_t = (H.n - l * Delta) / (l * Delta**2)
        hi_t = H.n / (l * Delta)
        if not (lo_t <= d.t <= hi_t):
            raise DecompositionError(
                f"piece count {d.t} escaped its guaranteed interval "
                f"[{lo_t:.2f}, {hi_t:.2f}]"
            )
        if H._cored is None:
            H._cored = {}
        H._cored[(l, Delta)] = d
    return d


def fragile_experiment(
    H: Graph, Delta: int, k: int, seed=None, ell: int = 3
) -> FragileReport:
    """Perturb H with k uniform random pairs and certify genus bounds.

    Sets l = ceil(3*Delta*n/k), draws the random pairs, takes the cores of
    H for (l, Delta) (_cored_decomposition, computed on the first call
    for H and then read from H), and lower-bounds the genus of the
    perturbed graph by the short-cycle Euler bound (census length ell) on
    the core quotient.
    When k >= 6n the random edges are dense enough on their own:
    decomposition is bypassed and the lower bound is the density bound of
    the random-edge graph (every face of length at least 3, summed over
    its components).
    """
    _check_base(H, Delta)
    if k < 1:
        raise ValueError("k must be at least 1")
    n = H.n
    l = -(-3 * Delta * n // k)
    upper = genus_upper_bound(H) + k
    added = uniform_pairs(n, k, seed)
    if k >= 6 * n:
        return FragileReport(
            n=n, k=k, Delta=Delta, l=l, t=0, s=0,
            gamma_edges=0, good_edge_count=0,
            genus_lower_gamma=genus_lower_bound_density(Graph(n, added)),
            upper_bound=upper,
        )
    d = _cored_decomposition(H, l, Delta)
    gamma = build_quotient(d, added)
    return FragileReport(
        n=n, k=k, Delta=Delta, l=l, t=d.t, s=d.s,
        gamma_edges=gamma.m, good_edge_count=gamma.m,
        genus_lower_gamma=genus_lower_bound_short_cycles(gamma, ell),
        upper_bound=upper,
    )
