"""Rotation systems, face tracing, and genus computations.

A rotation system assigns every vertex a cyclic order of its neighbours.
Tracing the orbits of the dart map (u, v) -> (v, successor of u at v) yields
the faces of the corresponding cellular embedding, and the Euler formula
recovers its genus.  Taking the minimum over all rotation systems gives the
(orientable) genus of the graph; this module computes that minimum exactly by
a branch-and-bound search organised block by block.  For graphs far too large
for the search it provides the cycle-rank upper bound and the Euler-formula
lower bounds: genus_lower_bound takes the best of the density bound and the
short-cycle bound, with a cycle census whose budget follows from m.

Face-count convention for disconnected graphs: the outer faces of the
components are merged, so a graph with components c and per-component face
counts f_c has face_count = sum(f_c) - (kappa - 1).  An isolated vertex
contributes one (empty) face walk.  With this convention

    genus = (m - n - face_count + kappa + 1) / 2

holds for every graph with at least one vertex and equals the sum of the
component genera.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import CYCLE_CAP, CycleBudgetError, Graph, GraphError, enumerate_cycles

from . import _genus_search

Rotation = dict[int, tuple[int, ...]]


class SearchBudgetError(RuntimeError):
    """Raised when the exact search runs out of its budget of darts placed.

    Carries the best rigorous bracket established before giving up.
    """

    def __init__(self, lower_bound: int, upper_bound: int, nodes_explored: int):
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.nodes_explored = nodes_explored
        super().__init__(
            f"genus search budget exhausted after placing {nodes_explored} darts; "
            f"genus is in [{lower_bound}, {upper_bound}]"
        )


@dataclass(frozen=True)
class FaceTrace:
    """Faces of one embedding, as closed dart walks."""

    faces: list[list[tuple[int, int]]]
    face_count: int  # merged count, see module docstring
    component_count: int
    genus: int


@dataclass(frozen=True)
class GenusResult:
    genus: int
    face_count: int
    rotation: Rotation
    nodes_explored: int


def validate_rotation(graph: Graph, rotation: Rotation) -> None:
    """Check that rotation assigns each vertex a permutation of its neighbours."""
    if set(rotation) != set(range(graph.n)):
        raise GraphError("rotation must have exactly the graph's vertices as keys")
    for v in range(graph.n):
        order = rotation[v]
        if len(set(order)) != len(order) or sorted(order) != sorted(graph.neighbors(v).tolist()):
            raise GraphError(f"rotation at vertex {v} is not an ordering of its neighbours")


def trace_faces(graph: Graph, rotation: Rotation) -> FaceTrace:
    """Trace all face walks of the embedding given by rotation.

    The dart following (u, v) is (v, w) where w follows u in the rotation at
    v.  Every dart lies on exactly one face walk; isolated vertices add one
    empty walk each.
    """
    validate_rotation(graph, rotation)
    if graph.n == 0:
        return FaceTrace([], 0, 0, 0)
    position = [
        {w: i for i, w in enumerate(rotation[v])} for v in range(graph.n)
    ]
    faces: list[list[tuple[int, int]]] = []
    seen: set[tuple[int, int]] = set()
    for u in range(graph.n):
        if not rotation[u]:
            faces.append([])
            continue
        for v in rotation[u]:
            if (u, v) in seen:
                continue
            walk = []
            dart = (u, v)
            while dart not in seen:
                seen.add(dart)
                walk.append(dart)
                a, b = dart
                order = rotation[b]
                dart = (b, order[(position[b][a] + 1) % len(order)])
            faces.append(walk)
    kappa = graph.component_count
    face_count = len(faces) - (kappa - 1)
    twice_genus = graph.m - graph.n - face_count + kappa + 1
    if twice_genus < 0 or twice_genus % 2:
        raise AssertionError("face trace violated the Euler formula")
    return FaceTrace(
        faces=faces,
        face_count=face_count,
        component_count=kappa,
        genus=twice_genus // 2,
    )


def genus_upper_bound(graph: Graph) -> int:
    """Cycle-rank bound: genus <= floor((m - n + kappa) / 2).

    Follows from the Euler formula since every embedding of a graph with an
    edge has at least one face.
    """
    return _rank_upper(graph.n, graph.m, graph.component_count)


def _rank_upper(n: int, m: int, kappa: int) -> int:
    """The cycle-rank bound of genus_upper_bound, for n vertices, m edges
    and kappa components."""
    return max(0, (m - n + kappa) // 2)


def genus_lower_bound_short_cycles(graph: Graph, max_cycle_length: int = 4) -> int:
    """Euler-formula lower bound from a short-cycle census.

    Let C be the number of cycles of length at most ell = max_cycle_length.
    At most 2C faces can be short (each short face walk traverses a cycle and
    each cycle bounds at most two faces), every other face walk has length at
    least ell + 1, and the walk lengths sum to 2m.  Maximising the face count
    under those constraints and plugging into the Euler formula gives

        genus >= ceil((m - n + kappa + 1 - F) / 2),
        F = (2 m + (ell - 2) * 2 C) / (ell + 1).

    The bound is rigorous for graphs with minimum degree 2 and is reported
    unchanged for general graphs.  Pruning a degree-1 vertex changes
    neither m - n + kappa nor the cycle census nor the genus, but m enters
    F, so the value on a graph is at most the bound on its 2-core: pendant
    trees only weaken it, and acyclic graphs return 0.
    Raises CycleBudgetError past CYCLE_CAP cycles, unless the bound is 0
    without any short cycle, in which case no census runs.
    """
    return _short_cycle_lower(graph, int(max_cycle_length), CYCLE_CAP)


def genus_lower_bound(graph: Graph, ell: int = 4) -> int:
    """The best Euler lower bound: the larger of genus_lower_bound_density
    and the short-cycle bound at ell, with the cycle census stopped at
    floor(m/3) cycles.  Never raises CycleBudgetError.

    The stop loses nothing.  Once the census counts C >= m/3 cycles, the
    short-cycle face bound F = (2m + 2C(ell - 2)) / (ell + 1) is at least
    2m/3, its value at ell = 2, so the short-cycle bound is at most the
    whole-graph bound at ell = 2, which the density bound is never below.
    """
    density = genus_lower_bound_density(graph)
    try:
        return max(density, _short_cycle_lower(graph, int(ell), graph.m // 3))
    except CycleBudgetError:
        return density


def _short_cycle_lower(graph: Graph, ell: int, cap: int) -> int:
    """The short-cycle bound at ell from a census of at most cap cycles.
    Short cycles only lower the bound, so no census runs when the bound
    without them is already 0."""
    n, m, kappa = graph.n, graph.m, graph.component_count
    if _euler_lower(n, m, kappa, ell) == 0:
        return 0
    return _euler_lower(n, m, kappa, ell, len(enumerate_cycles(graph, ell, cap=cap)))


def _euler_lower(n, m, kappa, ell: int, short=0):
    """The Euler face-count bound of genus_lower_bound_short_cycles, for n
    vertices, m edges, kappa components and short cycles of length at most
    ell; 0 when the cycle rank m - n + kappa is not positive.  Every genus
    lower bound in genuslab is this one.  Exact integer arithmetic,
    elementwise on integer arrays; Python ints give a Python int.
    """
    if ell < 2:
        raise ValueError("the short-cycle length must be at least 2")
    rank = m - n + kappa
    num = (rank + 1) * (ell + 1) - 2 * m - 2 * short * (ell - 2)
    lower = -((-num) // (2 * (ell + 1)))
    return lower * (lower > 0) * (rank > 0)


def genus_lower_bound_density(graph: Graph) -> int:
    """Edge-density lower bound: the Euler bound with no short faces (every
    face of a simple graph has length >= 3) summed over the components.
    For a component with v vertices, e edges and a cycle this is the
    classical e <= 3v - 6 + 6g, i.e. genus >= ceil((e - 3v + 6) / 6).

    Needs no cycle census, so it serves graphs too dense for one.  It is
    never below the whole-graph bound genus_lower_bound_short_cycles(graph,
    2), and agrees with the short-cycle bound at ell = 3 when triangles are
    scarce.
    """
    if graph.n == 0:
        return 0
    ncomp, labels = graph.component_count, graph.component_labels()
    sizes = np.bincount(labels, minlength=ncomp)
    edge_counts = np.bincount(labels[graph.edge_array[:, 0]], minlength=ncomp)
    return int(_euler_lower(sizes, edge_counts, 1, 2).sum())


def _biconnected_edge_blocks(graph: Graph) -> list[list[tuple[int, int]]]:
    """Partition the edges into biconnected blocks (bridges are singletons)."""
    n = graph.n
    adj = graph.adjacency_lists()
    disc = [-1] * n
    low = [0] * n
    timer = 0
    blocks: list[list[tuple[int, int]]] = []
    edge_stack: list[tuple[int, int]] = []
    for s in range(n):
        if disc[s] != -1 or not adj[s]:
            continue
        disc[s] = low[s] = timer
        timer += 1
        stack = [(s, -1, 0)]
        while stack:
            v, parent, i = stack[-1]
            if i < len(adj[v]):
                stack[-1] = (v, parent, i + 1)
                w = int(adj[v][i])
                if w == parent:
                    continue
                if disc[w] == -1:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, 0))
                elif disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    block = []
                    while True:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == (u, v):
                            break
                    blocks.append(block)
    return blocks


def _girth_upper(adj: list[list[int]], stop: int = 0) -> int:
    """Girth of a 2-connected block given by adjacency lists, or the length
    of the first closed walk found that is at most stop; the girth is at
    most that length.

    The breadth-first searches start only at the vertices of degree 3 or
    more, or at vertex 0 of a block that is a cycle: every cycle of a
    2-connected graph that is not a cycle passes through such a vertex, so
    the shortest one is still seen from one of its own vertices.
    """
    n = len(adj)
    best = n + 1
    for s in [v for v in range(n) if len(adj[v]) > 2] or [0]:
        dist = {s: 0}
        par = {s: -1}
        frontier = [s]
        while frontier and 2 * dist[frontier[0]] + 1 < best:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w == par[v]:
                        continue
                    if w in dist:
                        cyc = dist[v] + dist[w] + 1
                        if cyc < best:
                            best = cyc
                            if best <= stop:
                                return best
                    else:
                        dist[w] = dist[v] + 1
                        par[w] = v
                        nxt.append(w)
            frontier = nxt
    return best


def exact_genus(graph: Graph, node_budget: int = 50_000_000) -> GenusResult:
    """Minimum orientable genus by branch-and-bound search over rotation systems.

    The graph is split into biconnected blocks (genus is additive over
    blocks).  A block whose Euler girth bound is 0 first runs the Left-Right
    planarity test: a planar block takes the test's rotation and costs no
    search node, and a non-planar one has its bound lifted to 1.  Every
    other block is searched from its bound upward (see _genus_search), and
    the per-block rotations are concatenated into a rotation system of the
    whole graph that realises the minimum.  node_budget caps the total
    number of search nodes (one dart placed in a vertex's rotation) across
    all blocks; exceeding it raises SearchBudgetError carrying the bracket
    proved so far.
    """
    arcs: list[list[tuple[int, ...]]] = [[] for _ in range(graph.n)]
    # per block to search: (log of the rotation count, Euler girth bound
    # lifted by the planarity test, cycle-rank bound, vertices, out darts,
    # dart heads, girth)
    searchable = []
    # per settled block: (vertices, dart heads, rotation of darts)
    settled = []
    for block in _biconnected_edge_blocks(graph):
        if len(block) == 1:
            u, v = block[0]
            arcs[u].append((v,))
            arcs[v].append((u,))
            continue
        verts = sorted({x for e in block for x in e})
        index = {x: i for i, x in enumerate(verts)}
        out_darts: list[list[int]] = [[] for _ in verts]
        heads = [0] * (2 * len(block))
        for j, (a, b) in enumerate(block):
            out_darts[index[a]].append(2 * j)
            out_darts[index[b]].append(2 * j + 1)
            heads[2 * j] = index[b]
            heads[2 * j + 1] = index[a]
        adj = [[heads[d] for d in outs] for outs in out_darts]
        nv, ne = len(verts), len(block)
        # the Euler girth bound is 0 for every girth up to 2E/(E - V + 2), so
        # the first cycle that short leaves the planarity test to decide
        girth = _girth_upper(adj, 2 * ne // (ne - nv + 2))
        lower = _euler_lower(nv, ne, 1, girth - 1)
        if lower == 0:
            darts = _genus_search.planar_rotation(out_darts, heads)
            if darts is not None:
                settled.append((verts, heads, darts))
                continue
            lower = 1
            girth = _girth_upper(adj)
        space = sum(math.lgamma(len(outs)) for outs in out_darts)
        searchable.append((space, lower, _rank_upper(nv, ne, 1), verts, out_darts, heads, girth))
    # cheap blocks first so a budget overrun brackets as tightly as possible
    searchable.sort(key=lambda t: t[0])

    total_genus = 0
    total_nodes = 0
    for bi, (_, lower, _, verts, out_darts, heads, girth) in enumerate(searchable):
        budget = max(1, node_budget - total_nodes)
        lo, hi, darts, nodes = _genus_search.search_block(out_darts, girth, lower, budget)
        total_nodes += nodes
        if lo < hi:
            rest = searchable[bi + 1 :]
            raise SearchBudgetError(total_genus + lo + sum(b[1] for b in rest),
                                    total_genus + hi + sum(b[2] for b in rest),
                                    total_nodes)
        total_genus += lo
        settled.append((verts, heads, darts))
    for verts, heads, darts in settled:
        for i, row in enumerate(darts):
            arcs[verts[i]].append(tuple(verts[heads[d]] for d in row))

    rotation: Rotation = {
        v: tuple(w for arc in arcs[v] for w in arc) for v in range(graph.n)
    }
    if graph.n == 0:
        return GenusResult(0, 0, rotation, total_nodes)
    face_count = graph.m - graph.n + graph.component_count + 1 - 2 * total_genus
    return GenusResult(total_genus, face_count, rotation, total_nodes)
