"""Cycle-neighbourhood census of sparse graphs just past the critical window.

For a cycle C of a graph G, the vertices interacting with C split into
three classes: the leaf neighbourhood (vertices of tree components of
G - V(C) attached to C by exactly one edge), good neighbours (vertices
outside C and its leaf neighbourhood adjacent to exactly one cycle vertex),
and bad neighbours (those adjacent to more than one cycle vertex).  The
number of short cycles whose neighbourhood statistics stay below explicit
thresholds is asymptotically Poisson; this module computes the counts
exactly on concrete graphs, searches for small denser-than-tree subgraphs,
and assembles the per-trial core report used by the supercritical
experiments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .embeddings import genus_lower_bound_from_cycle_count, genus_upper_bound
from .graphs import (
    CYCLE_CAP,
    Graph,
    GraphError,
    _core_degrees,
    enumerate_cycles,
    giant_label,
    induced_subgraph,
)
from .random_models import gnm


@dataclass(frozen=True)
class CycleNeighborhood:
    """Exact neighbourhood statistics of one cycle.

    leaf_size counts the vertices of all tree components hanging off the
    cycle by exactly one edge, and tree_components counts those components.
    good and bad count the remaining outside vertices adjacent to exactly
    one, respectively more than one, cycle vertex.  neighbor_count, the
    total number of outside vertices adjacent to the cycle, is
    good + bad + tree_components, since a once-attached tree meets the cycle
    in exactly one of its vertices.
    """

    cycle: tuple[int, ...]
    leaf_size: int
    good: int
    bad: int
    tree_components: int

    @property
    def neighbor_count(self) -> int:
        return self.good + self.bad + self.tree_components


def classify_cycle_neighborhood(G: Graph, cycle) -> CycleNeighborhood:
    """Split the vertices adjacent to the given cycle into leaf trees, good
    neighbours, and bad neighbours.

    cycle is a sequence of distinct vertices with consecutive ones (and the
    last and first) adjacent in G.  Chords between cycle vertices are
    allowed and ignored; only the vertex set of the cycle matters for the
    classification.

    A cycle lies in the 2-core, so an outside vertex w attached to it by
    exactly one edge roots a once-attached tree exactly when w is outside
    the 2-core: a cycle in w's component of G - cycle, or a second edge
    from that component back to the cycle, would put w on a cycle or on a
    path between two cycles.  Membership is read from the 2-core degrees
    cached on G, and only the leaf trees themselves are walked.
    """
    cyc = [int(v) for v in cycle]
    k = len(cyc)
    if k < 3 or len(set(cyc)) != k:
        raise GraphError("a cycle needs at least 3 distinct vertices")
    for idx, v in enumerate(cyc):
        if v < 0 or v >= G.n:
            raise GraphError(f"cycle vertex {v} out of range")
        if not G.has_edge(v, cyc[(idx + 1) % k]):
            raise GraphError(
                f"not a cycle of the graph: missing edge {v}-{cyc[(idx + 1) % k]}"
            )
    on_cycle = set(cyc)
    attach: dict[int, int] = {}
    for v in cyc:
        for w in G.neighbors(v).tolist():
            if w not in on_cycle:
                attach[w] = attach.get(w, 0) + 1
    once = np.array([w for w, c in attach.items() if c == 1], dtype=np.int64)
    in_core = _core_degrees(G)[once] > 0

    leaf_size = 0
    for root in once[~in_core].tolist():
        # walk the pendant tree below root, never stepping back onto the cycle
        stack = [(root, -1)]
        while stack:
            u, up = stack.pop()
            leaf_size += 1
            stack.extend((x, u) for x in G.neighbors(u).tolist()
                         if x != up and x not in on_cycle)
    good = int(in_core.sum())
    tree_components = len(once) - good
    bad = len(attach) - len(once)
    return CycleNeighborhood(
        cycle=tuple(cyc),
        leaf_size=leaf_size,
        good=good,
        bad=bad,
        tree_components=tree_components,
    )


def count_census_cycles(
    G: Graph, s: int, i: float, cap: int = CYCLE_CAP
) -> tuple[int, float]:
    """Count cycles passing the four census thresholds; returns (count, x).

    With n = G.n and x = 0.05 * ln(s^3 / n^2), a cycle C passes when

      - its length is at most i*n/s,
      - its leaf neighbourhood has at most x*n^2/s^2 vertices,
      - it has between 1 and x*n/s good neighbours (inclusive),
      - it has no bad neighbours.

    Cycles are enumerated and classified in G itself; both steps read the
    2-core cached on G, so G is peeled at most once.  The count is
    non-decreasing in i for a fixed graph.
    """
    n = G.n
    if s <= 0:
        raise ValueError("s must be positive")
    if i < 0:
        raise ValueError("i must be nonnegative")
    x = 0.05 * math.log(s**3 / n**2)
    leaf_cap = x * n * n / (s * s)
    good_cap = x * n / s
    count = 0
    for cyc in enumerate_cycles(G, math.floor(i * n / s), cap=cap):
        stats = classify_cycle_neighborhood(G, cyc)
        if (
            stats.bad == 0
            and 1 <= stats.good <= good_cap
            and stats.leaf_size <= leaf_cap
        ):
            count += 1
    return count, x


def _connecting_path(
    G: Graph, source: frozenset[int], target: frozenset[int], room: int
) -> list[int] | None:
    """Inner vertices of a shortest path from source to target, if at most
    room of them exist; None otherwise."""
    parent: dict[int, int] = {a: -1 for a in source}
    frontier = sorted(source)
    depth = 0
    while frontier and depth <= room:
        nxt: list[int] = []
        for u in frontier:
            for x in G.neighbors(u).tolist():
                if x in target:
                    inner: list[int] = []
                    v = u
                    while parent[v] != -1:
                        inner.append(v)
                        v = parent[v]
                    return inner
                if x not in parent:
                    parent[x] = u
                    nxt.append(x)
        frontier = nxt
        depth += 1
    return None


def find_small_excess_subgraph(
    G: Graph, max_vertices: int, cap: int = CYCLE_CAP
) -> tuple[int, ...] | None:
    """Search for a connected subgraph on at most max_vertices vertices with
    more edges than vertices; return its vertex set, or None.

    Such a subgraph contains two distinct cycles, each of length at most
    max_vertices, whose union (plus a shortest connecting path when they are
    vertex-disjoint) is itself a witness, so a pair search over the
    enumerated short cycles is exhaustive.  The smallest witness found is
    returned.  Every cycle lives in the 2-core, and so does every simple
    path between two cycles, so the connecting path never enters a pendant
    tree.
    """
    if max_vertices < 4:
        return None  # e > v needs at least 4 vertices in a simple graph
    cycles = enumerate_cycles(G, max_vertices, cap=cap)
    sets = [frozenset(c) for c in cycles]
    best: set[int] | None = None
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            if not (sets[a] & sets[b]):
                continue
            union = sets[a] | sets[b]
            if len(union) <= max_vertices and (best is None or len(union) < len(best)):
                best = set(union)
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            if sets[a] & sets[b]:
                continue
            base = len(sets[a]) + len(sets[b])
            if base > max_vertices or (best is not None and base >= len(best)):
                continue
            inner = _connecting_path(G, sets[a], sets[b], max_vertices - base)
            if inner is not None:
                union = set(sets[a]) | set(sets[b]) | set(inner)
                if best is None or len(union) < len(best):
                    best = union
    return None if best is None else tuple(sorted(best))


def neighborhood_bounds_hold(
    G: Graph, a: float, s: int, cap: int = CYCLE_CAP
) -> bool:
    """Check that every cycle of length below a*n/s has a leaf neighbourhood
    smaller than a^2*n^2/s^2 and fewer than a^2*n/s neighbours.

    Neighbours are all vertices outside the cycle adjacent to it, whichever
    class they fall into.  Vacuously true for acyclic graphs.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if s <= 0:
        raise ValueError("s must be positive")
    n = G.n
    leaf_cap = a * a * n * n / (s * s)
    nb_cap = a * a * n / s
    for cyc in enumerate_cycles(G, math.ceil(a * n / s) - 1, cap=cap):
        stats = classify_cycle_neighborhood(G, cyc)
        if stats.leaf_size >= leaf_cap or stats.neighbor_count >= nb_cap:
            return False
    return True


def predicted_core_vertices(n: int, s: int) -> float:
    """Leading-order vertex count of the giant component's 2-core: 8*s^2/n."""
    return 8.0 * s * s / n


def predicted_core_excess(n: int, s: int) -> float:
    """Leading-order edge surplus (edges minus vertices) of the giant's
    2-core: (16/3)*s^3/n^2."""
    return 16.0 * s**3 / (3.0 * n**2)


def predicted_genus(n: int, s: int) -> float:
    """Leading-order genus of a uniform graph with n/2 + s edges in the
    slightly supercritical range: 8*s^3/(3*n^2)."""
    return 8.0 * s**3 / (3.0 * n**2)


@dataclass(frozen=True)
class SupercriticalReport:
    """Structural statistics of one slightly supercritical trial.

    census_cycle_count and census_threshold are the census statistic and its
    x parameter from count_census_cycles; genus_lower and genus_upper bound
    the genus of the giant component's 2-core, whose genus equals the genus
    of the whole graph once the other components are planar.
    """

    n: int
    m: int
    s: int
    giant_vertices: int
    core_vertices: int
    core_edges: int
    core_excess: int
    short_cycle_count: int
    census_cycle_count: int
    census_threshold: float
    genus_lower: int
    genus_upper: int
    predicted: float


def supercritical_report(
    n: int,
    s: int,
    seed=None,
    ell: int | None = None,
    a: float | None = None,
    cap: int = CYCLE_CAP,
) -> SupercriticalReport:
    """Generate one uniform graph with n/2 + s edges and report the core
    statistics the supercritical analysis is built on.

    ell is the short-cycle census length (default floor(n/s), the natural
    length unit of the regime) used both for short_cycle_count and for the
    genus lower bound on the core; a is the census parameter (default
    0.5 * ln(s^3/n^2), a slowly growing choice).  Outside n^(2/3) < s < n/2
    the regime assumptions are off and a warning is issued.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if s <= 0:
        raise ValueError("s must be positive")
    if not (n ** (2.0 / 3.0) < s < n / 2):
        warnings.warn(
            f"s={s} is outside (n^(2/3), n/2); the supercritical predictions "
            "are unreliable here",
            stacklevel=2,
        )
    m = n // 2 + s
    if a is None:
        # below the window ln(s^3/n^2) < 0; an empty census beats a crash
        a = max(0.0, 0.5 * math.log(s**3 / n**2))
    if ell is None:
        ell = max(3, math.floor(n / s))
    G = gnm(n, m, seed)
    # one peel: the giant's 2-core is the part of G's 2-core in the giant
    labels = G.component_labels()
    giant = giant_label(G)
    core = induced_subgraph(
        G, np.flatnonzero((_core_degrees(G) > 0) & (labels == giant))
    ).graph
    short_cycles = len(enumerate_cycles(core, ell, cap=cap))
    z_count, x = count_census_cycles(G, s, a, cap=cap)
    return SupercriticalReport(
        n=n,
        m=m,
        s=s,
        giant_vertices=int(np.count_nonzero(labels == giant)),
        core_vertices=core.n,
        core_edges=core.m,
        core_excess=core.m - core.n,
        short_cycle_count=short_cycles,
        census_cycle_count=z_count,
        census_threshold=x,
        genus_lower=genus_lower_bound_from_cycle_count(core, ell, short_cycles),
        genus_upper=genus_upper_bound(core),
        predicted=predicted_genus(n, s),
    )
