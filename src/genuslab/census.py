"""Cycle-neighbourhood census of sparse graphs just past the critical window.

For a cycle C of a graph G, the vertices interacting with C split into
three classes: the leaf neighbourhood (vertices of tree components of
G - V(C) attached to C by exactly one edge), good neighbours (vertices
outside C and its leaf neighbourhood adjacent to exactly one cycle vertex),
and bad neighbours (those adjacent to more than one cycle vertex).  The
number of short cycles whose neighbourhood statistics stay below explicit
thresholds is asymptotically Poisson; this module computes the counts
exactly on concrete graphs and assembles the per-trial core report used by
the supercritical experiments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .embeddings import _euler_lower, _rank_upper
from .graphs import (
    CYCLE_CAP,
    Graph,
    GraphError,
    _core_degrees,
    _peel,
    enumerate_cycles,
    giant_vertices,
)
from .random_models import gnm


@dataclass(frozen=True)
class CycleNeighborhood:
    """Exact neighbourhood statistics of one cycle.

    leaf_size counts the vertices of all tree components hanging off the
    cycle by exactly one edge, and tree_components counts those components.
    good and bad count the remaining outside vertices adjacent to exactly
    one, respectively more than one, cycle vertex.  The total number of
    outside vertices adjacent to the cycle is good + bad + tree_components,
    since a once-attached tree meets the cycle in exactly one of its
    vertices.
    """

    leaf_size: int
    good: int
    bad: int
    tree_components: int


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
    path between two cycles.  Those trees are the pendant trees of the
    cycle's vertices, so leaf_size is the sum of their pendant-tree sizes.
    Both membership and sizes are read from the peel cached on G (_peel),
    and no tree is walked.
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
    once = [w for w, c in attach.items() if c == 1]
    deg, _, owned = _peel(G)
    good = int(np.count_nonzero(deg[once]))
    return CycleNeighborhood(
        # each cycle vertex owns itself and its pendant trees
        leaf_size=int(owned[cyc].sum()) - k,
        good=good,
        bad=len(attach) - len(once),
        tree_components=len(once) - good,
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
    peel cached on G, so G is peeled at most once.  The count is
    non-decreasing in i for a fixed graph.
    """
    length = _census_length(G.n, s, i)
    return _census(G, s, enumerate_cycles(G, length, cap=cap))


def _census_length(n: int, s: int, i: float) -> int:
    """floor(i*n/s), the longest cycle the census with parameter i counts."""
    if s <= 0:
        raise ValueError("s must be positive")
    if i < 0:
        raise ValueError("i must be nonnegative")
    return math.floor(i * n / s)


def _census(G: Graph, s: int, cycles) -> tuple[int, float]:
    """(count, x) of count_census_cycles over the given cycles of G, which
    the caller has cut to the census length."""
    n = G.n
    x = 0.05 * math.log(s**3 / n**2)
    leaf_cap = x * n * n / (s * s)
    good_cap = x * n / s
    count = 0
    for cyc in cycles:
        stats = classify_cycle_neighborhood(G, cyc)
        if (
            stats.bad == 0
            and 1 <= stats.good <= good_cap
            and stats.leaf_size <= leaf_cap
        ):
            count += 1
    return count, x


def predicted_core_excess(n: int, s: int) -> float:
    """Leading-order edge surplus (edges minus vertices) of the giant's
    2-core: (16/3)*s^3/n^2, twice the predicted genus."""
    return 2 * predicted_genus(n, s)


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
    cap: int = CYCLE_CAP,
) -> SupercriticalReport:
    """Generate one uniform graph with n/2 + s edges and report the core
    statistics the supercritical analysis is built on.

    ell is the short-cycle census length (default floor(n/s), the natural
    length unit of the regime) used both for short_cycle_count and for the
    genus lower bound on the core.  The census parameter is
    a = max(0, 0.5 * ln(s^3/n^2)), a slowly growing choice that leaves the
    census empty below the window.  Outside n^(2/3) < s < n/2 the regime
    assumptions are off and a warning is issued.

    G is peeled once, its kernel built once for both the giant and the
    cycle search, and its cycles enumerated once, up to the longer of ell
    and the census length L = floor(a*n/s).  short_cycle_count
    counts the cycles of length at most ell that lie in the giant, and the
    census classifies those of length at most L.  The giant's 2-core is
    never built: its vertex and edge counts come from the cached core
    degrees, and, being connected, it has one component when non-empty.
    With cap, CycleBudgetError rises when G has more than cap cycles of
    length at most max(ell, L); for ell > L that includes cycles outside
    the giant with length in (L, ell], which no field counts.
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
    # below the window ln(s^3/n^2) < 0; an empty census beats a crash
    a = max(0.0, 0.5 * math.log(s**3 / n**2))
    if ell is None:
        ell = max(3, math.floor(n / s))
    length = _census_length(n, s, a)
    G = gnm(n, m, seed)
    giant = giant_vertices(G)
    deg = _core_degrees(G)[giant]
    core_n = int(np.count_nonzero(deg))
    core_m = int(deg.sum()) // 2
    kappa = 1 if core_n else 0
    cycles = enumerate_cycles(G, max(ell, length), cap=cap)
    first = np.array([c[0] for c in cycles if len(c) <= ell], dtype=np.int64)
    at = np.minimum(np.searchsorted(giant, first), giant.size - 1)
    short_cycles = int(np.count_nonzero(giant[at] == first))
    z_count, x = _census(G, s, [c for c in cycles if len(c) <= length])
    return SupercriticalReport(
        n=n,
        m=m,
        s=s,
        giant_vertices=giant.size,
        core_vertices=core_n,
        core_edges=core_m,
        core_excess=core_m - core_n,
        short_cycle_count=short_cycles,
        census_cycle_count=z_count,
        census_threshold=x,
        genus_lower=_euler_lower(core_n, core_m, kappa, ell, short_cycles),
        genus_upper=_rank_upper(core_n, core_m, kappa),
        predicted=predicted_genus(n, s),
    )
