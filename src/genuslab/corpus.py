"""Bundled fixtures and an exhaustive small-graph corpus.

The named fixtures are the classical graphs the genus oracle is checked
against, plus three hand-built showcase graphs: a planar rotation example,
a dressed cycle exercising every neighbourhood class of the census, and a
small piece decomposition with a scripted random-edge sequence.  The
corpus enumerator produces one representative per isomorphism class of
connected graphs up to a given order (143 graphs at order 6), which the
property suites sweep.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from .fragile import PieceDecomposition
from .graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
)


def theta_graph() -> Graph:
    """Two degree-3 vertices joined by three internally disjoint two-edge
    paths: 5 vertices and 6 edges, the smallest simple graph with more
    edges than vertices."""
    return Graph(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])


def cycle_with_chord() -> Graph:
    """Five-cycle plus one chord; planar with three faces."""
    edges = list(cycle_graph(5).edge_list()) + [(0, 2)]
    return Graph(5, edges)


def complete_minus_edge(r: int) -> Graph:
    """Complete graph on r vertices with the edge 0-1 removed."""
    edges = [(u, v) for u, v in combinations(range(r), 2) if (u, v) != (0, 1)]
    return Graph(r, edges)


def petersen_graph() -> Graph:
    """Outer five-cycle, inner pentagram, and five spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph(10, edges)


def pendant_square() -> tuple[Graph, dict[int, tuple[int, ...]]]:
    """Square 0-1-2-3 with a pendant edge 3-4, plus a planar rotation.

    Tracing the rotation yields two faces, of lengths 6 (the square's
    interior with the pendant edge walked on both sides) and 4 (the outer
    boundary).
    """
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
    rotation = {
        0: (1, 3),
        1: (0, 2),
        2: (1, 3),
        3: (2, 0, 4),
        4: (3,),
    }
    return G, rotation


def census_showcase() -> tuple[Graph, tuple[int, ...]]:
    """A nine-cycle dressed with one specimen of every neighbourhood kind.

    Returns the graph and the cycle.  Hanging off the cycle are three tree
    components attached by a single edge (sizes 3, 1, and 7, so the leaf
    neighbourhood has 11 vertices), six good neighbours (a triangle
    cluster, a denser cluster, a tree attached by two edges at both of its
    ends, and a twice-attached pair, none of which is a once-attached
    tree), and two bad neighbours adjacent to two cycle vertices each.
    A separate component is included to check that unrelated parts of the
    graph stay out of the classification.
    """
    cycle = (0, 3, 4, 1, 5, 6, 2, 8, 7)
    edges = [
        (0, 3), (3, 4), (4, 1), (1, 5), (5, 6), (6, 2), (2, 8), (8, 7), (7, 0),
        # tree components attached by one edge
        (0, 9), (9, 10), (9, 11),
        (0, 12),
        (2, 13), (13, 14), (14, 15), (14, 16), (16, 17), (17, 19), (16, 18),
        # good neighbour with a triangle behind it
        (0, 20), (20, 21), (21, 22), (20, 22),
        # bad neighbour adjacent to two cycle vertices
        (23, 3), (23, 4),
        # good neighbour with a larger cyclic cluster behind it
        (1, 24), (24, 25), (24, 26), (24, 27), (25, 27), (27, 28), (28, 29), (28, 30),
        # tree attached to the cycle by two edges: both attachments are good
        (5, 31), (31, 33), (6, 32), (32, 34), (32, 31),
        # pair attached twice to the same cycle vertex: both good
        (2, 35), (2, 36), (35, 36),
        # bad neighbour with its own pendant tree
        (37, 8), (37, 38), (39, 37), (37, 7),
        # unrelated component
        (40, 41), (41, 42), (41, 43),
    ]
    return Graph(44, edges), cycle


def amplification_showcase() -> tuple[
    Graph, PieceDecomposition, tuple[tuple[int, int], ...]
]:
    """A ten-vertex path cut into four two-vertex cores, with six scripted
    extra edges.

    The pieces are {0,1,8}, {2,3}, {4,5}, {6,7} (vertex 9 is the discarded
    leftover; 8 belongs to piece 0 but not its core).  Of the six extra
    edges, in order: one touches the leftover vertex, one stays inside a
    single core, one touches the non-core vertex 8, the next two join new
    core pairs (good), and the last repeats an already-joined pair.  The
    quotient is therefore the path 0-1 plus the edge 1-3 with piece 2
    isolated, and the good-edge count is 2.
    """
    H = Graph(
        10,
        [(0, 1), (1, 8), (8, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 9)],
    )
    d = PieceDecomposition(
        l=1,
        Delta=2,
        pieces=((0, 1, 8), (2, 3), (4, 5), (6, 7)),
        cores=((0, 1), (2, 3), (4, 5), (6, 7)),
    )
    extra = ((9, 4), (4, 5), (5, 8), (3, 6), (1, 2), (0, 3))
    return H, d, extra


def named_fixtures() -> dict[str, Graph]:
    """The standard small graphs the oracle and property suites exercise."""
    return {
        "k4": complete_graph(4),
        "k5": complete_graph(5),
        "k5_minus_edge": complete_minus_edge(5),
        "k6": complete_graph(6),
        "k33": complete_bipartite_graph(3, 3),
        "c5": cycle_graph(5),
        "c5_chord": cycle_with_chord(),
        "q3": hypercube_graph(3),
        "theta": theta_graph(),
        "petersen": petersen_graph(),
        "pendant_square": pendant_square()[0],
    }


_CORPUS_CACHE: dict[int, tuple[Graph, ...]] = {}


def _connected_on(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of connected graphs on
    exactly n vertices, selected as the minimal edge bitmask over all
    vertex relabelings."""
    if n == 1:
        return (Graph(1, []),)
    pairs = list(combinations(range(n), 2))
    nbits = len(pairs)
    index = {p: i for i, p in enumerate(pairs)}
    masks = np.arange(1 << nbits, dtype=np.uint64)
    best = masks.copy()
    one = np.uint64(1)
    for perm in permutations(range(n)):
        mapped = np.zeros_like(masks)
        for src, (u, v) in enumerate(pairs):
            a, b = perm[u], perm[v]
            dst = index[(a, b) if a < b else (b, a)]
            mapped |= ((masks >> np.uint64(src)) & one) << np.uint64(dst)
        np.minimum(best, mapped, out=best)
    reps = masks[best == masks]
    out = []
    for mask in reps.tolist():
        edges = [pairs[i] for i in range(nbits) if mask >> i & 1]
        G = Graph(n, edges)
        if G.component_count == 1:
            out.append(G)
    return tuple(out)


def connected_corpus(max_n: int = 6) -> list[Graph]:
    """All connected graphs with at most max_n vertices, one per
    isomorphism class; 143 graphs at the default order.

    The per-order class counts are 1, 1, 2, 6, 21, 112.  Orders beyond 6
    are rejected: the bitmask sweep enumerates every labeled graph and is
    not meant to scale past that.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    if max_n > 6:
        raise ValueError("the exhaustive corpus is limited to 6 vertices")
    out: list[Graph] = []
    for n in range(1, max_n + 1):
        if n not in _CORPUS_CACHE:
            _CORPUS_CACHE[n] = _connected_on(n)
        out.extend(_CORPUS_CACHE[n])
    return out
