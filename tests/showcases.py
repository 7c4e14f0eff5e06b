"""Hand-built graphs that exercise one code path each in the suite.

A planar rotation of the pendant-square fixture, a dressed cycle exercising
every neighbourhood class of the census, and a small piece decomposition
with a scripted random-edge sequence.
"""

from __future__ import annotations

from genuslab import Graph
from genuslab.acceptance import named_fixtures
from genuslab.fragile import PieceDecomposition


def pendant_square() -> tuple[Graph, dict[int, tuple[int, ...]]]:
    """Square 0-1-2-3 with a pendant edge 3-4, plus a planar rotation.

    Tracing the rotation yields two faces, of lengths 6 (the square's
    interior with the pendant edge walked on both sides) and 4 (the outer
    boundary).
    """
    rotation = {
        0: (1, 3),
        1: (0, 2),
        2: (1, 3),
        3: (2, 0, 4),
        4: (3,),
    }
    return named_fixtures()["pendant_square"], rotation


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
