from __future__ import annotations

import pytest

from genuslab import (
    Graph,
    GraphError,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    exact_genus,
    genus_lower_bound,
    genus_lower_bound_density,
    genus_lower_bound_short_cycles,
    genus_upper_bound,
    path_graph,
    trace_faces,
    two_core,
    validate_rotation,
)
from showcases import pendant_square


def test_rotation_validation() -> None:
    g = cycle_graph(3)
    validate_rotation(g, {0: (1, 2), 1: (0, 2), 2: (0, 1)})
    with pytest.raises(GraphError):
        validate_rotation(g, {0: (1, 2), 1: (0, 2)})
    with pytest.raises(GraphError):
        validate_rotation(g, {0: (1, 2), 1: (0, 2), 2: (0, 0)})
    with pytest.raises(GraphError):
        validate_rotation(g, {0: (1, 2), 1: (0, 2), 2: (0, 1, 0)})
    # face tracing validates the rotation it is given
    with pytest.raises(GraphError):
        trace_faces(g, {0: (1, 2), 1: (0, 2), 2: (0, 0)})
    with pytest.raises(GraphError):
        trace_faces(g, {0: (1, 2), 1: (0, 2)})


def test_face_trace_on_square_with_tail() -> None:
    g, rot = pendant_square()
    ft = trace_faces(g, rot)
    lengths = [len(w) for w in ft.faces]
    assert sorted(lengths) == [4, 6]
    assert ft.face_count == 2
    assert ft.genus == 0
    assert sum(lengths) == 2 * g.m


def test_rotations_of_k4_span_both_genera() -> None:
    k4 = complete_graph(4)
    planar = exact_genus(k4).rotation
    assert trace_faces(k4, planar).genus == 0
    sorted_order = {v: tuple(int(x) for x in k4.neighbors(v)) for v in range(4)}
    assert trace_faces(k4, sorted_order).genus == 1


def test_disconnected_graphs_share_one_outer_face() -> None:
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    rot = {v: tuple(int(x) for x in g.neighbors(v)) for v in range(6)}
    ft = trace_faces(g, rot)
    assert ft.component_count == 2
    assert ft.face_count == 3
    assert ft.genus == 0


def test_genus_upper_bound_is_half_cycle_rank() -> None:
    assert genus_upper_bound(path_graph(7)) == 0
    assert genus_upper_bound(cycle_graph(5)) == 0
    assert genus_upper_bound(complete_graph(4)) == 1
    assert genus_upper_bound(complete_graph(6)) == 5


def test_short_cycle_lower_bound_values() -> None:
    assert genus_lower_bound_short_cycles(complete_graph(5), 2) == 1
    assert genus_lower_bound_short_cycles(complete_graph(6), 2) == 1
    assert genus_lower_bound_short_cycles(cycle_graph(5), 4) == 0
    assert genus_lower_bound_short_cycles(complete_bipartite_graph(3, 3), 4) == 0
    with pytest.raises(ValueError):
        genus_lower_bound_short_cycles(complete_graph(5), 1)
    with pytest.raises(ValueError):
        genus_lower_bound(complete_graph(5), 1)


def test_density_lower_bound_values() -> None:
    assert genus_lower_bound_density(complete_graph(5)) == 1
    assert genus_lower_bound_density(complete_graph(6)) == 1
    assert genus_lower_bound_density(complete_graph(7)) == 1
    assert genus_lower_bound_density(cycle_graph(5)) == 0
    assert genus_lower_bound_density(complete_bipartite_graph(3, 3)) == 0


def test_pendant_trees_only_weaken_the_lower_bound(corpus6, genus_of) -> None:
    # pruning a leaf keeps m - n + kappa, the cycle census and the genus but
    # lowers m, which enters the face bound; so the bound on a graph is at
    # most the bound on its 2-core, and a pendant tree can hide a handle
    k6_tail = Graph(8, [*complete_graph(6).edge_list(), (5, 6), (6, 7)])
    k5_leaf = Graph(6, [*complete_graph(5).edge_list(), (4, 5)])
    for g in [*corpus6, k6_tail, k5_leaf]:
        core = two_core(g).graph
        assert genus_lower_bound(g) <= genus_lower_bound(core) <= genus_of(g)
    for g in (k6_tail, k5_leaf):
        assert genus_lower_bound(g) == 0 < genus_lower_bound(two_core(g).graph) == genus_of(g) == 1
    assert [genus_lower_bound_short_cycles(k6_tail, ell) for ell in (2, 3, 4)] == [0, 0, 0]
