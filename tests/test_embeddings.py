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
    perturbation_upper_bound,
    trace_faces,
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


def test_perturbation_upper_bound_adds_one_per_edge() -> None:
    assert perturbation_upper_bound(0, 5) == 5
    assert perturbation_upper_bound(3, 2) == 5
    assert perturbation_upper_bound(4, 0) == 4
    with pytest.raises(ValueError):
        perturbation_upper_bound(-1, 2)
    with pytest.raises(ValueError):
        perturbation_upper_bound(1, -2)
