"""Inputs that the library and the CLI reject, and the empty-graph edge cases."""

from __future__ import annotations

import pytest

from genuslab import (
    CycleBudgetError,
    DecompositionError,
    Graph,
    GraphError,
    classify_cycle_neighborhood,
    complete_graph,
    component_fraction_derivative,
    contiguity_verdict,
    decompose_into_pieces,
    enumerate_cycles,
    fragile_experiment,
    genus_lower_bound,
    genus_lower_bound_density,
    gnm,
    hypercube_graph,
    path_graph,
    trace_faces,
)
from genuslab.cli import main

THREE_TRIANGLES = Graph(9, [(t + u, t + v) for t in (0, 3, 6) for u, v in ((0, 1), (1, 2), (0, 2))])


@pytest.mark.parametrize("call, error, message", [
    (lambda: Graph(-1), GraphError, "vertex count must be nonnegative"),
    (lambda: Graph(3, [(0, 1, 2)]), GraphError, "edges must be pairs"),
    (lambda: gnm(-1, 0), GraphError, "n and m must be nonnegative"),
    (lambda: hypercube_graph(-1), GraphError, "hypercube dimension must be nonnegative"),
    (lambda: contiguity_verdict(0, None, 0, 0.05), ValueError, "n must be at least 1"),
    (lambda: decompose_into_pieces(path_graph(5), 1, 0), DecompositionError, "Delta must be at least 1"),
    (lambda: decompose_into_pieces(path_graph(5), 0, 2), DecompositionError, "l must be at least 1"),
    (lambda: fragile_experiment(path_graph(5), 2, 0, 0), ValueError, "k must be at least 1"),
    (lambda: classify_cycle_neighborhood(complete_graph(3), (5, 0, 1)), GraphError, "cycle vertex 5 out of range"),
    (lambda: component_fraction_derivative(0), ValueError, "average degree must be positive"),
    (lambda: enumerate_cycles(THREE_TRIANGLES, 3, cap=2), CycleBudgetError, "more than 2 simple cycles"),
])
def test_invalid_arguments_raise(call, error, message) -> None:
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("argv, text, message", [
    (["genus", "bounds", "--input", "g.edgelist"], "# nothing\n", "empty edge list"),
    (["genus", "bounds", "--input", "g.edgelist"], "3\n0 1\n", "header must be 'n m'"),
    (["genus", "bounds", "--input", "g.edgelist"], "3 2\n0 1\n", "header promises 2 edges, found 1"),
    (["genus", "bounds", "--input", "g.edgelist"], "3 1\n0 1 2\n", "bad edge line"),
    (["generate", "random-tree", "--n", "0"], None, "n must be at least 1"),
    (["census", "supercritical", "--n", "3000", "--s", "500", "--trials", "abc"], None,
     "expected a positive integer, got 'abc'"),
    (["generate", "hypercube", "--dim", "-1"], None, "hypercube dimension must be nonnegative"),
    (["contiguity", "--n", "0", "--genus", "0"], None, "n must be at least 1"),
])
def test_invalid_cli_input_exits_two_with_an_error_line(
        argv, text, message, tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "g.edgelist").write_text(text)
    try:
        code = main(argv)
    except SystemExit as err:
        code = err.code
    assert code == 2
    assert any("error: " in line and message in line
               for line in capsys.readouterr().err.splitlines())


def test_the_empty_graph_has_no_faces_and_genus_bound_zero() -> None:
    trace = trace_faces(Graph(0), {})
    assert (trace.faces, trace.face_count, trace.genus) == ([], 0, 0)
    assert genus_lower_bound_density(Graph(0)) == 0
    assert genus_lower_bound(Graph(0)) == 0
