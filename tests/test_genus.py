from __future__ import annotations

import tracemalloc

import pytest

from genuslab import (
    Graph,
    SearchBudgetError,
    _genus_search,
    complete_bipartite_graph,
    complete_graph,
    exact_genus,
    gnm,
    trace_faces,
    trial_rng,
    two_core,
)
from brute_force import brute_genus, rotation_space, search_block_reference


def _wheel(rim: int) -> Graph:
    """A rim cycle on 0..rim-1, each rim vertex joined to the hub rim."""
    return Graph(rim + 1, [(i, (i + 1) % rim) for i in range(rim)]
                 + [(i, rim) for i in range(rim)])


def _outcome(g: Graph, budget: int):
    """exact_genus's result, or its budget bracket and node count."""
    try:
        return exact_genus(g, node_budget=budget)
    except SearchBudgetError as e:
        return e.lower_bound, e.upper_bound, e.nodes_explored


def test_known_genus_values(fixtures, genus_of) -> None:
    table = {
        "k4": 0,
        "k5": 1,
        "k5_minus_edge": 0,
        "k6": 1,
        "k33": 1,
        "c5": 0,
        "c5_chord": 0,
        "q3": 0,
        "theta": 0,
        "petersen": 1,
    }
    for name, want in table.items():
        assert genus_of(fixtures[name]) == want, name


def test_face_counts_of_minimal_embeddings(fixtures) -> None:
    for name, faces in (("k5", 5), ("c5", 2), ("c5_chord", 3),
                        ("k5_minus_edge", 6), ("k6", 9), ("q3", 6)):
        assert exact_genus(fixtures[name]).face_count == faces, name


def test_exact_genus_returns_witness_rotation(fixtures) -> None:
    for name in ("k4", "k5", "k33", "c5_chord", "q3", "theta"):
        g = fixtures[name]
        res = exact_genus(g)
        assert trace_faces(g, res.rotation).genus == res.genus


def test_genus_of_trivial_graphs() -> None:
    assert exact_genus(Graph(0, [])).genus == 0
    assert exact_genus(Graph(3, [])).genus == 0
    assert exact_genus(Graph(2, [(0, 1)])).genus == 0


def _padded(g: Graph) -> Graph:
    """g with one isolated vertex before it and one after it."""
    return Graph(g.n + 2, [(u + 1, w + 1) for u, w in g.edge_list()])


def test_genus_adds_over_components(fixtures, corpus6, genus_of) -> None:
    import networkx as nx

    k5 = complete_graph(5)
    shifted = [(u + 5, w + 5) for u, w in k5.edge_list()]
    pair = Graph(10, k5.edge_list() + shifted)
    res = exact_genus(pair)
    assert res.genus == 2
    assert res.face_count == 9  # five faces per block, sharing one outer face
    # exact_genus and trace_faces count components themselves: check their
    # kappa on isolated vertices
    k4 = [(u + 5, w + 5) for u, w in complete_graph(4).edge_list()]
    cases = [(pair, 2), (Graph(3, []), 0), (Graph(11, k5.edge_list() + k4), 1)]
    cases += [(_padded(g), genus_of(g)) for g in [*fixtures.values(), *corpus6]]
    for g, genus in cases:
        h = nx.Graph(g.edge_list())
        h.add_nodes_from(range(g.n))
        kappa = nx.number_connected_components(h)
        assert g.component_count == kappa
        res = exact_genus(g)
        assert res.genus == genus
        assert res.face_count == g.m - g.n + kappa + 1 - 2 * genus
        assert trace_faces(g, res.rotation).component_count == kappa


def test_genus_adds_over_blocks_of_a_barbell() -> None:
    k5 = complete_graph(5)
    shifted = [(u + 5, w + 5) for u, w in k5.edge_list()]
    bridge = [(4, 10), (10, 5)]
    barbell = Graph(11, k5.edge_list() + shifted + bridge)
    assert exact_genus(barbell).genus == 2


def test_pruning_does_not_change_genus(genus_of) -> None:
    k5 = complete_graph(5)
    tail = [(4, 5), (5, 6)]
    g = Graph(7, k5.edge_list() + tail)
    assert genus_of(g) == genus_of(two_core(g).graph) == 1


def test_budget_error_brackets_the_answer() -> None:
    with pytest.raises(SearchBudgetError) as err:
        exact_genus(complete_graph(6), node_budget=50)
    e = err.value
    assert e.nodes_explored >= 50
    assert 0 <= e.lower_bound <= 1 <= e.upper_bound <= 5


def test_every_budget_brackets_the_answer(fixtures) -> None:
    graphs = {name: fixtures[name]
              for name in ("k5", "k5_minus_edge", "k33", "q3", "petersen")}
    # K3,3 plus an edge: Euler girth bound 0, genus 1, so a level is refuted
    graphs["k33_plus_edge"] = Graph(6, [(0, 1), (0, 3), (1, 3), (2, 3), (0, 4),
                                        (1, 4), (2, 4), (0, 5), (1, 5), (2, 5)])
    for name, g in graphs.items():
        full = exact_genus(g)
        for budget in range(1, full.nodes_explored):
            try:
                res = exact_genus(g, node_budget=budget)
                assert res.genus == full.genus
                nodes = res.nodes_explored
            except SearchBudgetError as e:
                assert e.lower_bound <= full.genus <= e.upper_bound, (name, budget)
                nodes = e.nodes_explored
            # the budget plus at most one dive to a leaf: one dart for each
            # of the 2m - n slots, one per dart after each vertex's first
            assert budget <= nodes <= budget + 2 * g.m - g.n, (name, budget)


def test_k6_search_stays_far_below_full_enumeration() -> None:
    # all 653,864 rotation systems of K6 would be traced without pruning
    res = exact_genus(complete_graph(6))
    assert (res.genus, res.face_count) == (1, 9)
    assert res.nodes_explored < 100_000


def test_k7_settles_within_budget() -> None:
    # K7 triangulates the torus, so its Euler girth bound 1 is attained
    res = exact_genus(complete_graph(7), node_budget=100_000)
    assert (res.genus, res.face_count) == (1, 14)


def test_wheel_settles_within_budget() -> None:
    # the hub's 10! rotations are pruned one dart at a time
    res = exact_genus(_wheel(11), node_budget=20_000)
    assert (res.genus, res.face_count) == (0, 12)


def test_exact_genus_matches_brute_force(fixtures, corpus6) -> None:
    # every rotation system traced with a face walk of its own, wherever
    # there are at most 20,000 of them
    rng = trial_rng(2016, 2)
    graphs = [*fixtures.values(), *corpus6]
    for _ in range(60):
        n = int(rng.integers(7, 11))
        graphs.append(gnm(n, n + int(rng.integers(1, 6)), rng))
    small = [g for g in graphs if rotation_space(g) <= 20_000]
    assert len(small) > 180
    genera = [exact_genus(g).genus for g in small]
    assert genera == [brute_genus(g) for g in small]
    assert 0 < sum(genera)


def test_planarity_agrees_with_networkx() -> None:
    import networkx as nx

    ico = nx.icosahedral_graph()
    res = exact_genus(Graph(ico.number_of_nodes(), list(ico.edges())), node_budget=500_000)
    assert res.genus == 0 and nx.check_planarity(ico)[0]
    rng = trial_rng(2016, 1)
    checked = 0
    while checked < 80:
        n = int(rng.integers(8, 13))
        g = gnm(n, n + int(rng.integers(1, 7)), rng)
        nxg = nx.Graph(g.edge_list())
        nxg.add_nodes_from(range(n))
        if not nx.is_biconnected(nxg):
            continue
        checked += 1
        res = exact_genus(g)
        assert (res.genus == 0) == nx.check_planarity(nxg)[0], g.edge_list()
        assert trace_faces(g, res.rotation).genus == res.genus


def test_search_matches_the_reference_kernel(monkeypatch, fixtures, corpus6) -> None:
    full = 50_000_000
    cases = [(g, full) for g in [*fixtures.values(), *corpus6, complete_bipartite_graph(3, 7)]]
    for name in ("k5", "petersen"):
        g = fixtures[name]
        cases += [(g, b) for b in range(1, exact_genus(g).nodes_explored + 1)]
    # K7 settles only after about 60,000 nodes, so it runs on a budget too,
    # as do K9 and W11, whose hub has degree 11
    cases += [(complete_graph(7), 20_000), (complete_graph(9), 20_000), (_wheel(11), 20_000)]
    got = [_outcome(g, b) for g, b in cases]
    monkeypatch.setattr(_genus_search, "search_block", search_block_reference)
    for (g, b), result in zip(cases, got):
        assert result == _outcome(g, b), (g.edge_list(), b)


def test_search_memory_stays_bounded() -> None:
    # a table of rotations would hold all 7! orders of each K9 vertex, and
    # one for W11's hub would grow with the search
    for g, budget, limit_mb in ((complete_graph(9), 20_000, 8), (_wheel(11), 50_000, 1)):
        tracemalloc.start()
        try:
            _outcome(g, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 2**20, (g.n, peak)
