from __future__ import annotations

import itertools
import math
import warnings

import pytest

from genuslab import (
    Graph,
    GraphError,
    classify_cycle_neighborhood,
    complete_graph,
    count_census_cycles,
    cycle_graph,
    enumerate_cycles,
    genus_lower_bound_short_cycles,
    giant_component,
    gnm,
    path_graph,
    predicted_core_excess,
    predicted_genus,
    supercritical_report,
    two_core,
)
from brute_force import brute_classify, classification
from showcases import census_showcase


def test_classify_pendant_tree() -> None:
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    cn = classify_cycle_neighborhood(g, (0, 1, 2))
    assert (cn.leaf_size, cn.good, cn.bad) == (1, 0, 0)
    assert cn.tree_components == 1


def test_classify_doubly_attached_vertex() -> None:
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)])
    cn = classify_cycle_neighborhood(g, (0, 1, 2))
    assert (cn.leaf_size, cn.good, cn.bad) == (0, 0, 1)
    assert cn.tree_components == 0


def test_classify_ignores_chords() -> None:
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
    cn = classify_cycle_neighborhood(g, (0, 1, 2, 3, 4))
    assert (cn.leaf_size, cn.good, cn.bad) == (0, 0, 0)
    assert cn.tree_components == 0


def test_classify_good_vertex_in_cyclic_component() -> None:
    # component {3, 4, 5} carries its own triangle, attached at one edge
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    cn = classify_cycle_neighborhood(g, (0, 1, 2))
    assert (cn.leaf_size, cn.good, cn.bad) == (0, 1, 0)
    assert cn.tree_components == 0


def test_classify_validates_the_cycle() -> None:
    g = cycle_graph(5)
    with pytest.raises(GraphError):
        classify_cycle_neighborhood(g, (0, 1))
    with pytest.raises(GraphError):
        classify_cycle_neighborhood(g, (0, 1, 3))
    with pytest.raises(GraphError):
        classify_cycle_neighborhood(g, (0, 1, 2, 1))


def test_showcase_classification_counts() -> None:
    g, cycle = census_showcase()
    cn = classify_cycle_neighborhood(g, cycle)
    assert cn.leaf_size == 11
    assert cn.good == 6
    assert cn.bad == 2
    assert cn.tree_components == 3


def test_classifier_matches_brute_force_on_corpus(corpus6) -> None:
    for g in corpus6:
        for cyc in enumerate_cycles(g, 6):
            cn = classify_cycle_neighborhood(g, cyc)
            got = classification(cn)
            assert got == brute_classify(g, cyc)


def test_classifier_matches_brute_force_on_random_graphs() -> None:
    for t in range(8):
        g = gnm(12, 16, seed=(31, t))
        for cyc in enumerate_cycles(g, 8):
            cn = classify_cycle_neighborhood(g, cyc)
            got = classification(cn)
            assert got == brute_classify(g, cyc)


def test_classification_by_core_matches_brute_force() -> None:
    # a unicyclic triangle with a leaf, and a 4-cycle joined by the path
    # 7-8-9 to a triangle, with the tree 12-13 hanging off the core vertex 8
    g = Graph(15, [(0, 1), (1, 2), (0, 2), (2, 3),
                   (4, 5), (5, 6), (6, 7), (4, 7), (7, 8), (8, 9),
                   (9, 10), (10, 11), (9, 11), (8, 12), (12, 13), (5, 14)])
    expect = {(0, 1, 2): (1, 0, 0, 1, 1), (4, 5, 6, 7): (1, 1, 0, 1, 2),
              (9, 10, 11): (0, 1, 0, 0, 1)}
    cases = [(g, list(expect))]
    for t in range(16):
        n = 30 + 2 * t
        m = n // 2 + (t * (4 * n // 3 - n // 2)) // 15
        h = gnm(n, m, seed=(59, t))
        cases.append((h, enumerate_cycles(h, 8)))
    # supercritical draws, whose pendant trees run many levels deep
    for seed in (17, 23):
        h = gnm(3000, 2000, seed=seed)
        cases.append((h, enumerate_cycles(h, 8)))
    for h, cycles in cases:
        for cyc in cycles:
            cn = classify_cycle_neighborhood(h, cyc)
            got = classification(cn)
            assert got == brute_classify(h, cyc)
            if h is g:
                assert got == expect[cyc]


def test_census_count_small_graphs_and_threshold() -> None:
    import math
    g = Graph(20, [(i, i + 1) for i in range(19)] + [(0, 4)])
    count, x = count_census_cycles(g, 18, 1.0)
    assert count == 0
    assert x == pytest.approx(0.05 * math.log(18**3 / 20**2))
    with pytest.raises(ValueError):
        count_census_cycles(g, 0, 1.0)
    with pytest.raises(ValueError):
        count_census_cycles(g, 18, -0.5)


def test_census_count_monotone_in_length_at_scale() -> None:
    g = gnm(200_000, 112_000, seed=(5, 1))
    counts = [count_census_cycles(g, 12_000, i)[0] for i in (0.5, 1.0, 1.5)]
    assert counts[0] <= counts[1] <= counts[2]


def test_census_on_forests_and_below_length_three() -> None:
    star = Graph(9, [(0, v) for v in range(1, 9)])
    forests = [path_graph(10), star, Graph(5), gnm(40, 12, seed=(97, 0))]
    assert all(two_core(f).graph.n == 0 for f in forests)
    for f in forests:
        for s in (1, 2, 5):
            assert count_census_cycles(f, s, 10.0) == (0, 0.05 * math.log(s**3 / f.n**2))
    # K6 is full of short cycles, but none of length below 3; every
    # triangle has 3 neighbours, above the neighbour cap 1.5 at a = 0.5
    k6 = complete_graph(6)
    assert count_census_cycles(k6, 6, 2.9)[0] == 0


def test_predicted_quantities() -> None:
    assert predicted_core_excess(100, 10) == pytest.approx(16.0 / 30.0)
    assert predicted_genus(100, 10) == pytest.approx(8.0 / 30.0)


def test_supercritical_report_in_window() -> None:
    # at seed 23 the 2-core of G has a cycle component outside the giant;
    # ell = 12 lies above the census length floor(a*n/s) = 7, the default
    # ell = 6 below it
    for seed, ell in itertools.product((17, 23), (None, 12)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = supercritical_report(3000, 500, seed=seed, ell=ell)
        assert rep.n == 3000
        assert rep.s == 500
        assert rep.m == 3000 // 2 + 500
        assert rep.core_excess == rep.core_edges - rep.core_vertices
        assert 0 <= rep.genus_lower <= rep.genus_upper
        assert rep.giant_vertices >= rep.core_vertices
        assert rep.short_cycle_count >= 0
        assert rep.census_cycle_count >= 0
        assert rep.predicted == pytest.approx(8 * 500**3 / (3 * 3000**2))
        # each field equals its standalone definition on the same sample
        ell = ell or max(3, 3000 // 500)
        a = max(0.0, 0.5 * math.log(500**3 / 3000**2))
        assert math.floor(a * 3000 / 500) == 7
        G = gnm(3000, 1500 + 500, seed=seed)
        giant = giant_component(G).graph
        core = two_core(giant).graph
        assert (rep.giant_vertices, rep.core_vertices, rep.core_edges) == (giant.n, core.n, core.m)
        assert rep.short_cycle_count == len(enumerate_cycles(core, ell))
        assert rep.genus_lower == genus_lower_bound_short_cycles(core, ell)
        assert rep.census_cycle_count == count_census_cycles(G, 500, a)[0]
        all_cores = two_core(G)
        if seed == 23:
            assert all_cores.graph.n > core.n
            assert all_cores.graph.component_count > 1


def test_supercritical_report_labels_no_graph(monkeypatch) -> None:
    # the giant comes from the 2-core peel and the kernel the cycle search
    # builds anyway; no graph, G or a core, is labelled by components
    labelled = []
    monkeypatch.setattr(Graph, "_components", lambda self: labelled.append(self))
    for seed in (17, 23):
        supercritical_report(3000, 500, seed=seed)
    assert labelled == []


def test_supercritical_report_warns_outside_window() -> None:
    with pytest.warns(UserWarning):
        rep = supercritical_report(3000, 100, seed=17)
    assert rep.census_cycle_count == 0
    with pytest.warns(UserWarning):
        supercritical_report(3000, 1600, seed=17)


def test_supercritical_report_validation() -> None:
    with pytest.raises(ValueError):
        supercritical_report(2, 1)
    with pytest.raises(ValueError):
        supercritical_report(3000, 0)
