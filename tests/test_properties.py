"""Cross-module invariant sweeps over the bundled small-graph corpus."""

from __future__ import annotations

import networkx as nx

from genuslab import (
    Graph,
    add_uniform_edges,
    contract_sets,
    enumerate_cycles,
    exact_genus,
    genus_lower_bound_density,
    genus_lower_bound_short_cycles,
    genus_upper_bound,
    gnm,
    trace_faces,
    trial_rng,
    two_core,
)
from genuslab import _genus_search
from genuslab.corpus import named_fixtures

from brute_force import brute_cycles, nx_density_bound


def _random_connected_parts(G: Graph, rng) -> list[list[int]]:
    """Partition V(G) into connected parts of size 1 to 3."""
    remaining = set(range(G.n))
    parts: list[list[int]] = []
    for start in rng.permutation(G.n):
        start = int(start)
        if start not in remaining:
            continue
        size = int(rng.integers(1, 4))
        remaining.discard(start)
        part = [start]
        frontier = [start]
        while frontier and len(part) < size:
            v = frontier.pop(0)
            for u in G.neighbors(v):
                u = int(u)
                if u in remaining and len(part) < size:
                    remaining.discard(u)
                    part.append(u)
                    frontier.append(u)
        parts.append(part)
    return parts


def _random_rotation(G: Graph, rng) -> dict[int, tuple[int, ...]]:
    # neighbors() hands out a read-only view; permutation needs a copy
    return {
        v: tuple(int(u) for u in rng.permutation(list(G.neighbors(v))))
        for v in range(G.n)
    }


def _disjoint_union(a: Graph, b: Graph) -> Graph:
    shifted = [(u + a.n, v + a.n) for u, v in b.edge_list()]
    return Graph(a.n + b.n, a.edge_list() + shifted)


def test_two_core_is_a_fixed_point_on_the_corpus(corpus6) -> None:
    for g in corpus6:
        core = two_core(g).graph
        assert two_core(core).graph == core
        if core.n:
            assert int(core.degrees().min()) >= 2


def test_core_has_the_same_genus_on_the_corpus(corpus6, genus_of) -> None:
    for g in corpus6:
        core = two_core(g).graph
        core_genus = genus_of(core) if core.n else 0
        assert core_genus == genus_of(g)


def test_core_has_the_same_genus_on_larger_fixtures(genus_of) -> None:
    fx = named_fixtures()
    for name in ("q3", "theta", "c5_chord", "k5_minus_edge"):
        g = fx[name]
        assert genus_of(two_core(g).graph) == genus_of(g)


def test_adding_any_edge_never_splits_components(corpus6) -> None:
    rng = trial_rng(515, 1)
    picks = [corpus6[int(i)] for i in rng.choice(len(corpus6), 30)]
    for g in picks:
        edges = set(g.edge_list())
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if (u, v) in edges:
                    continue
                bigger = Graph(g.n, g.edge_list() + [(u, v)])
                assert bigger.component_count <= g.component_count


def test_cycle_enumeration_matches_brute_force_on_the_corpus(corpus6) -> None:
    for g in corpus6:
        fast = sorted(enumerate_cycles(g, g.n))
        assert fast == sorted(brute_cycles(g, g.n))


def test_every_rotation_satisfies_the_euler_relation(corpus6) -> None:
    rng = trial_rng(515, 2)
    picks = [corpus6[int(i)] for i in rng.choice(len(corpus6), 40)]
    fx = named_fixtures()
    picks += [
        _disjoint_union(fx["c5"], fx["k4"]),
        _disjoint_union(fx["theta"], fx["q3"]),
    ]
    for g in picks:
        for _ in range(3):
            report = trace_faces(g, _random_rotation(g, rng))
            assert sum(len(w) for w in report.faces) == 2 * g.m
            handle = g.m - g.n - report.face_count + g.component_count + 1
            assert handle >= 0
            assert handle % 2 == 0
            assert report.genus == handle // 2


def test_bounds_sandwich_the_exact_genus(corpus6, genus_of) -> None:
    for g in corpus6:
        exact = genus_of(g)
        assert genus_lower_bound_density(g) <= exact
        for ell in (2, 3, 4):
            assert genus_lower_bound_short_cycles(g, ell) <= exact
        assert exact <= genus_upper_bound(g)


def _bound_sweep(corpus6) -> list[Graph]:
    """The corpus, the fixtures, gnm graphs on at most 40 vertices, and
    disjoint unions padded with isolated vertices and K2 components."""
    graphs = list(corpus6) + list(named_fixtures().values())
    rng = trial_rng(515, 7)
    for _ in range(80):
        n = int(rng.integers(1, 41))
        top = n * (n - 1) // 2 if rng.random() < 0.3 else min(n * (n - 1) // 2, 3 * n)
        graphs.append(gnm(n, int(rng.integers(0, top + 1)), rng))
    point, k2 = Graph(1, []), Graph(2, [(0, 1)])
    for i in rng.choice(len(graphs), 30, replace=False):
        g = _disjoint_union(_disjoint_union(point, graphs[int(i)]), k2)
        graphs.append(_disjoint_union(_disjoint_union(g, point), graphs[int(i) - 1]))
    return graphs + [point, k2, _disjoint_union(point, k2)]


def test_every_lower_bound_is_the_one_euler_bound(corpus6, monkeypatch) -> None:
    # each block's start bound, as exact_genus hands it to the search
    seen = []

    def record(out_darts, girth, lower, budget):
        seen.append((len(out_darts), sum(map(len, out_darts)) // 2, girth, lower))
        return lower, lower, out_darts, 0

    monkeypatch.setattr(_genus_search, "search_block", record)
    for g in _bound_sweep(corpus6):
        density = genus_lower_bound_density(g)
        assert density == nx_density_bound(g)
        assert genus_lower_bound_short_cycles(g, 2) <= density
        seen.clear()
        exact_genus(g)
        H = nx.Graph(g.edge_list())
        expect = []
        for block in nx.biconnected_component_edges(H):
            B = nx.Graph(block)
            v, e, girth = B.number_of_nodes(), B.number_of_edges(), nx.girth(B)
            if e > 1:
                expect.append((v, e, girth, max(0, -((2 * e - (e - v + 2) * girth) // (2 * girth)))))
        assert sorted(seen) == sorted(expect)
        assert all(type(lower) is int for *_, lower in seen)


def test_edge_count_obeys_the_density_law(corpus6, genus_of) -> None:
    for g in corpus6:
        if g.n < 3:
            continue
        assert g.m <= 3 * g.n - 6 + 6 * genus_of(g)


def test_contraction_never_raises_the_genus(corpus6, genus_of) -> None:
    rng = trial_rng(515, 3)
    picks = [corpus6[int(i)] for i in rng.choice(len(corpus6), 40)]
    for g in picks:
        if g.n < 2:
            continue
        for _ in range(2):
            parts = _random_connected_parts(g, rng)
            minor = contract_sets(g, parts)
            assert genus_of(minor) <= genus_of(g)


def test_dropping_parts_still_yields_a_minor(corpus6, genus_of) -> None:
    rng = trial_rng(515, 4)
    picks = [corpus6[int(i)] for i in rng.choice(len(corpus6), 25)]
    for g in picks:
        if g.n < 3:
            continue
        parts = _random_connected_parts(g, rng)
        keep = max(1, len(parts) - 1 - int(rng.integers(0, 2)))
        minor = contract_sets(g, parts[:keep])
        assert genus_of(minor) <= genus_of(g)


def test_sprinkled_edges_raise_genus_by_at_most_their_count(
    corpus6, genus_of
) -> None:
    rng = trial_rng(515, 5)
    planar = [g for g in corpus6 if g.n >= 4 and genus_of(g) == 0]
    picks = [planar[int(i)] for i in rng.choice(len(planar), 30)]
    for g in picks:
        free = g.n * (g.n - 1) // 2 - g.m
        k = min(3, free, 1 + int(rng.integers(0, 3)))
        if k == 0:
            continue
        perturbed, added = add_uniform_edges(g, k, seed=int(rng.integers(2**32)))
        assert len(added) == k
        assert genus_of(perturbed) <= k


def test_genus_is_additive_over_disjoint_unions(genus_of) -> None:
    fx = named_fixtures()
    pairs = [("k5", "k33"), ("c5", "k6"), ("petersen", "k4")]
    for a, b in pairs:
        union = _disjoint_union(fx[a], fx[b])
        assert exact_genus(union).genus == genus_of(fx[a]) + genus_of(fx[b])


def test_upper_bound_equals_cycle_space_rank_halved(corpus6) -> None:
    for g in corpus6:
        expect = max(0, (g.m - g.n + g.component_count) // 2)
        assert genus_upper_bound(g) == expect
