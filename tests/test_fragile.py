from __future__ import annotations

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from genuslab import (
    DecompositionError,
    Graph,
    GraphError,
    PieceDecomposition,
    add_uniform_edges,
    build_quotient,
    count_good_edges,
    cycle_graph,
    decompose_into_pieces,
    fragile_experiment,
    genus_upper_bound,
    grid_graph,
    hypercube_graph,
    induced_subgraph,
    path_graph,
    perturbation_upper_bound,
    select_cores,
    trial_rng,
    uniform_pairs,
)
from genuslab import fragile
from brute_force import bfs_cores, bfs_pieces, contract_reference, nx_density_bound
from showcases import amplification_showcase


def _random_bounded_tree(n: int, max_degree: int, rng) -> Graph:
    """A random tree on n vertices: each vertex v > 0 hangs from a uniform
    choice among the earlier vertices still below max_degree (>= 2)."""
    edges = []
    deg = [0] * n
    for v in range(1, n):
        below = [u for u in range(v) if deg[u] < max_degree]
        u = below[int(rng.integers(0, len(below)))]
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    return Graph(n, edges)


def test_showcase_quotient_and_good_edges() -> None:
    h, d, extra = amplification_showcase()
    gamma = build_quotient(d, extra)
    assert gamma.n == d.t
    assert gamma.edge_list() == [(0, 1), (1, 3)]
    assert count_good_edges(d, extra) == 2
    assert build_quotient(d, extra + tuple((b, a) for a, b in extra)) == gamma
    with pytest.raises(GraphError):
        build_quotient(d, [(-1, 0)])


def _agrees_with_reference(run, reference) -> None:
    """run() and reference() both raise GraphError, or give the same
    vertex count and edges."""
    try:
        want = reference()
    except GraphError:
        with pytest.raises(GraphError):
            run()
        return
    got = run()
    assert (got.n, sorted(got.edge_list())) == want


def test_contraction_matches_the_reference() -> None:
    h, d, extra = amplification_showcase()
    _agrees_with_reference(lambda: build_quotient(d, extra), lambda: contract_reference(d.cores, extra))
    rng = trial_rng(426, 0)
    for trial in range(300):
        n = int(rng.integers(1, 30))
        # disjoint sets, singletons among them, leaving some vertices out
        chosen = rng.permutation(n)[: int(rng.integers(n // 2, n + 1))].tolist()
        cuts = sorted(rng.choice(np.arange(1, len(chosen)), size=min(len(chosen) - 1, int(rng.integers(1, 9))),
                                 replace=False).tolist()) if len(chosen) > 1 else []
        sets = [tuple(chosen[a:b]) for a, b in zip([0] + cuts, cuts + [len(chosen)]) if b > a]
        # pairs past the last member, loops, repeats and both orientations
        pairs = rng.integers(0, n + 4, size=(int(rng.integers(0, 60)), 2)).tolist()
        pairs += [(v, u) for u, v in pairs[::3]] + pairs[::4]
        fault = trial % 15
        if fault == 1 and sets:
            sets.append(())
        elif fault == 2 and sets:
            sets.append((sets[0][0],))
        elif fault == 3:
            sets.append((n + int(rng.integers(0, 3)),))
        elif fault == 4:
            sets.append((-1,))
        elif fault == 5:
            pairs.append((int(rng.integers(0, n)), -1))
        if sets:
            cored = PieceDecomposition(l=1, Delta=1, pieces=tuple(sets), cores=tuple(sets))
            _agrees_with_reference(lambda: build_quotient(cored, pairs), lambda: contract_reference(sets, pairs))
    with pytest.raises(DecompositionError):
        build_quotient(PieceDecomposition(l=1, Delta=1, pieces=((0,),), cores=()), [(0, 1)])


def test_decompose_long_path() -> None:
    h = path_graph(100)
    d = decompose_into_pieces(h, 5, 2)
    sizes = [len(p) for p in d.pieces]
    assert min(sizes) >= 10
    assert max(sizes) <= 20
    assert d.s == min(sizes)
    assert d.t == len(d.pieces)
    covered = [v for p in d.pieces for v in p]
    assert len(covered) == len(set(covered))
    assert len(covered) > 100 - 10
    for p in d.pieces:
        assert induced_subgraph(h, p).graph.component_count == 1


def test_decompose_whole_star_is_one_piece() -> None:
    star = Graph(5, [(0, v) for v in range(1, 5)])
    d = decompose_into_pieces(star, 1, 4)
    assert d.t == 1
    assert d.pieces == ((0, 1, 2, 3, 4),)


def test_decompose_rejects_high_degree_base() -> None:
    star = Graph(5, [(0, v) for v in range(1, 5)])
    with pytest.raises(DecompositionError, match="star"):
        decompose_into_pieces(star, 1, 3)


def test_decompose_rejects_undersized_or_disconnected_bases() -> None:
    with pytest.raises(DecompositionError):
        decompose_into_pieces(path_graph(6), 4, 2)
    with pytest.raises(DecompositionError):
        decompose_into_pieces(Graph(6, [(0, 1), (2, 3), (4, 5)]), 1, 2)


def test_decomposition_invariants_across_base_families() -> None:
    rng = trial_rng(424, 0)
    bases = [
        (path_graph(240), 2),
        (cycle_graph(240), 2),
        (grid_graph(12, 20), 4),
        (_random_bounded_tree(240, 3, rng), 3),
        (_random_bounded_tree(240, 2, rng), 2),
    ]
    for h, delta in bases:
        for l in (2, 4):
            d0 = decompose_into_pieces(h, l, delta)
            covered: list[int] = []
            for p in d0.pieces:
                assert l * delta <= len(p) <= l * delta * delta
                assert induced_subgraph(h, p).graph.component_count == 1
                covered.extend(p)
            assert len(covered) == len(set(covered))
            assert h.n - len(covered) < l * delta
            lo = (h.n - l * delta) / (l * delta * delta)
            hi = h.n / (l * delta)
            assert lo <= d0.t <= hi

            d = select_cores(h, d0)
            assert len(d.cores) == d.t
            for core, piece in zip(d.cores, d.pieces):
                assert len(core) == d.s
                assert set(core) <= set(piece)
                assert induced_subgraph(h, core).graph.component_count == 1


def _with_extra_edges(h: Graph, tries: int, rng) -> Graph:
    """h plus up to tries random new edges, each between two vertices still
    below h's maximum degree, so the maximum degree does not grow."""
    top = int(h.degrees().max())
    deg = h.degrees().copy()
    edges = set(h.edge_list())
    for _ in range(tries):
        u, v = sorted(int(x) for x in rng.integers(0, h.n, 2))
        if u != v and (u, v) not in edges and deg[u] < top and deg[v] < top:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(h.n, sorted(edges))


def test_decomposition_matches_the_per_vertex_reference() -> None:
    rng = trial_rng(425, 0)
    bases = [path_graph(n) for n in (1, 2, 5, 31)]
    bases += [cycle_graph(n) for n in (3, 8, 41)]
    bases += [grid_graph(1, 9), grid_graph(5, 7), grid_graph(9, 11)]
    bases += [hypercube_graph(d) for d in (0, 1, 3, 5)]
    for n in (4, 17, 60, 150, 300):
        for delta in (2, 3, 4):
            tree = _random_bounded_tree(n, delta, rng)
            bases += [tree, _with_extra_edges(tree, n, rng)]
    for h in bases:
        delta = max(int(h.degrees().max(initial=0)), 1)
        for l in range(1, h.n // delta + 1):
            want = bfs_cores(h, bfs_pieces(h, l, delta))
            assert select_cores(h, decompose_into_pieces(h, l, delta)) == want, (h, l)
    h = path_graph(10**5)
    want = bfs_cores(h, bfs_pieces(h, 120, 2))
    assert select_cores(h, decompose_into_pieces(h, 120, 2)) == want


def test_fragile_experiment_report_fields() -> None:
    h = path_graph(500)
    rep = fragile_experiment(h, 2, 100, seed=3)
    assert rep.n == 500
    assert rep.k == 100
    assert rep.Delta == 2
    assert rep.l == 30  # ceil(3 * Delta * n / k)
    assert rep.upper_bound == perturbation_upper_bound(genus_upper_bound(h), 100)
    assert rep.upper_bound == 100
    lo = (500 - rep.l * 2) / (rep.l * 4)
    hi = 500 / (rep.l * 2)
    assert lo <= rep.t <= hi
    assert 0 <= rep.good_edge_count <= 100
    assert rep.gamma_edges >= 0
    assert rep.genus_lower_gamma >= 0


def test_fragile_experiment_dense_branch() -> None:
    h = path_graph(50)
    rep = fragile_experiment(h, 2, 400, seed=5)
    assert rep.t == 0
    assert rep.s == 0
    assert rep.gamma_edges == 0
    assert rep.genus_lower_gamma > 0
    # the density bound of the random edges alone, the pairs drawn by seed
    assert rep.genus_lower_gamma == nx_density_bound(Graph(50, uniform_pairs(50, 400, 5)))
    assert rep.upper_bound == 400  # base path is planar


def test_good_edge_rate_across_trials() -> None:
    h = path_graph(400)
    delta, k, trials = 2, 200, 30
    want = k / (2 * delta**2) - 3 * math.sqrt(k) / (2 * delta)
    total = 0
    for t in range(trials):
        rep = fragile_experiment(h, delta, k, seed=(88, t))
        total += rep.good_edge_count
    assert total / trials >= want


def test_quotient_genus_never_exceeds_perturbed_graph(genus_of) -> None:
    h = path_graph(8)
    d = select_cores(h, decompose_into_pieces(h, 1, 2))
    for t in range(6):
        combined, added = add_uniform_edges(h, 6, seed=(77, t))
        gamma = build_quotient(d, added)
        assert genus_of(gamma) <= genus_of(combined)


def test_fragile_experiment_validates_base() -> None:
    with pytest.raises(DecompositionError):
        fragile_experiment(Graph(6, [(0, 1), (2, 3), (4, 5)]), 2, 3, seed=0)
    with pytest.raises(DecompositionError):
        fragile_experiment(path_graph(10), 1, 3, seed=0)


def test_cores_are_decomposed_once_per_base_l_and_delta(monkeypatch) -> None:
    # k = 100, 250, 400 give l = 180, 72, 45 at Delta = 2, and l = 270 at Delta = 3
    runs = [(2, 100), (2, 250), (2, 100), (3, 100), (2, 400), (2, 250), (3, 100), (2, 100)]
    h = path_graph(3000)
    fresh = [fragile_experiment(Graph(h.n, h.edge_array), delta, k, seed=(9, i))
             for i, (delta, k) in enumerate(runs)]
    calls = Counter()
    decompose = fragile.decompose_into_pieces

    def counted(H, l, Delta):
        calls[l, Delta] += 1
        return decompose(H, l, Delta)

    monkeypatch.setattr(fragile, "decompose_into_pieces", counted)
    got = [fragile_experiment(h, delta, k, seed=(9, i)) for i, (delta, k) in enumerate(runs)]
    assert got == fresh
    assert calls == {(180, 2): 1, (72, 2): 1, (45, 2): 1, (270, 3): 1}
    assert set(h._cored) == set(calls)


def test_a_failing_base_raises_every_time_and_caches_nothing(monkeypatch) -> None:
    star = Graph(5, [(0, v) for v in range(1, 5)])
    for _ in range(2):
        with pytest.raises(DecompositionError, match="star"):
            fragile_experiment(star, 3, 2, seed=0)
    assert star._cored is None
    decompose = fragile.decompose_into_pieces
    calls = []

    def one_piece(H, l, Delta):
        calls.append(l)
        d = decompose(H, l, Delta)
        return dataclasses.replace(d, pieces=d.pieces[:1])

    monkeypatch.setattr(fragile, "decompose_into_pieces", one_piece)
    h = path_graph(3000)
    for _ in range(2):
        with pytest.raises(DecompositionError, match="interval"):
            fragile_experiment(h, 2, 100, seed=0)
    assert calls == [180, 180]
    assert h._cored is None


def test_equality_and_hash_ignore_the_caches() -> None:
    h = path_graph(3000)
    twin = Graph(h.n, h.edge_array)
    before = hash(h)
    fragile_experiment(h, 2, 100, seed=1)
    assert h._cored and twin._cored is None
    assert h == twin
    assert hash(h) == hash(twin) == before
    d = select_cores(h, decompose_into_pieces(h, 180, 2))
    assert d.owner[list(d.cores[0])].tolist() == [0] * d.s
    assert d == h._cored[180, 2]
    assert hash(d) == hash(h._cored[180, 2])
    assert not d.owner.flags.writeable
