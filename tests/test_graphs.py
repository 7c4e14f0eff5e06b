from __future__ import annotations

import dataclasses
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from genuslab import (
    CycleBudgetError,
    Graph,
    GraphError,
    bfs_tree,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    enumerate_cycles,
    format_edge_list,
    giant_component,
    giant_vertices,
    gnm,
    grid_graph,
    hypercube_graph,
    induced_subgraph,
    kernel,
    load_edge_list,
    parse_edge_list,
    path_graph,
    two_core,
)
from genuslab import fragile
from genuslab.acceptance import KAPPA_LAMBDAS, named_fixtures
from genuslab.census import classify_cycle_neighborhood
from genuslab.cli import _random_tree
from genuslab.fragile import PieceDecomposition, build_quotient
from genuslab.graphs import (
    CYCLE_CAP,
    INDEX_ENTRIES,
    _core_degrees,
    _distinct,
    _index_dtype,
    _kernel_cycles,
    _peel,
)
from brute_force import brute_cycles, brute_triangles, dfs_cycles, kernel_walk, same_csr
from showcases import census_showcase


def test_edges_are_canonicalized() -> None:
    g = Graph(4, [(2, 1), (0, 1), (3, 2)])
    assert g.edge_list() == [(0, 1), (1, 2), (2, 3)]
    assert g.n == 4
    assert g.m == 3


def test_equality_ignores_input_order() -> None:
    a = Graph(3, [(1, 0), (2, 1)])
    b = Graph(3, [(1, 2), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph(3, [(0, 1), (0, 2)])
    assert Graph(3) != "x"
    assert repr(a) == "Graph(n=3, m=2)"
    assert a != Graph(4, [(0, 1), (1, 2)])


def test_constructor_rejects_bad_edges() -> None:
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(-1, 0)])


def test_neighbors_sorted_and_degrees_consistent() -> None:
    g = Graph(5, [(0, 4), (0, 2), (0, 1), (2, 4)])
    assert list(g.neighbors(0)) == [1, 2, 4]
    assert g.degrees().tolist() == [3, 1, 2, 0, 2]
    assert g.has_edge(4, 0) and not g.has_edge(1, 2)


def test_component_counts() -> None:
    assert Graph(5, []).component_count == 5
    assert cycle_graph(5).component_count == 1
    two_tri = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert two_tri.component_count == 2
    labels = two_tri.component_labels()
    assert labels[0] == labels[1] == labels[2]
    assert labels[3] == labels[4] == labels[5]
    assert labels[0] != labels[3]


def test_component_count_never_rises_with_an_edge() -> None:
    for t in range(6):
        g = gnm(14, 10, seed=(61, t))
        base = g.component_count
        edges = g.edge_list()
        for u in range(g.n):
            for w in range(u + 1, g.n):
                if not g.has_edge(u, w):
                    assert Graph(g.n, edges + [(u, w)]).component_count <= base


def test_two_core_examples() -> None:
    assert two_core(path_graph(6)).graph.n == 0
    pendant = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 5)])
    core = two_core(pendant)
    assert core.graph == cycle_graph(5)
    assert list(core.old_labels) == [0, 1, 2, 3, 4]
    k5 = complete_graph(5)
    assert two_core(k5).graph == k5


def test_two_core_idempotent_with_min_degree_two() -> None:
    g = Graph(9, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5),
                  (5, 3), (5, 6), (6, 7)])
    core = two_core(g).graph
    assert int(core.degrees().min()) >= 2
    assert two_core(core).graph == core


def test_two_core_survives_long_peel_cascade() -> None:
    # a 200-vertex path hanging off a 100-cycle forces many removal rounds
    edges = [(i, (i + 1) % 100) for i in range(100)]
    edges.append((99, 100))
    edges += [(i, i + 1) for i in range(100, 299)]
    core = two_core(Graph(300, edges))
    assert core.graph.n == 100
    assert core.graph.m == 100
    assert list(core.old_labels) == list(range(100))


def test_two_core_matches_networkx_k_core() -> None:
    import networkx as nx

    for n in (0, 1, 2, 5, 30, 200, 1000):
        for m in (0, n // 3, n // 2, n, 2 * n):
            m = min(m, n * (n - 1) // 2)
            g = gnm(n, m, seed=1000 * n + m)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from(g.edge_list())
            expect = nx.k_core(nxg, 2)
            core = two_core(g)
            assert list(core.old_labels) == sorted(expect.nodes), (n, m)
            assert core.graph.m == expect.number_of_edges(), (n, m)


def test_csr_matches_networkx_adjacency() -> None:
    import networkx as nx

    rng = np.random.default_rng(41)
    cases = [(10, [(5, 1), (0, 3), (1, 0), (4, 2)])]  # vertices 6..9 isolated
    for n in (0, 1, 2, 7, 500):
        for m in (0, n // 2, n, 2 * n):
            edges = gnm(n, min(m, n * (n - 1) // 2), seed=7 * n + m).edge_array.copy()
            flip = rng.random(len(edges)) < 0.5
            edges[flip] = edges[flip][:, ::-1]
            cases.append((n, edges[rng.permutation(len(edges))].tolist()))
    for n, edges in cases:
        g = Graph(n, edges)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        assert len(g._indptr) == n + 1
        assert g._indptr[0] == 0 and g._indptr[-1] == 2 * nxg.number_of_edges()
        assert g.degrees().tolist() == [nxg.degree(v) for v in range(n)]
        for v in range(n):
            assert g.neighbors(v).tolist() == sorted(nxg.adj[v]), (n, v)


def _fifo_search(g: Graph, root: int) -> tuple[list[int], list[int]]:
    adj = g.adjacency_lists()
    parent = [-1] * g.n
    order = [root]
    seen = {root}
    for u in order:
        for x in adj[u]:
            if x not in seen:
                seen.add(x)
                parent[x] = u
                order.append(x)
    return order, parent


def test_bfs_tree_matches_a_fifo_search_and_networkx() -> None:
    import networkx as nx

    cases = [
        (grid_graph(4, 5), (0, 7, 19)),
        (hypercube_graph(4), (0, 9)),
        # two components and the isolated vertex 8
        (Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)]), (0, 2, 5, 8)),
        (Graph(5), (0, 3)),
        (Graph(1), (0,)),
    ]
    for n, m in ((30, 25), (200, 180), (200, 400)):
        cases.append((gnm(n, m, seed=n + m), (0, n // 2, n - 1)))
    for g, roots in cases:
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edge_list())
        for root in roots:
            order, parent = bfs_tree(g, root)
            want_order, want_parent = _fifo_search(g, root)
            assert order.tolist() == want_order, (g, root)
            assert parent.tolist() == want_parent, (g, root)
            assert set(want_order) == set(nx.bfs_tree(nxg, root).nodes), (g, root)
    with pytest.raises(GraphError):
        bfs_tree(Graph(3), 3)


def _scipy_adjacency(g: Graph):
    from scipy.sparse import csr_matrix

    return csr_matrix((np.ones(len(g._indices)), g._indices, g._indptr), shape=(g.n, g.n))


def _shuffled(g: Graph, seed: int) -> Graph:
    """g with its vertices relabelled by a random permutation."""
    return Graph(g.n, np.random.default_rng(seed).permutation(g.n)[g.edge_array])


def _bounded_connected(n: int, top: int, rng) -> Graph:
    """A random connected graph of maximum degree top: a random tree with
    every degree capped at top, plus random edges between vertices still
    below it, with shuffled labels."""
    tree = _random_tree(n, top, rng)
    deg = tree.degrees().copy()
    edges = set(tree.edge_list())
    for _ in range(n):
        u, v = sorted(int(x) for x in rng.integers(0, n, 2))
        if u != v and (u, v) not in edges and deg[u] < top and deg[v] < top:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return _shuffled(Graph(n, sorted(edges)), int(rng.integers(2**32)))


def test_bfs_tree_matches_scipy_breadth_first_order() -> None:
    from scipy.sparse.csgraph import breadth_first_order

    rng = np.random.default_rng(233)
    cases = {
        "path": path_graph(10**5),
        "grid": _shuffled(grid_graph(40, 60), 1),
        # two components and the isolated vertex 8
        "disconnected": Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)]),
    }
    for top in (3, 4):
        for seed in range(5):
            cases[("maximum degree", top, seed)] = _bounded_connected(400, top, rng)
    for name, g in cases.items():
        adj = _scipy_adjacency(g)
        for root in sorted({0, 5, g.n // 2, g.n - 1}):
            order, parent = bfs_tree(g, root)
            want_order, want_parent = breadth_first_order(adj, root)
            want_parent[want_parent < 0] = -1  # scipy marks no parent -9999
            assert np.array_equal(order, want_order), (name, root)
            assert np.array_equal(parent, want_parent), (name, root)


def test_component_labels_match_scipy() -> None:
    import networkx as nx
    from scipy.sparse.csgraph import connected_components

    cases = {("atlas", i): Graph(a.number_of_nodes(), list(a.edges()))
             for i, a in enumerate(nx.graph_atlas_g()) if a.number_of_nodes()}
    cases["edgeless"] = Graph(7)
    cases["isolated vertices"] = Graph(9, [(1, 4), (4, 6), (6, 1), (2, 8)])
    # the centre, the largest label, hooks to the least leaf
    cases["star, largest centre"] = Graph(50, [(v, 49) for v in range(49)])
    cases["shuffled path"] = _shuffled(path_graph(10**5), 3)
    cases["shuffled grid"] = _shuffled(grid_graph(316, 316), 4)
    for i, lam in enumerate(KAPPA_LAMBDAS):
        for seed in range(3):
            cases[("gnm", lam, seed)] = gnm(5000, int(lam * 5000), seed=(239, i, seed))
    for name, g in cases.items():
        ncomp, labels = connected_components(_scipy_adjacency(g), directed=False)
        assert g.component_count == ncomp, name
        assert np.array_equal(g.component_labels(), labels), name
    g = Graph(0)
    assert (g.component_count, g.component_labels().size) == (0, 0)


def test_giant_component_examples() -> None:
    g = Graph(4, [(0, 1), (1, 2), (0, 2)])
    giant = giant_component(g)
    assert giant.graph == complete_graph(3)
    assert list(giant.old_labels) == [0, 1, 2]

    lone = giant_component(Graph(3, []))
    assert lone.graph.n == 1
    assert list(lone.old_labels) == [0]

    g2 = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    assert giant_component(g2).graph == path_graph(4)

    with pytest.raises(GraphError):
        giant_component(Graph(0, []))


def test_giant_component_tie_breaks_by_label() -> None:
    g = Graph(6, [(3, 4), (4, 5), (3, 5), (0, 1), (1, 2), (0, 2)])
    assert list(giant_component(g).old_labels) == [0, 1, 2]


def _check_peel_against_networkx(g: Graph, name) -> None:
    """Core degrees, forest and giant of g against networkx's k_core and
    connected_components (largest component, least vertex on ties)."""
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edge_list())
    deg, forest, owned = _peel(g)
    kcore = nx.k_core(nxg, 2)
    want = np.zeros(g.n, dtype=np.int64)
    for v, d in kcore.degree():
        want[v] = d
    assert np.array_equal(deg, want), name
    assert not any(a.flags.writeable for a in (deg, forest, owned)), name
    for comp in nx.connected_components(nxg):
        members = sorted(comp)
        cores = [v for v in members if deg[v]]
        # the vertices the forest maps to own the whole component
        reps = cores or [int(forest[members[0]])]
        assert sum(int(owned[v]) for v in reps) == len(members), name
        assert all(owned[v] == 0 for v in members if v not in reps), name
        if not cores:
            # a tree component: every vertex maps to one root inside it
            assert len({int(forest[v]) for v in members}) == 1, name
            assert forest[members[0]] in comp, name
            continue
        for v in members:
            owner = int(forest[v])
            if deg[v]:
                assert owner == v, name
                continue
            # v's pendant tree meets the core only at its owner
            assert deg[owner] > 0, name
            outside = nxg.subgraph([u for u in members if not deg[u]] + [owner])
            assert nx.has_path(outside, v, owner), name
    if g.n == 0:
        with pytest.raises(GraphError):
            giant_vertices(g)
        return
    comps = sorted((sorted(c) for c in nx.connected_components(nxg)),
                   key=lambda c: (-len(c), c[0]))
    assert giant_vertices(g).tolist() == comps[0], name
    assert giant_component(g).old_labels.tolist() == comps[0], name


def test_peel_forest_and_giant_match_networkx() -> None:
    cases = {}
    # across the critical window m = n/2 + s, |s| up to n/4
    for n in (40, 300, 2000):
        window = round(n ** (2 / 3))
        for s in (-n // 4, -window, 0, window, n // 4):
            for seed in range(3):
                cases[("gnm", n, s, seed)] = gnm(n, n // 2 + s, seed=(131, n, s + n, seed))
    cases["empty"] = Graph(0)
    cases["isolated"] = Graph(5)
    cases["forest, empty core"] = Graph(12, [(0, 5), (5, 3), (3, 7), (7, 1), (2, 9), (9, 11), (9, 4)])
    # a 10-path larger than the triangle beside it, which holds the core
    cases["path beside triangle"] = Graph(
        13, [(i, i + 1) for i in range(3, 12)] + [(0, 1), (1, 2), (0, 2)])
    # K2 components: two leaves remove each other in the first round
    cases["K2s"] = Graph(9, [(0, 7), (1, 2), (5, 3), (4, 8)])
    # K2s reached in later rounds: even paths peel to their middle edge
    cases["even paths"] = Graph(14, [(i, i + 1) for i in range(5)] + [(i, i + 1) for i in range(6, 13)])
    cases["tied components"] = Graph(
        12, [(6, 7), (7, 8), (1, 4), (4, 9), (2, 3), (3, 5), (5, 2), (0, 10)])
    cases["tied trees"] = Graph(8, [(5, 6), (6, 7), (1, 2), (2, 3)])
    cases["grid"] = grid_graph(7, 9)
    cases["hypercube"] = hypercube_graph(5)
    cases["cycle with pendant paths"] = Graph(
        12, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (0, 6), (6, 7), (7, 8), (8, 9), (7, 10), (1, 11)])
    for name, g in cases.items():
        _check_peel_against_networkx(g, name)


def _union(pieces, seed: int) -> Graph:
    """Disjoint union of (vertex count, edges) pieces, vertices shuffled."""
    n, edges = 0, []
    for k, piece in pieces:
        edges += [(n + u, n + v) for u, v in piece]
        n += k
    return _relabel(n, edges, seed)


def test_giant_vertices_match_networkx_on_unions() -> None:
    # the 2-core is labelled from the kernel: kernel vertices joined by
    # chains, chain vertices, bare cycles as loops; every piece kind wins,
    # and ties fall to whichever piece the shuffle gives the least vertex
    rng = np.random.default_rng(157)

    def ring(k):
        return k, [(i, (i + 1) % k) for i in range(k)]

    def tree(k):
        return k, [(int(rng.integers(i)), i) for i in range(1, k)]

    def theta(k):  # a ring with a chord: two kernel vertices, three chains
        return k, ring(k)[1] + [(0, k // 2)]

    def lollipop(k):  # a ring with a pendant path
        return k, ring(k - k // 2)[1] + [(i - 1, i) for i in range(k - k // 2, k)]

    def cores(k):  # a sparse draw: several core components, trees, rings
        return k, gnm(k, k + int(rng.integers(k // 4 + 1)), seed=int(rng.integers(2**32))).edge_list()

    shapes = {
        "several core components": lambda: [cores(40), cores(25), tree(int(rng.integers(1, 30)))],
        "ring-only cores": lambda: [ring(int(rng.integers(3, 20))) for _ in range(4)] + [tree(10)],
        "a tree wins": lambda: [tree(int(rng.integers(30, 60))), theta(12), ring(9), cores(20)],
        "ties": lambda: [shape(12) for shape in (ring, tree, theta, lollipop, ring, theta)],
        "empty core": lambda: [tree(int(rng.integers(1, 15))) for _ in range(5)],
    }
    for name, pieces in shapes.items():
        for seed in range(40):
            _check_peel_against_networkx(_union(pieces(), seed), (name, seed))
    # a kernel of large diameter with shuffled labels
    _check_peel_against_networkx(_relabel(600, grid_graph(3, 200).edge_list(), seed=1), "long grid")


def test_induced_subgraph_relabels() -> None:
    g = Graph(6, [(0, 2), (2, 4), (4, 0), (1, 3), (4, 5)])
    sub = induced_subgraph(g, [0, 2, 4])
    assert sub.graph == complete_graph(3)
    assert list(sub.old_labels) == [0, 2, 4]


def test_induced_subgraph_sorts_and_dedups_its_vertices() -> None:
    g = Graph(6, [(0, 2), (2, 4), (4, 0), (1, 3), (4, 5)])
    sub = induced_subgraph(g, [4, 0, 2, 4, 0])
    assert sub.graph == complete_graph(3)
    assert list(sub.old_labels) == [0, 2, 4]
    assert induced_subgraph(g, []).graph.n == 0
    for bad in ([0, 6], [-1, 2], [7, 7]):
        with pytest.raises(GraphError):
            induced_subgraph(g, bad)


def test_induced_subgraph_matches_networkx() -> None:
    import networkx as nx

    rng = np.random.default_rng(43)
    graphs = [
        Graph(50, gnm(40, 60, seed=9).edge_array),  # 40..49 and more isolated
        gnm(200, 260, seed=10),
        complete_graph(7),
        Graph(5),
    ]
    for g in graphs:
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edge_list())
        subsets = [[], list(range(g.n)), np.arange(g.n)[::-1], np.flatnonzero(g.degrees() == 0)]
        for size in (1, g.n // 3, g.n):
            picks = rng.integers(0, g.n, size=size)  # unsorted, with repeats
            subsets += [picks.tolist(), picks]
        for verts in subsets:
            kept = sorted(set(np.asarray(verts, dtype=np.int64).tolist()))
            sub = induced_subgraph(g, verts)
            expect = nx.relabel_nodes(nxg.subgraph(kept), {v: i for i, v in enumerate(kept)})
            assert sub.old_labels.tolist() == kept
            assert sub.graph.n == len(kept)
            # canonical order: by the larger end, then the smaller
            want = sorted(((min(e), max(e)) for e in expect.edges), key=lambda e: (e[1], e[0]))
            assert sub.graph.edge_list() == want
            assert same_csr(sub.graph, Graph(len(kept), sub.graph.edge_list()))
        for bad in ([0, g.n], [-1], [g.n - 1, g.n + 5]):
            with pytest.raises(GraphError):
                induced_subgraph(g, bad)
    assert induced_subgraph(Graph(0), []).graph == Graph(0)


def test_index_dtype_is_int32_while_n_and_the_darts_fit() -> None:
    top = np.iinfo(np.int32).max
    assert _index_dtype(top, top) == np.int32
    assert _index_dtype(top + 1, 0) == np.int64
    assert _index_dtype(0, top + 1) == np.int64
    for g in (Graph(0), Graph(3), complete_graph(5), gnm(1000, 900, seed=1),
              _contract(cycle_graph(6), [(0, 3), (1, 4), (2, 5)])):
        assert g._indptr.dtype == g._indices.dtype == np.int32
        assert g.degrees().dtype == np.int32
        if g.n:
            assert g.neighbors(0).dtype == np.int32
    q = _contract(grid_graph(4, 4), [range(0, 5), range(5, 11), [12, 15]])
    assert same_csr(q, Graph(3, q.edge_list()))


def _contract(g: Graph, sets) -> Graph:
    """The quotient of g over disjoint vertex sets, through build_quotient."""
    sets = tuple(tuple(s) for s in sets)
    return build_quotient(PieceDecomposition(l=1, Delta=1, pieces=sets, cores=sets), g.edge_array)


def test_contract_opposite_pairs_of_hexagon() -> None:
    q = _contract(cycle_graph(6), [(0, 3), (1, 4), (2, 5)])
    assert q == complete_graph(3)


def test_contract_singletons_relabels_in_listed_order() -> None:
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert _contract(g, [(3,), (2,), (1,), (0,)]) == path_graph(4)


def test_contract_swallows_internal_edges() -> None:
    two_tri = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    q = _contract(two_tri, [(0, 1, 2), (3, 4, 5)])
    assert q.n == 2
    assert q.m == 0


def test_contract_drops_unlisted_vertices() -> None:
    q = _contract(cycle_graph(6), [(0, 1)])
    assert q.n == 1
    assert q.m == 0


def test_contract_rejects_overlapping_sets() -> None:
    with pytest.raises(GraphError):
        _contract(cycle_graph(6), [(0, 1), (1, 2)])


def test_cycle_enumeration_examples() -> None:
    assert len(enumerate_cycles(complete_graph(4), 4)) == 7
    assert enumerate_cycles(path_graph(6), 6) == []
    assert enumerate_cycles(cycle_graph(5), 4) == []
    assert enumerate_cycles(cycle_graph(5), 5) == [(0, 1, 2, 3, 4)]


def test_cycles_are_canonical_and_unique() -> None:
    cycles = enumerate_cycles(complete_bipartite_graph(3, 3), 6)
    assert len(cycles) == 15  # nine 4-cycles and six 6-cycles
    assert len(set(cycles)) == len(cycles)
    for cyc in cycles:
        assert cyc[0] == min(cyc)
        assert cyc[1] < cyc[-1]


def test_cycle_enumeration_matches_brute_force() -> None:
    theta = Graph(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
    pool = [complete_graph(5), complete_bipartite_graph(2, 3),
            hypercube_graph(3), grid_graph(2, 4), theta]
    for g in pool:
        for max_len in (3, 4, g.n):
            assert set(enumerate_cycles(g, max_len)) == brute_cycles(g, max_len)


def _relabel(n: int, edges, seed: int) -> Graph:
    """The graph on 0..n-1 with the given edges, its vertices shuffled so
    that chain vertices often carry the smallest labels of their cycles."""
    perm = np.random.default_rng(seed).permutation(n)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _subdivided(g: Graph, inner_counts, seed: int) -> Graph:
    """g with edge i replaced by a path through inner_counts[i] new vertices."""
    n, edges = g.n, []
    for (u, v), k in zip(g.edge_list(), inner_counts):
        path = [u, *range(n, n + k), v]
        n += k
        edges += zip(path, path[1:])
    return _relabel(n, edges, seed)


def _theta(*inner_counts: int, seed: int = 0) -> Graph:
    """Two vertices joined by one path through each count of inner vertices."""
    n, edges = 2, []
    for k in inner_counts:
        path = [0, *range(n, n + k), 1]
        n += k
        edges += zip(path, path[1:])
    return _relabel(n, edges, seed)


def _rings(*sizes: int, seed: int) -> Graph:
    """Disjoint cycles of the given sizes: bare cycles, each one kernel
    loop at its least vertex."""
    n, edges = 0, []
    for k in sizes:
        edges += [(n + i, n + (i + 1) % k) for i in range(k)]
        n += k
    return _relabel(n, edges, seed)


def _kernel_fixtures() -> dict[str, Graph]:
    k4 = complete_graph(4)
    k33 = complete_bipartite_graph(3, 3)
    # 0-1-2-3 is a K4 and 4..8 a 5-cycle; the path 0-9-4 hangs the cycle
    # off vertex 4, a kernel loop; 10..15 is a bare 6-cycle component, a
    # loop at its least vertex
    loop_edges = [*k4.edge_list(), *((4 + i, 4 + (i + 1) % 5) for i in range(5)),
                  (0, 9), (9, 4), *((10 + i, 10 + (i + 1) % 6) for i in range(6))]
    # K4 with its edge 0-1 subdivided by 4; pendant trees on the chain
    # vertex 4 and on the K4 vertex 2, plus a tree component
    tree_edges = [(0, 4), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                  (4, 5), (5, 6), (5, 7), (2, 8), (8, 9), (10, 11), (11, 12)]
    return {
        "subdivided K4": _subdivided(k4, [0, 1, 2, 3, 0, 4], seed=1),
        "subdivided K3,3": _subdivided(k33, [i % 4 for i in range(9)], seed=2),
        "theta": _theta(0, 2, 3, seed=3),
        "theta with parallel chains": _theta(1, 1, 2, 4, seed=4),
        "loop and ring": _relabel(16, loop_edges, seed=5),
        "pendant trees": _relabel(13, tree_edges, seed=6),
        "no vertex of degree 3": Graph(12, [*cycle_graph(5).edge_list(), (5, 6), (6, 7),
                                            *((8 + i, 8 + (i + 1) % 4) for i in range(4))]),
    }


def _networkx_cycles(g: Graph, max_length: int) -> set[tuple[int, ...]]:
    import networkx as nx

    nxg = nx.Graph(g.edge_list())
    nxg.add_nodes_from(range(g.n))
    out = set()
    for cyc in nx.simple_cycles(nxg, length_bound=max_length):
        i = cyc.index(min(cyc))
        cyc = cyc[i:] + cyc[:i]
        out.add(tuple(cyc if cyc[1] < cyc[-1] else cyc[:1] + cyc[:0:-1]))
    return out


def test_kernel_search_matches_dfs_and_networkx(monkeypatch) -> None:
    # every cycle length of the sparse fixtures, each one less, and the
    # degenerate bounds; pointer jumping crosses 2,000-vertex chains.  Each
    # search runs with the default index bound (one block of roots), with
    # blocks of a few roots, and with one root per block
    cases = [(name, g, None) for name, g in _kernel_fixtures().items()]
    cases += [("rings", _rings(3, 4, 7, 2000, seed=7), None),
              ("long theta", _theta(2000, 2000, 2000, seed=8), None)]
    # dense graphs shaped like the fragile quotient (m from 6n to 10n), at
    # the short lengths its census takes; the references cost seconds per
    # 10^5 cycles, so the denser graphs stop at shorter lengths
    cases += [(f"gnm({n}, {m})", gnm(n, m, seed=(97, n)), lengths)
              for n, m, lengths in ((40, 240, (3, 4, 5)), (50, 400, (3, 4)), (60, 600, (3,)))]
    for name, g, max_lens in cases:
        if max_lens is None:
            lengths = {len(c) for c in dfs_cycles(g, g.n)}
            assert lengths, name
            max_lens = sorted({2, 3, g.n} | lengths | {k - 1 for k in lengths})
        for max_len in max_lens:
            expect = dfs_cycles(g, max_len)
            assert set(expect) == _networkx_cycles(g, max_len), (name, max_len)
            for entries in (INDEX_ENTRIES, 256, 1):
                monkeypatch.setattr("genuslab.graphs.INDEX_ENTRIES", entries)
                assert enumerate_cycles(g, max_len) == expect, (name, max_len, entries)


def _chain_walks(k) -> list[tuple[int, ...]]:
    """Each chain of the kernel k as the walk of its vertices, tail to head."""
    ends = k.vertices.tolist()
    return [(ends[t], *k.inner[a:b].tolist(), ends[h])
            for t, h, a, b in zip(k.tail.tolist(), k.head.tolist(), k.offsets[:-1], k.offsets[1:])]


def test_kernel_of_a_loop_and_a_ring() -> None:
    g = _kernel_fixtures()["loop and ring"]
    k = kernel(g)
    # the K4, the loop's attachment vertex and the least vertex of the ring
    assert len(k.vertices) == 6
    assert sorted(k.length.tolist()) == [1, 1, 1, 1, 1, 1, 2, 5, 6]
    loops = [w for w in _chain_walks(k) if w[0] == w[-1]]
    assert sorted(map(len, loops)) == [6, 7]
    ring = loops[0] if len(loops[0]) == 7 else loops[1]
    # the ring leaves its least vertex towards the smaller neighbour
    assert ring[0] == min(ring) and ring[1] < ring[-2]
    k = kernel(_kernel_fixtures()["no vertex of degree 3"])
    assert k.vertices.tolist() == [0, 8]
    assert _chain_walks(k) == [(0, 1, 2, 3, 4, 0), (8, 9, 10, 11, 8)]


def test_kernel_partitions_the_core() -> None:
    with_bare = set()
    for seed in range(40):
        n = 10 + 7 * seed
        g = gnm(n, n * (3 + seed % 5) // 6, seed=seed)
        core = two_core(g)
        deg = np.zeros(g.n, dtype=np.int64)
        deg[core.old_labels] = core.graph.degrees()
        components = {}
        for v, c in zip(core.old_labels.tolist(), core.graph.component_labels().tolist()):
            components.setdefault(c, []).append(v)
        bare = [min(c) for c in components.values() if all(deg[v] == 2 for v in c)]
        with_bare.add(bool(bare))
        k = kernel(g)
        assert k.vertices.tolist() == sorted(np.flatnonzero(deg >= 3).tolist() + bare)
        walks = _chain_walks(k)
        # every core edge on exactly one chain
        edges = sorted((min(a, b), max(a, b)) for w in walks for a, b in zip(w, w[1:]))
        assert edges == sorted(map(tuple, core.old_labels[core.graph.edge_array].tolist()))
        assert k.length.tolist() == [len(w) - 1 for w in walks]
        assert k.length.sum() == core.graph.m
        for w in walks:
            assert all(deg[v] == 2 for v in w[1:-1])
            if deg[w[0]] == 2:  # a bare cycle, from its least vertex
                assert w[0] == w[-1] == min(w) and w[1] < w[-2]
    assert with_bare == {True, False}


def test_kernel_matches_a_chain_walk() -> None:
    # pointer jumping stops once every dart's last dart ends at a kernel
    # vertex; graphs with bare cycles and without, and chains of every
    # length near a power of two, must give what walking each chain to its
    # end gives
    cases = dict(_kernel_fixtures())
    cases["rings"] = _rings(3, 4, 7, 8, 2000, seed=7)
    cases["theta of every length"] = _theta(*range(34), seed=9)
    cases["theta near powers of two"] = _theta(0, 1, 2, 3, 4, 7, 8, 9, 255, 256, 257, seed=10)
    cases["long theta"] = _theta(1, 2000, 4, seed=8)
    cases["cycle"] = cycle_graph(10**5)
    for seed in range(60):
        n = 20 + 11 * seed
        cases[("gnm", n)] = gnm(n, n * (4 + seed % 8) // 8, seed=(151, seed))
    mixed = set()
    for name, g in cases.items():
        k = kernel(g)
        vertices, tails, heads, inners = kernel_walk(g)
        assert k.vertices.tolist() == vertices, name
        assert (k.tail.tolist(), k.head.tolist()) == (tails, heads), name
        assert [k.inner[a:b].tolist() for a, b in zip(k.offsets[:-1], k.offsets[1:])] == inners, name
        bare = _core_degrees(g)[k.vertices] == 2
        mixed.add(bool(bare.any() and (~bare).any()))
    assert mixed == {True, False}
    k = kernel(cases["cycle"])  # one loop through every vertex
    assert k.vertices.tolist() == [0] and k.length.tolist() == [10**5]
    assert np.array_equal(k.inner, np.arange(1, 10**5))


def test_kernel_is_built_once_and_read_only() -> None:
    cases = {**_kernel_fixtures(), "gnm": gnm(300, 330, seed=(151, 1)), "empty": Graph(0)}
    for name, g in cases.items():
        h = Graph(g.n, g.edge_array)
        enumerate_cycles(h, 3)  # lists triangles from the edges alone
        assert h._kernel is None and h._peeled is None, name
        if h.n:
            giant_vertices(h)  # builds the kernel the cycle search reads
        k = kernel(h)
        enumerate_cycles(h, 6)
        assert kernel(h) is k, name
        fresh = kernel(Graph(g.n, g.edge_array))
        # every field is an array, read-only and equal to a fresh build's
        for field in dataclasses.fields(k):
            a, b = getattr(k, field.name), getattr(fresh, field.name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (name, field.name)
            with pytest.raises(ValueError):
                a[...] = 0


def test_cycles_of_a_graph_are_the_cycles_of_its_core() -> None:
    # the census enumerates on G and relies on the same list, in the same
    # order, as enumerating on two_core(G) and mapping back through old_labels
    graphs = list(named_fixtures().values())
    for seed in range(12):
        n = 20 + 5 * seed
        g = gnm(n, n * (2 + seed % 4) // 4, seed=(83, seed))
        # every odd label isolated, so core labels and G labels differ
        graphs.append(Graph(2 * n, 2 * g.edge_array))
    for g in graphs:
        core = two_core(g)
        # every cycle where there are few; a graph of larger cycle rank has
        # too many to list in a test, so it stops at a fixed long length
        longest = g.n if g.m - g.n + g.component_count <= 16 else 20
        for max_len in (2, 3, 4, 6, longest):
            mapped = [tuple(core.old_labels[list(c)].tolist())
                      for c in enumerate_cycles(core.graph, max_len)]
            assert enumerate_cycles(g, max_len) == mapped


def test_core_degrees_are_peeled_once_and_read_only() -> None:
    showcase, cycle = census_showcase()
    g = gnm(60, 70, seed=(89, 1))
    calls = {
        "two_core": lambda h, cyc: two_core(h),
        "kernel": lambda h, cyc: kernel(h),
        "classify": lambda h, cyc: classify_cycle_neighborhood(h, cyc),
    }
    for base, cyc in ((showcase, cycle), (g, enumerate_cycles(g, g.n)[0])):
        expect = _core_degrees(Graph(base.n, base.edge_array)).copy()
        for order in itertools.permutations(calls):
            h = Graph(base.n, base.edge_array)
            calls[order[0]](h, cyc)
            deg = _core_degrees(h)  # the array the first call cached
            for name in order[1:]:
                calls[name](h, cyc)
                assert _core_degrees(h) is deg
            assert not deg.flags.writeable
            assert np.array_equal(deg, expect)
            with pytest.raises(ValueError):
                deg[0] = 7


def test_cycle_cap_is_exact() -> None:
    sparse = _kernel_fixtures()["subdivided K3,3"]
    # the dense graph's cycles are found over several batches of prefixes,
    # and the triangles of 1,500 edges over three slices of oriented edges
    for g, max_len in ((sparse, sparse.n), (gnm(50, 400, seed=(97, 50)), 4), (gnm(120, 1500, seed=(41, 1)), 3)):
        cycles = enumerate_cycles(g, max_len)
        assert enumerate_cycles(g, max_len, cap=len(cycles)) == cycles
        with pytest.raises(CycleBudgetError):
            enumerate_cycles(g, max_len, cap=len(cycles) - 1)


def test_cycle_cap_is_exact_in_a_later_root_block(monkeypatch) -> None:
    g = gnm(50, 400, seed=(97, 50))
    cycles = enumerate_cycles(g, 4)
    # every vertex is a kernel vertex, so a cycle's root is its first vertex
    assert kernel(g).vertices.tolist() == list(range(g.n))
    monkeypatch.setattr("genuslab.graphs.INDEX_ENTRIES", 1)  # one root per block
    # a cap no lower than the count of the first block's cycles is passed
    # in a later block
    first_block = sum(c[0] == 0 for c in cycles)
    assert 0 < first_block < len(cycles) - 1
    for cap in (first_block, len(cycles) // 2, len(cycles) - 1):
        with pytest.raises(CycleBudgetError):
            enumerate_cycles(g, 4, cap=cap)
    assert enumerate_cycles(g, 4, cap=len(cycles)) == cycles


def test_cycle_cap_bounds_the_memory_of_a_dense_search() -> None:
    # expanding whole levels of path prefixes at once peaks near 4 MB on
    # K13; K60 has 34,220 triangles and as many wedges, and expanding them
    # all at once peaks near 1.5 MB, its first slice near 0.65 MB
    for g, max_len, bound in ((complete_graph(13), 13, 2_500_000), (complete_graph(60), 3, 1_000_000)):
        tracemalloc.start()
        try:
            with pytest.raises(CycleBudgetError):
                enumerate_cycles(g, max_len, cap=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (max_len, peak)


def test_cycle_cap_bounds_the_memory_of_a_multi_block_search() -> None:
    # 600 kernel vertices of degree about 20 take two blocks of roots at the
    # default bound; a block's index holds at most INDEX_ENTRIES int32
    # entries (1 MB), and the whole search peaks near 4.2 MB here
    g = gnm(600, 6000, seed=(101, 600))
    assert kernel(g).vertices.size > 511
    tracemalloc.start()
    try:
        with pytest.raises(CycleBudgetError):
            enumerate_cycles(g, 5, cap=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def _bench_quotients(monkeypatch, seeds) -> list[Graph]:
    """The core quotients that fragile_experiment(path_graph(10**5), 2,
    5000, seed), the fragile bench trial, bounds at ell = 3."""
    quotients = []
    bound = fragile.genus_lower_bound_short_cycles

    def record(gamma, ell):
        quotients.append(gamma)
        return bound(gamma, ell)

    monkeypatch.setattr(fragile, "genus_lower_bound_short_cycles", record)
    base = path_graph(10**5)
    for seed in seeds:
        fragile.fragile_experiment(base, 2, 5000, seed)
    monkeypatch.undo()
    return quotients


def _assert_triangles(g: Graph, name) -> list[tuple[int, ...]]:
    """enumerate_cycles(g, 3) against the set-based triangles and the
    kernel search at length 3, on a fresh copy that has built no kernel."""
    got = enumerate_cycles(g, 3)
    assert got == sorted(brute_triangles(g)), name
    assert got == _kernel_cycles(Graph(g.n, g.edge_array), 3, CYCLE_CAP), name
    return got


def test_triangles_match_the_oracles(corpus6, fixtures) -> None:
    # gnm draws whose density runs from empty to complete, on at most 24
    # vertices so that the tuple scan of brute_cycles stays cheap
    rng = np.random.default_rng(37)
    cases = {("corpus6", i): g for i, g in enumerate(corpus6)} | fixtures
    for i in range(60):
        n = int(rng.integers(4, 25))
        cases[("gnm", i)] = gnm(n, round(i / 59 * math.comb(n, 2)), seed=(37, i))
    complete = 0
    for name, g in cases.items():
        got = _assert_triangles(g, name)
        assert set(got) == brute_cycles(g, 3), name
        complete += name[0] == "gnm" and len(got) == math.comb(g.n, 3)
    assert complete


def test_triangles_of_the_bench_quotients(monkeypatch) -> None:
    seeds = np.random.SeedSequence(1).generate_state(8).tolist()
    for seed, gamma in zip(seeds, _bench_quotients(monkeypatch, seeds)):
        assert len(_assert_triangles(gamma, seed)) > 1000, seed


def test_triangles_are_the_same_in_slices_of_any_size(monkeypatch) -> None:
    # each slice of oriented edges ends with a check of the cap, so the cap
    # is exact in every slice, and the list is the same whatever the slice
    g = gnm(120, 1500, seed=(41, 1))
    cycles = _kernel_cycles(g, 3, CYCLE_CAP)
    for size in (1, 7, 512):
        monkeypatch.setattr("genuslab.graphs.EXPAND_SLICE", size)
        assert enumerate_cycles(g, 3, cap=len(cycles)) == cycles, size
        for cap in (0, len(cycles) // 2, len(cycles) - 1):
            with pytest.raises(CycleBudgetError) as err:
                enumerate_cycles(g, 3, cap=cap)
            assert (err.value.cap, err.value.max_length) == (cap, 3)
    assert enumerate_cycles(complete_bipartite_graph(3, 4), 3, cap=0) == []


def test_hubs_list_their_triangles_in_bounded_memory() -> None:
    # edges oriented by label alone would send every vertex below a hub at
    # a middle label into it and the hub on to every vertex above, about
    # (n/2)**2 wedges at the star's hub (a peak near 42 MB, 11 MB on the
    # wheel); by degree the hub has no out-neighbour
    hub, n = 2000, 4001
    star = Graph(n, [(hub, v) for v in range(n) if v != hub] + [(0, n - 1)])
    rim = [v for v in range(n) if v != hub]
    wheel = Graph(n, [(hub, v) for v in rim] + list(zip(rim, rim[1:] + rim[:1])))
    cases = {"star": (star, 1), "K2,2000": (complete_bipartite_graph(2, 2000), 0), "wheel": (wheel, n - 1)}
    for name, (g, count) in cases.items():
        tracemalloc.start()
        try:
            got = enumerate_cycles(g, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, (name, peak)
        assert len(got) == count and got == sorted(brute_triangles(g)), name
    assert enumerate_cycles(star, 3) == [(0, hub, n - 1)]


def test_distinct_matches_numpy_unique() -> None:
    rng = np.random.default_rng(11)
    for dtype in (np.int32, np.int64):
        info = np.iinfo(dtype)
        cases = [np.zeros(0, dtype=dtype), np.full(1, 9, dtype=dtype), np.full(1000, -3, dtype=dtype)]
        cases += [rng.integers(-50, 50, size, dtype=dtype) for size in (2, 100, 10_000)]
        cases.append(rng.integers(info.min, info.max, 5000, dtype=dtype, endpoint=True))
        for values in cases:
            before = values.copy()
            got = _distinct(values)
            assert got.dtype == dtype
            assert np.array_equal(got, np.unique(values))
            assert np.array_equal(values, before)


def test_long_chains_need_no_recursion() -> None:
    g = _theta(2000, 2000, 2000)
    cycles = enumerate_cycles(g, 6000)
    assert len(cycles) == 3
    assert [len(c) for c in cycles] == [4002] * 3


def test_cycle_budget_error_reports_limits() -> None:
    with pytest.raises(CycleBudgetError) as err:
        enumerate_cycles(complete_graph(7), 7, cap=10)
    assert err.value.cap == 10
    assert err.value.max_length == 7
    # a worker process hands the error back pickled
    copy = pickle.loads(pickle.dumps(err.value))
    assert (copy.cap, copy.max_length, str(copy)) == (10, 7, str(err.value))


def test_edge_list_round_trip(tmp_path) -> None:
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    text = format_edge_list(g)
    assert text.splitlines()[0].split() == ["5", "3"]
    assert parse_edge_list(text) == g
    path = tmp_path / "g.edgelist"
    path.write_text(text, encoding="utf-8")
    assert load_edge_list(path) == g


def test_parse_rejects_malformed_input() -> None:
    with pytest.raises(GraphError):
        parse_edge_list("3 1\n0 0\n")
    with pytest.raises(GraphError):
        parse_edge_list("3 2\n0 1\n1 0\n")


def test_standard_constructors() -> None:
    assert path_graph(1).m == 0
    assert cycle_graph(3) == complete_graph(3)
    assert complete_graph(4).m == 6
    assert complete_bipartite_graph(3, 3).m == 9
    q3 = hypercube_graph(3)
    assert q3.n == 8
    assert q3.m == 12
    assert set(q3.degrees().tolist()) == {3}
    g = grid_graph(2, 3)
    assert g.n == 6
    assert g.m == 7
    with pytest.raises(GraphError):
        cycle_graph(2)
    with pytest.raises(GraphError):
        path_graph(-1)


def test_named_constructors_equal_their_list_built_forms() -> None:
    for n in [*range(8), 10**5]:
        assert same_csr(path_graph(n), Graph(n, [(i, i + 1) for i in range(n - 1)])), n
    for n in range(3, 9):
        assert same_csr(cycle_graph(n), Graph(n, [(i, (i + 1) % n) for i in range(n)])), n
    for rows in range(5):
        for cols in range(5):
            edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
            edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
            assert same_csr(grid_graph(rows, cols), Graph(rows * cols, edges)), (rows, cols)
