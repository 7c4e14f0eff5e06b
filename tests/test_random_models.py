from __future__ import annotations

import numpy as np
import pytest

from genuslab import (
    Graph,
    GraphError,
    add_uniform_edges,
    complete_graph,
    gnm,
    gnp,
    kappa_trajectory,
    path_graph,
    trial_rng,
    uniform_pairs,
)
from genuslab.random_models import _ordered_distinct


def test_gnm_deterministic_per_seed() -> None:
    a = gnm(50, 120, seed=7)
    b = gnm(50, 120, seed=7)
    assert a == b
    assert a.edge_array.tobytes() == b.edge_array.tobytes()
    assert a != gnm(50, 120, seed=8)


def test_gnm_edge_count_exact() -> None:
    for m in (0, 1, 17, 1225):
        assert gnm(50, m, seed=3).m == m
    with pytest.raises(GraphError):
        gnm(50, 1226, seed=3)


def test_gnp_mean_edges_within_three_standard_errors() -> None:
    n, p, reps = 30, 0.3, 200
    pairs = n * (n - 1) // 2
    counts = [gnp(n, p, seed=(11, t)).m for t in range(reps)]
    mean = sum(counts) / reps
    sigma = (pairs * p * (1 - p)) ** 0.5
    assert abs(mean - pairs * p) <= 3 * sigma / reps**0.5


def test_gnp_degenerate_probabilities() -> None:
    assert gnp(10, 0.0, seed=1).m == 0
    assert gnp(10, 1.0, seed=1) == complete_graph(10)
    with pytest.raises(GraphError):
        gnp(10, 1.5, seed=1)
    with pytest.raises(GraphError):
        gnp(10, -0.1, seed=1)


def test_ordered_distinct_matches_a_stream_scan() -> None:
    def scan(N, k, rng):
        # the same buffers, scanned one value at a time in stream order
        seen, out, drawn, buffers = set(), [], 0, 0
        size = k + max(16, k // 8)
        while len(out) < k:
            for x in rng.integers(0, N, size=size, dtype=np.int64).tolist():
                if x not in seen:
                    seen.add(x)
                    out.append(x)
            drawn += size
            buffers += 1
            size = max(drawn, 4 * (k - len(out)) + 64)
        return out[:k], buffers

    for N, k in ((10, 10), (50, 40), (1000, 900)):
        refills = 0
        for seed in range(5):
            expect, buffers = scan(N, k, np.random.default_rng(seed))
            refills += buffers > 1
            got = _ordered_distinct(N, k, np.random.default_rng(seed))
            assert got.tolist() == expect, (N, k, seed)
        assert refills, (N, k)  # the refill loop ran


def test_uniform_pairs_draws_every_pair_once() -> None:
    drawn = uniform_pairs(6, 15, seed=5)
    assert drawn.shape == (15, 2)
    assert all(u < v for u, v in drawn.tolist())
    assert {tuple(e) for e in drawn.tolist()} == {(u, v) for v in range(6) for u in range(v)}
    with pytest.raises(GraphError):
        uniform_pairs(6, 16, seed=5)


def test_uniform_pairs_prefix_is_a_valid_graph() -> None:
    drawn = uniform_pairs(40, 60, seed=21)
    g = Graph(40, [tuple(e) for e in drawn.tolist()])
    assert g.m == 60


def test_kappa_trajectory_steps_down_by_merges() -> None:
    n, m_max = 200, 300
    traj = kappa_trajectory(n, m_max, seed=9)
    assert traj.shape == (m_max + 1,)
    assert traj[0] == n
    steps = traj[:-1] - traj[1:]
    assert int(steps.min()) >= 0
    assert int(steps.max()) <= 1


def test_kappa_trajectory_matches_uniform_pairs_prefixes() -> None:
    traj = kappa_trajectory(40, 100, seed=9)
    drawn = uniform_pairs(40, 100, seed=9)
    for j in range(101):
        g = Graph(40, [tuple(e) for e in drawn[:j].tolist()])
        assert g.component_count == traj[j]


def test_add_edges_examples() -> None:
    h = path_graph(10)
    same, added = add_uniform_edges(h, 0, seed=2)
    assert same == h
    assert added.shape == (0, 2)
    combined, added = add_uniform_edges(h, 5, seed=2)
    assert added.shape == (5, 2)
    assert combined.n == h.n
    assert combined.m <= h.m + 5
    for u, w in added.tolist():
        assert combined.has_edge(u, w)
    assert len({tuple(sorted(e)) for e in added.tolist()}) == 5
    for u, w in h.edge_list():
        assert combined.has_edge(u, w)


def test_add_edges_to_edgeless_base() -> None:
    g, added = add_uniform_edges(Graph(12, []), 20, seed=4)
    assert g.m == 20
    assert added.shape == (20, 2)


def test_add_edges_rejects_oversized_request() -> None:
    with pytest.raises(GraphError):
        add_uniform_edges(path_graph(4), 7, seed=0)


def test_trial_rng_streams_stable_and_distinct() -> None:
    a = trial_rng(99, 3).integers(0, 2**32, 8)
    b = trial_rng(99, 3).integers(0, 2**32, 8)
    c = trial_rng(99, 4).integers(0, 2**32, 8)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
