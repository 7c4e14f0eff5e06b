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
    path_graph,
    trial_rng,
    uniform_pairs,
)
from genuslab.random_models import _ordered_distinct
from brute_force import same_csr


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
        head_repeats = False
        while len(out) < k:
            draws = rng.integers(0, N, size=size, dtype=np.int64).tolist()
            if not buffers:
                head_repeats = len(set(draws[:k])) < k
            for x in draws:
                if x not in seen:
                    seen.add(x)
                    out.append(x)
            drawn += size
            buffers += 1
            size = max(drawn, 4 * (k - len(out)) + 64)
        return out[:k], buffers, head_repeats

    # (N, k) -> the path every seed takes: "refill" when some seed needs a
    # second buffer, "repeat" when the first k draws of some seed repeat a
    # value yet its first buffer suffices, "distinct" when the first k draws
    # of every seed are distinct
    cases = {(10, 10): "refill", (50, 40): "refill", (1000, 900): "refill",
             (10**6, 3000): "repeat", (10**12, 5000): "distinct"}
    for (N, k), path in cases.items():
        seen = set()
        for seed in range(5):
            expect, buffers, head_repeats = scan(N, k, np.random.default_rng(seed))
            seen.add("refill" if buffers > 1 else "repeat" if head_repeats else "distinct")
            ordered, ascending = _ordered_distinct(N, k, np.random.default_rng(seed))
            assert ordered.tolist() == expect, (N, k, seed)
            assert ascending.tolist() == sorted(expect), (N, k, seed)
        assert path in seen, (N, k)
        if path == "distinct":
            assert seen == {"distinct"}, (N, k)


def _first_distinct(N, k, rng):
    """The argsort path alone: each value's first position in the stream,
    the buffer refilled as _ordered_distinct refills it."""
    buf = rng.integers(0, N, size=k + max(16, k // 8), dtype=np.int64)
    while True:
        values, first = np.unique(buf, return_index=True)
        if values.size >= k:
            ordered = buf[np.sort(first)[:k]]
            return ordered, np.sort(ordered)
        extra = max(len(buf), 4 * (k - values.size) + 64)
        buf = np.concatenate([buf, rng.integers(0, N, size=extra, dtype=np.int64)])


def test_repaired_draws_match_the_argsort_path() -> None:
    # bench seeds whose first m draws of G(10^6, 531623) repeat a value
    N, k = 10**6 * (10**6 - 1) // 2, 531_623
    for seed in (433181378, 332849872, 231221592, 1845889638):
        head = np.random.default_rng(seed).integers(0, N, size=k, dtype=np.int64)
        assert np.unique(head).size < k, seed
        ordered, ascending = _ordered_distinct(N, k, np.random.default_rng(seed))
        expect_ordered, expect_ascending = _first_distinct(N, k, np.random.default_rng(seed))
        assert np.array_equal(ordered, expect_ordered), seed
        assert np.array_equal(ascending, expect_ascending), seed
    # small N, where repeats are dense and the repair often runs out
    for N in (2, 7, 45, 190, 1000):
        for k in sorted({1, N // 3, N // 2, N - 1, N}):
            for seed in range(20):
                got = _ordered_distinct(N, k, np.random.default_rng(seed))
                expect = _first_distinct(N, k, np.random.default_rng(seed))
                assert np.array_equal(got[0], expect[0]), (N, k, seed)
                assert np.array_equal(got[1], expect[1]), (N, k, seed)


def test_canonical_builds_match_the_validating_constructor() -> None:
    # gnm, gnp and add_uniform_edges build their CSR from sorted draws with
    # no checks; Graph() validates, normalises and sorts the same edges
    for n, m, seed, repeats in ((10, 0, 1, False), (10, 45, 2, True), (12, 40, 3, True),
                                (30, 300, 4, True), (10**5, 60_000, 5, False)):
        N = n * (n - 1) // 2
        head = np.random.default_rng(seed).integers(0, N, size=m, dtype=np.int64)
        assert (len(set(head.tolist())) < m) == repeats, (n, m)
        g = gnm(n, m, seed=seed)
        assert same_csr(g, Graph(n, uniform_pairs(n, m, seed))), (n, m)
    for n, p in ((1, 0.5), (40, 0.0), (40, 0.3), (40, 1.0)):
        g = gnp(n, p, seed=n)
        assert same_csr(g, Graph(n, g.edge_array)), (n, p)
    for base in (Graph(12), path_graph(50), complete_graph(6)):
        g, added = add_uniform_edges(base, 10, seed=6)
        union = {tuple(e) for e in base.edge_list()} | {tuple(e) for e in added.tolist()}
        assert same_csr(g, Graph(base.n, sorted(union)))


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
