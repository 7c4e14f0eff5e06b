"""Random graph models: uniform G(n, m), binomial G(n, p), component-count
trajectories along a uniform edge ordering, and edge perturbation.

Every edge stream comes from uniform_pairs, which draws the first k distinct
values of an iid uniform stream over all vertex pairs.  That is exactly
sampling without replacement: the edge set is a uniform k-subset, its order
is a uniform ordering, and so every prefix of length j is a G(n, j) sample.
Pairs are encoded colexicographically as v*(v-1)/2 + u for u < v.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, GraphError, _decode_pairs, _encode_pairs


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Independent per-trial generator, reproducible from (master_seed, trial)."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, trial)))


def _ordered_distinct(N: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """First k distinct values of an iid uniform stream over range(N)."""
    if k > N:
        raise GraphError(f"cannot draw {k} distinct pairs from {N}")
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    size = k + max(16, k // 8)
    buf = rng.integers(0, N, size=size, dtype=np.int64)
    while True:
        # first stream position of each distinct value: the least position
        # in each run of equal values after an (unstable) argsort
        order = np.argsort(buf)
        runs = buf[order]
        starts = np.flatnonzero(np.concatenate(([True], runs[1:] != runs[:-1])))
        first = np.minimum.reduceat(order, starts)
        if len(first) >= k:
            first.sort()
            return buf[first[:k]]
        extra = max(len(buf), 4 * (k - len(first)) + 64)
        buf = np.concatenate([buf, rng.integers(0, N, size=extra, dtype=np.int64)])


def gnm(n: int, m: int, seed=None) -> Graph:
    """Uniform random graph with n vertices and exactly m edges."""
    if n < 0 or m < 0:
        raise GraphError("n and m must be nonnegative")
    N = n * (n - 1) // 2
    if m > N:
        raise GraphError(f"m={m} exceeds the {N} possible edges")
    return Graph(n, uniform_pairs(n, m, seed))


def gnp(n: int, p: float, seed=None) -> Graph:
    """Binomial random graph: each pair is an edge independently with probability p.

    Drawn as m ~ Binomial(n*(n-1)/2, p) followed by a uniform m-subset,
    which is the same distribution.
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    N = n * (n - 1) // 2
    m = int(rng.binomial(N, p)) if N else 0
    return Graph(n, uniform_pairs(n, m, rng))


def kappa_trajectory(n: int, m_max: int, seed=None) -> np.ndarray:
    """Component counts along one uniform edge ordering: entry j is the
    number of components after the first j pairs of uniform_pairs(n, m_max,
    seed), a G(n, j) sample, so entry 0 is n."""
    parent = list(range(n))
    size = [1] * n
    out = np.empty(m_max + 1, dtype=np.int64)
    out[0] = n
    ncomp = n
    for j, (a, b) in enumerate(uniform_pairs(n, m_max, seed).tolist(), 1):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
            ncomp -= 1
        out[j] = ncomp
    return out


def uniform_pairs(n: int, k: int, seed=None) -> np.ndarray:
    """k distinct vertex pairs drawn uniformly without replacement, as a
    (k, 2) array of (u, v) with u < v in their random draw order."""
    N = n * (n - 1) // 2
    if k < 0 or k > N:
        raise GraphError(f"k must be between 0 and {N}")
    return _decode_pairs(_ordered_distinct(N, k, np.random.default_rng(seed)))


def add_uniform_edges(G: Graph, k: int, seed=None) -> tuple[Graph, np.ndarray]:
    """Union G with k vertex pairs drawn uniformly without replacement.

    The added set is a uniform k-subset of all n(n-1)/2 pairs, independent
    of G; pairs already present in G are absorbed by the union, so the
    result has at most m + k edges.  Returns (augmented graph, (k, 2) array
    of the drawn pairs in their random insertion order), the pairs being
    uniform_pairs(G.n, k, seed).
    """
    added = uniform_pairs(G.n, k, seed)
    merged = np.unique(_encode_pairs(*np.concatenate([G.edge_array, added]).T))
    return Graph(G.n, _decode_pairs(merged)), added
