"""Random graph models: uniform G(n, m), binomial G(n, p), the uniform random
edge ordering behind component-count trajectories, and edge perturbation.

Sampling draws the first k distinct values of an iid uniform stream over all
vertex pairs, which is exactly sampling without replacement: the resulting
edge set is a uniform k-subset and its order is a uniform ordering.  Pairs
are encoded colexicographically as v*(v-1)/2 + u for u < v.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, GraphError, _decode_pairs, _encode_pairs


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Independent per-trial generator, reproducible from (master_seed, trial)."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, trial)))


def _rng_of(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


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
    rng = _rng_of(seed)
    N = n * (n - 1) // 2
    m = int(rng.binomial(N, p)) if N else 0
    return Graph(n, uniform_pairs(n, m, rng))


class EdgeProcess:
    """Uniformly ordered stream of the distinct edges on n vertices.

    take(k) returns the next k edges; the concatenation of all takes is a
    uniform random ordering of all pairs, so any prefix of length m is a
    G(n, m) sample.
    """

    def __init__(self, n: int, seed=None):
        self.n = n
        self._N = n * (n - 1) // 2
        self._rng = _rng_of(seed)
        self._seen: set[int] = set()

    @property
    def remaining(self) -> int:
        return self._N - len(self._seen)

    def take(self, k: int) -> np.ndarray:
        """Next k edges as an (k, 2) array in draw order."""
        if k > self.remaining:
            raise GraphError(f"only {self.remaining} edges remain")
        out = np.empty(k, dtype=np.int64)
        got = 0
        seen = self._seen
        while got < k:
            batch = self._rng.integers(0, self._N, size=max(64, 2 * (k - got)),
                                       dtype=np.int64).tolist()
            for code in batch:
                if code not in seen:
                    seen.add(code)
                    out[got] = code
                    got += 1
                    if got == k:
                        break
        return _decode_pairs(out)


def kappa_trajectory(n: int, m_max: int, seed=None) -> np.ndarray:
    """Component counts along one edge process: entry j is the number of
    components after the first j edges, so entry 0 is n."""
    edges = EdgeProcess(n, seed).take(m_max)
    parent = list(range(n))
    size = [1] * n
    out = np.empty(m_max + 1, dtype=np.int64)
    out[0] = n
    ncomp = n
    for j in range(m_max):
        a, b = int(edges[j, 0]), int(edges[j, 1])
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
        out[j + 1] = ncomp
    return out


def uniform_pairs(n: int, k: int, seed=None) -> np.ndarray:
    """k distinct vertex pairs drawn uniformly without replacement, as a
    (k, 2) array of (u, v) with u < v in their random draw order."""
    N = n * (n - 1) // 2
    if k < 0 or k > N:
        raise GraphError(f"k must be between 0 and {N}")
    return _decode_pairs(_ordered_distinct(N, k, _rng_of(seed)))


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
