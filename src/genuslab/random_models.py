"""Random graph models: uniform G(n, m), binomial G(n, p), uniform pair
streams, and edge perturbation.

Every edge stream comes from uniform_pairs, which draws the first k distinct
values of an iid uniform stream over all vertex pairs.  That is exactly
sampling without replacement: the edge set is a uniform k-subset, its order
is a uniform ordering, and so every prefix of length j is a G(n, j) sample.
Pairs are encoded colexicographically as v*(v-1)/2 + u for u < v.

The draw comes both in stream order and ascending, from one sort of the
first k values.  When some of them repeat, the later copies are dropped and
replaced by the first new values after them, so only a draw that runs out
of those pays an argsort of the whole buffer.  Ascending codes decode to a
canonical edge array, so gnm, gnp and add_uniform_edges build their Graph
from it directly (Graph._from_canonical), without the validating
constructor's second sort.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, GraphError, _decode_pairs, _distinct, _encode_pairs


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Independent per-trial generator, reproducible from (master_seed, trial)."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, trial)))


def _ordered_distinct(N: int, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """First k distinct values of an iid uniform stream over range(N), in
    stream order and ascending."""
    if k > N:
        raise GraphError(f"cannot draw {k} distinct pairs from {N}")
    if k == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    size = k + max(16, k // 8)
    buf = rng.integers(0, N, size=size, dtype=np.int64)
    head = np.sort(buf[:k])
    repeat = head[1:] == head[:-1]
    if not repeat.any():
        return buf[:k], head  # the first k draws are distinct
    # repair: drop the later copies of each value repeated in the head and
    # fill their places with the first new values after it, looked for in a
    # short stretch of the rest of the buffer
    at = np.flatnonzero(np.isin(buf[:k], head[1:][repeat]))
    _, first = np.unique(buf[at], return_index=True)
    later = np.delete(at, first)
    rest = buf[k:k + 4 * later.size + 64]
    fresh = rest[head[np.minimum(np.searchsorted(head, rest), k - 1)] != rest]
    _, seen = np.unique(fresh, return_index=True)
    if seen.size >= later.size:
        add = fresh[np.sort(seen)[:later.size]]
        distinct = head[np.concatenate(([True], ~repeat))]
        added = np.sort(add)
        return (np.concatenate([np.delete(buf[:k], later), add]),
                np.insert(distinct, np.searchsorted(distinct, added), added))
    while True:
        # first stream position of each distinct value: the least position
        # in each run of equal values after an (unstable) argsort
        order = np.argsort(buf)
        runs = buf[order]
        starts = np.flatnonzero(np.concatenate(([True], runs[1:] != runs[:-1])))
        first = np.minimum.reduceat(order, starts)
        if len(first) >= k:
            # the k values first seen no later than the k-th distinct one
            kept = first <= np.partition(first, k - 1)[k - 1]
            return buf[np.sort(first[kept])], runs[starts[kept]]
        extra = max(len(buf), 4 * (k - len(first)) + 64)
        buf = np.concatenate([buf, rng.integers(0, N, size=extra, dtype=np.int64)])


def gnm(n: int, m: int, seed=None) -> Graph:
    """Uniform random graph with n vertices and exactly m edges."""
    if n < 0 or m < 0:
        raise GraphError("n and m must be nonnegative")
    N = n * (n - 1) // 2
    if m > N:
        raise GraphError(f"m={m} exceeds the {N} possible edges")
    # the ascending draw is canonical; the draw buffer and the codes are
    # freed before the CSR build
    return Graph._from_canonical(n, _decode_pairs(_ordered_distinct(N, m, np.random.default_rng(seed))[1]))


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
    return Graph._from_canonical(n, _decode_pairs(_ordered_distinct(N, m, rng)[1]))


def uniform_pairs(n: int, k: int, seed=None) -> np.ndarray:
    """k distinct vertex pairs drawn uniformly without replacement, as a
    (k, 2) array of (u, v) with u < v in their random draw order."""
    N = n * (n - 1) // 2
    if k < 0 or k > N:
        raise GraphError(f"k must be between 0 and {N}")
    return _decode_pairs(_ordered_distinct(N, k, np.random.default_rng(seed))[0])


def add_uniform_edges(G: Graph, k: int, seed=None) -> tuple[Graph, np.ndarray]:
    """Union G with k vertex pairs drawn uniformly without replacement.

    The added set is a uniform k-subset of all n(n-1)/2 pairs, independent
    of G; pairs already present in G are absorbed by the union, so the
    result has at most m + k edges.  Returns (augmented graph, (k, 2) array
    of the drawn pairs in their random insertion order), the pairs being
    uniform_pairs(G.n, k, seed).
    """
    added = uniform_pairs(G.n, k, seed)
    merged = _distinct(_encode_pairs(*np.concatenate([G.edge_array, added]).T))
    return Graph._from_canonical(G.n, _decode_pairs(merged)), added
