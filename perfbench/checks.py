"""Correctness checks for the benchmark, computed apart from genuslab.

Every check returns a list of failure messages; an empty list means the
output passed.  The checks recompute what they compare against from the
inputs (face walks, Euler bounds, triangle counts, distinct pairs) and
use genuslab only to read its outputs, never to produce the reference.
"""

from __future__ import annotations

import math

import numpy as np


def euler_short_cycle_bound(n: int, m: int, kappa: int, ell: int, short: int) -> int:
    """Genus lower bound of a graph with n vertices, m edges, kappa
    components and `short` cycles of length at most ell.

    At most 2*short faces are short, the rest have length at least ell + 1,
    and face lengths sum to 2m, so f <= (2m + 2*short*(ell - 2)) / (ell + 1)
    and the Euler formula gives g >= ceil((m - n + kappa + 1 - f) / 2).
    """
    rank = m - n + kappa
    if rank <= 0:
        return 0
    num = (rank + 1) * (ell + 1) - 2 * m - 2 * short * (ell - 2)
    return max(0, -(-num // (2 * (ell + 1))))


def face_walk_genus(n: int, edges, rotation) -> int:
    """Genus of the connected graph (n, edges) embedded by rotation.

    rotation maps each vertex to its neighbours in cyclic order; the face
    after dart (u, v) is (v, w) with w the successor of u around v.  Raises
    ValueError when the rotation is not a cyclic order of each vertex's
    neighbours.
    """
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    if set(rotation) != set(range(n)):
        raise ValueError("rotation does not cover exactly the vertices")
    for v in range(n):
        order = rotation[v]
        if len(order) != len(nbrs[v]) or set(order) != nbrs[v]:
            raise ValueError(f"rotation at vertex {v} is not an order of its neighbours")
    succ = {}
    for v in range(n):
        order = rotation[v]
        for i, u in enumerate(order):
            succ[(u, v)] = (v, order[(i + 1) % len(order)])
    seen = set()
    faces = 0
    for dart in succ:
        if dart in seen:
            continue
        faces += 1
        while dart not in seen:
            seen.add(dart)
            dart = succ[dart]
    twice = 2 - n + len(edges) - faces
    if twice < 0 or twice % 2:
        raise ValueError("face walk breaks the Euler formula; is the graph connected?")
    return twice // 2


def check_exact(name: str, n: int, edges, planar: bool, label: int, result) -> list[str]:
    """An exact_genus result on a corpus block of known genus `label` (0 or 1).

    The returned rotation must realise the returned genus under our own face
    walk, networkx's planarity verdict must match genus == 0, and the genus
    must equal the block's label, which the corpus proves with a stored
    witness embedding (an upper bound) and the planarity verdict.
    """
    bad = []
    rotation = {v: tuple(int(w) for w in order) for v, order in result.rotation.items()}
    try:
        walked = face_walk_genus(n, edges, rotation)
    except ValueError as exc:
        return [f"{name}: {exc}"]
    if walked != result.genus:
        bad.append(f"{name}: rotation traces genus {walked}, result says {result.genus}")
    if planar != (result.genus == 0):
        bad.append(f"{name}: planar={planar} but genus {result.genus}")
    if result.genus != label:
        bad.append(f"{name}: genus {result.genus}, block has genus {label}")
    if result.face_count != len(edges) - n + 2 - 2 * result.genus:
        bad.append(f"{name}: face_count {result.face_count} breaks the Euler formula")
    return bad


def check_supercritical(r, n: int, s: int, ell: int) -> list[str]:
    """Identities and inequalities a supercritical_report must satisfy."""
    bad = []

    def need(ok, what):
        if not ok:
            bad.append(f"supercritical: {what}")

    need(r.n == n and r.s == s, f"echoes n={r.n}, s={r.s}")
    need(r.m == n // 2 + s, f"m={r.m} != n//2 + s")
    need(r.core_excess == r.core_edges - r.core_vertices, "core_excess != core_edges - core_vertices")
    need(r.genus_upper == (r.core_edges - r.core_vertices + 1) // 2,
         f"genus_upper={r.genus_upper} != floor((e - v + 1)/2)")
    need(0 <= r.genus_lower <= r.genus_upper,
         f"not 0 <= genus_lower={r.genus_lower} <= genus_upper={r.genus_upper}")
    kappa = 1 if r.core_vertices else 0
    expect = euler_short_cycle_bound(r.core_vertices, r.core_edges, kappa, ell, r.short_cycle_count)
    need(r.genus_lower == expect,
         f"genus_lower={r.genus_lower}, Euler bound from {r.short_cycle_count} cycles gives {expect}")
    need(r.core_vertices <= r.giant_vertices, "core larger than the giant")
    need(r.short_cycle_count >= 0 and r.census_cycle_count >= 0, "negative cycle count")
    need(math.isclose(r.predicted, 8 * s**3 / (3 * n**2), rel_tol=1e-12), "predicted != 8s^3/3n^2")
    need(math.isclose(r.census_threshold, 0.05 * math.log(s**3 / n**2), rel_tol=1e-12),
         "census_threshold != 0.05 ln(s^3/n^2)")
    return bad


def giant_vertices(n: int, edges: np.ndarray) -> np.ndarray:
    """Vertices of the largest component, by scipy's connected components."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    adj = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    _, labels = connected_components(adj, directed=False)
    return np.flatnonzero(labels == np.bincount(labels).argmax())


def check_core_with_networkx(r, n: int, edges: np.ndarray) -> list[str]:
    """Giant and 2-core sizes of the sampled graph, recomputed by scipy and
    networkx.k_core, must match the report."""
    import networkx as nx

    giant = giant_vertices(n, edges)
    if len(giant) != r.giant_vertices:
        return [f"supercritical: giant has {len(giant)} vertices, report says {r.giant_vertices}"]
    inside = np.zeros(n, dtype=bool)
    inside[giant] = True
    g = nx.Graph()
    g.add_edges_from(edges[inside[edges[:, 0]]].tolist())
    core = nx.k_core(g, 2)
    if (core.number_of_nodes(), core.number_of_edges()) != (r.core_vertices, r.core_edges):
        return [
            f"supercritical: networkx 2-core has {core.number_of_nodes()} vertices and "
            f"{core.number_of_edges()} edges, report says {r.core_vertices} and {r.core_edges}"
        ]
    return []


def path_core_owner(n: int, cores, size: int) -> np.ndarray:
    """Core index of each vertex of the path 0-1-...-(n-1), or -1.

    Raises ValueError unless every core is a run of `size` consecutive
    vertices (a connected subpath) and the cores are disjoint.
    """
    owner = np.full(n, -1, dtype=np.int64)
    for i, core in enumerate(cores):
        c = np.asarray(core, dtype=np.int64)
        if len(c) != size or not np.array_equal(c, np.arange(c[0], c[0] + size)):
            raise ValueError(f"core {i} is not {size} consecutive path vertices")
        if (owner[c] >= 0).any():
            raise ValueError(f"core {i} overlaps an earlier core")
        owner[c] = i
    return owner


def quotient_stats(owner: np.ndarray, t: int, added: np.ndarray) -> dict:
    """Edges, components and triangles of the graph on core indices joined
    by the drawn pairs, computed with numpy/scipy."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    a = owner[added[:, 0]]
    b = owner[added[:, 1]]
    keep = (a >= 0) & (b >= 0) & (a != b)
    lo = np.minimum(a[keep], b[keep])
    hi = np.maximum(a[keep], b[keep])
    codes = np.unique(lo * t + hi)
    lo, hi = codes // t, codes % t
    adj = np.zeros((t, t))
    adj[lo, hi] = adj[hi, lo] = 1.0
    kappa = connected_components(csr_matrix(adj), directed=False)[0]
    triangles = int(round(np.trace(adj @ adj @ adj) / 6))
    return {"edges": len(codes), "kappa": int(kappa), "triangles": triangles}


def check_fragile(r, n: int, Delta: int, k: int, q: dict) -> list[str]:
    """A fragile_experiment report (run with ell=3) on the path base against
    the quotient statistics q recomputed by quotient_stats; at ell=3 the
    short cycles of the Euler bound are exactly the triangles."""
    bad = []

    def need(ok, what):
        if not ok:
            bad.append(f"fragile: {what}")

    l = -(-3 * Delta * n // k)
    t = n // (l * Delta)
    need((r.n, r.k, r.Delta, r.l) == (n, k, Delta, l), f"echoes n={r.n} k={r.k} Delta={r.Delta} l={r.l}")
    need(r.t == t and r.s == l * Delta, f"t={r.t}, s={r.s}; the path gives t={t}, s={l * Delta}")
    need(r.upper_bound == k, f"upper_bound={r.upper_bound} != k")
    need(r.gamma_edges == q["edges"], f"gamma_edges={r.gamma_edges}, distinct core pairs {q['edges']}")
    need(r.good_edge_count == q["edges"], f"good_edge_count={r.good_edge_count} != {q['edges']}")
    expect = euler_short_cycle_bound(t, q["edges"], q["kappa"], 3, q["triangles"])
    need(r.genus_lower_gamma == expect,
         f"genus_lower_gamma={r.genus_lower_gamma}, Euler bound from {q['triangles']} triangles gives {expect}")
    return bad
