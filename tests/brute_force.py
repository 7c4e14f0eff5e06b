"""Slow reference implementations used to cross-check the fast library code.

Everything here is deliberately naive: exhaustive subset scans and explicit
component walks, with no sharing of logic with the package under test.
"""

from __future__ import annotations

from itertools import combinations, permutations

from genuslab import CycleBudgetError, Graph


def brute_cycles(G: Graph, max_length: int) -> set[tuple[int, ...]]:
    """Every simple cycle of length <= max_length, by trying all tuples.

    Canonical form matches enumerate_cycles: smallest vertex first, second
    entry smaller than the last.
    """
    found: set[tuple[int, ...]] = set()
    for k in range(3, min(max_length, G.n) + 1):
        for sub in combinations(range(G.n), k):
            first = sub[0]
            for rest in permutations(sub[1:]):
                if rest[0] > rest[-1]:
                    continue
                cyc = (first,) + rest
                if all(G.has_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k)):
                    found.add(cyc)
    return found


def dfs_cycles(G: Graph, max_length: int, cap: int = 10_000_000) -> list[tuple[int, ...]]:
    """Every simple cycle of length <= max_length, in enumerate_cycles's
    canonical form and order, by a depth-first walk of every simple path of
    G from each root up to its larger vertices."""
    if max_length < 3:
        return []
    n = G.n
    adj = G.adjacency_lists()
    on_path = bytearray(n)
    out: list[tuple[int, ...]] = []
    for root in range(n):
        if len(adj[root]) < 2:
            continue
        path = [root]
        on_path[root] = 1
        pos = [0]
        while pos:
            v = path[-1]
            nbrs = adj[v]
            i = pos[-1]
            descended = False
            while i < len(nbrs):
                w = nbrs[i]
                i += 1
                if w == root:
                    if len(path) >= 3 and path[1] < path[-1]:
                        out.append(tuple(path))
                        if len(out) > cap:
                            raise CycleBudgetError(cap, max_length)
                elif w > root and not on_path[w] and len(path) < max_length:
                    pos[-1] = i
                    path.append(w)
                    on_path[w] = 1
                    pos.append(0)
                    descended = True
                    break
            if not descended:
                pos.pop()
                on_path[path.pop()] = 0
    return out


def brute_classify(G: Graph, cycle) -> tuple[int, int, int, int, int]:
    """Re-derive a cycle's neighbourhood classification from scratch.

    Deletes the cycle vertices, splits the rest into components, and sorts
    each component by how many edges tie it back to the cycle.  Returns
    (leaf_size, good, bad, tree_components, neighbor_count).
    """
    on_cycle = set(cycle)
    rest = [v for v in range(G.n) if v not in on_cycle]
    parent = {v: v for v in rest}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    off_edges = [
        (u, w) for u, w in G.edge_list() if u not in on_cycle and w not in on_cycle
    ]
    for u, w in off_edges:
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[ru] = rw
    comps: dict[int, list[int]] = {}
    for v in rest:
        comps.setdefault(find(v), []).append(v)
    edge_count = dict.fromkeys(comps, 0)
    for u, _ in off_edges:
        edge_count[find(u)] += 1

    leaf_size = good = bad = tree_components = attached = 0
    for root, members in comps.items():
        attach = {
            v: sum(1 for x in G.neighbors(v) if int(x) in on_cycle)
            for v in members
        }
        total = sum(attach.values())
        if total == 0:
            continue
        attached += sum(1 for v in members if attach[v] > 0)
        is_tree = edge_count[root] == len(members) - 1
        if is_tree and total == 1:
            leaf_size += len(members)
            tree_components += 1
        else:
            for v in members:
                if attach[v] == 1:
                    good += 1
                elif attach[v] >= 2:
                    bad += 1
    return leaf_size, good, bad, tree_components, attached


def brute_excess_witness(G: Graph, max_vertices: int) -> bool:
    """True when some connected induced subgraph on at most max_vertices
    vertices has more edges than vertices."""
    for k in range(4, min(max_vertices, G.n) + 1):
        for sub in combinations(range(G.n), k):
            keep = set(sub)
            edges = [
                (u, w) for u, w in G.edge_list() if u in keep and w in keep
            ]
            if len(edges) <= k:
                continue
            if _connected_on(sub, edges):
                return True
    return False


def _connected_on(vertices, edges) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)
