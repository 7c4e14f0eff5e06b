"""Slow reference implementations used to cross-check the fast library code.

Everything here is deliberately naive: exhaustive subset scans and explicit
component walks, with no sharing of logic with the package under test.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations, product

import numpy as np

from genuslab import CycleBudgetError, Graph, GraphError
from genuslab.fragile import DecompositionError, PieceDecomposition, _check_base


def same_csr(a: Graph, b: Graph) -> bool:
    """Equal edge arrays and equal CSR arrays of the same dtype."""
    return a == b and all(
        x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in ((a._indptr, b._indptr), (a._indices, b._indices))
    )


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


def rotation_space(G: Graph) -> int:
    """Number of rotation systems of G: (deg(v) - 1)! per vertex."""
    return math.prod(math.factorial(max(int(d) - 1, 0)) for d in G.degrees())


def brute_genus(G: Graph) -> int:
    """Minimum orientable genus by tracing the faces of every rotation system.

    Each vertex takes every cyclic order of its neighbours; the face
    successor of the dart (u, v) is (v, w), with w the neighbour after u
    in v's order.  With f faces, an isolated vertex counting as one, and
    kappa components, Euler's formula gives the genus
    (2 kappa - n + m - f) / 2.  Runs through rotation_space(G) systems.
    """
    n = G.n
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, w in G.edge_list():
        nbrs[u].append(w)
        nbrs[w].append(u)
    kappa = 0
    seen = [False] * n
    for r in range(n):
        if not seen[r]:
            kappa += 1
            seen[r] = True
            stack = [r]
            while stack:
                for w in nbrs[stack.pop()]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
    isolated = sum(1 for a in nbrs if not a)
    # per vertex, every cyclic order as a map neighbour -> next neighbour
    orders = []
    for a in nbrs:
        maps = []
        for rest in permutations(a[1:]):
            seq = (a[0],) + rest if a else ()
            maps.append({seq[i]: seq[(i + 1) % len(seq)] for i in range(len(seq))})
        orders.append(maps)
    darts = [(u, w) for u in range(n) for w in nbrs[u]]

    def faces(system) -> int:
        traced = set()
        count = 0
        for start in darts:
            if start not in traced:
                count += 1
                u, v = start
                while (u, v) not in traced:
                    traced.add((u, v))
                    u, v = v, system[v][u]
        return count

    f = isolated + max(faces(system) for system in product(*orders))
    return (2 * kappa - n + G.m - f) // 2


def nx_density_bound(G: Graph) -> int:
    """Sum over the networkx components with a cycle of the girth-3 Euler
    bound ceil((e - 3v + 6) / 6), floored at 0."""
    import networkx as nx

    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edge_list())
    total = 0
    for comp in nx.connected_components(H):
        v, e = len(comp), H.subgraph(comp).number_of_edges()
        if e >= v:
            total += max(0, -((3 * v - 6 - e) // 6))
    return total


def kernel_walk(G: Graph):
    """(vertices, tails, heads, inner vertex lists) of G's kernel, in
    kernel's order, by walking networkx's 2-core one vertex at a time.

    The kernel vertices are the core vertices of degree at least 3 and the
    least vertex of each core component that is a bare cycle.  A chain is
    walked from each dart v -> w leaving a kernel vertex until it reaches a
    kernel vertex, and of its two orientations the one whose first dart
    comes first in CSR order (by tail, then head) is kept; so chains are
    listed by that dart, and a bare cycle is one loop from its least vertex
    towards the smaller neighbour."""
    import networkx as nx

    H = nx.Graph(G.edge_list())
    H.add_nodes_from(range(G.n))
    core = nx.k_core(H, 2)
    nbrs = {v: sorted(w) for v, w in core.adjacency()}
    vertices = sorted([v for v in nbrs if len(nbrs[v]) >= 3]
                      + [min(c) for c in nx.connected_components(core)
                         if all(len(nbrs[v]) == 2 for v in c)])
    index = {v: i for i, v in enumerate(vertices)}
    tails, heads, inners = [], [], []
    for v in vertices:
        for w in nbrs[v]:
            walk = [v, w]
            while walk[-1] not in index:
                a, b = nbrs[walk[-1]]
                walk.append(b if a == walk[-2] else a)
            if (v, w) < (walk[-1], walk[-2]):
                tails.append(index[v])
                heads.append(index[walk[-1]])
                inners.append(walk[1:-1])
    return vertices, tails, heads, inners


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


def classification(cn) -> tuple[int, int, int, int, int]:
    """A CycleNeighborhood in brute_classify's form, with the attached count
    good + bad + tree_components last."""
    return (cn.leaf_size, cn.good, cn.bad, cn.tree_components,
            cn.good + cn.bad + cn.tree_components)


def brute_classify(G: Graph, cycle) -> tuple[int, int, int, int, int]:
    """Re-derive a cycle's neighbourhood classification from scratch.

    Deletes the cycle vertices, splits the rest into components, and sorts
    each component by how many edges tie it back to the cycle.  Returns
    (leaf_size, good, bad, tree_components, attached), where attached counts
    the outside vertices adjacent to the cycle.
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


def bfs_pieces(H: Graph, l: int, Delta: int) -> PieceDecomposition:
    """decompose_into_pieces by a per-vertex breadth-first search, explicit
    children lists and one stack walk per detached piece.

    Cut a connected graph of maximum degree at most Delta into connected
    pieces of size between l*Delta and l*Delta**2 covering all but fewer
    than l*Delta vertices.

    Works on a breadth-first spanning tree: scanning vertices deepest
    first, the subtree below a vertex is detached as a piece as soon as its
    undetached part reaches l*Delta vertices.  Every proper child subtree
    was below the threshold at that moment, so a detached piece has at most
    1 + Delta*(l*Delta - 1) <= l*Delta**2 vertices, and the final leftover
    around the root is below l*Delta and is discarded.
    """
    if l < 1:
        raise DecompositionError("l must be at least 1")
    _check_base(H, Delta)
    target = l * Delta
    if target > H.n:
        raise DecompositionError(
            f"need at least l*Delta={target} vertices, have {H.n}"
        )
    parent = [-1] * H.n
    order = [0]
    seen = bytearray(H.n)
    seen[0] = 1
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        for x in H.neighbors(u).tolist():
            if not seen[x]:
                seen[x] = 1
                parent[x] = u
                order.append(x)
    children: list[list[int]] = [[] for _ in range(H.n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    size = [1] * H.n
    detached = bytearray(H.n)
    pieces: list[tuple[int, ...]] = []
    for v in reversed(order):
        total = 1
        for c in children[v]:
            if not detached[c]:
                total += size[c]
        size[v] = total
        if total >= target:
            comp: list[int] = []
            stack = [v]
            while stack:
                u = stack.pop()
                comp.append(u)
                detached[u] = 1
                for c in children[u]:
                    if not detached[c]:
                        stack.append(c)
            pieces.append(tuple(sorted(comp)))
    return PieceDecomposition(l=l, Delta=Delta, pieces=tuple(pieces), cores=())


def bfs_cores(H: Graph, d: PieceDecomposition) -> PieceDecomposition:
    """select_cores by one breadth-first search per piece.

    Shrink each piece to a connected core of the common size s.

    The core is the first s vertices of a breadth-first traversal of the
    piece, which is the same as repeatedly pruning a leaf of the piece's
    spanning tree until s vertices remain.
    """
    s = d.s  # a min over all pieces: read it once
    cores: list[tuple[int, ...]] = []
    for piece in d.pieces:
        members = set(piece)
        root = piece[0]
        taken = [root]
        seen = {root}
        qi = 0
        while qi < len(taken) and len(taken) < s:
            u = taken[qi]
            qi += 1
            for x in H.neighbors(u).tolist():
                if x in members and x not in seen:
                    seen.add(x)
                    taken.append(x)
                    if len(taken) == s:
                        break
        cores.append(tuple(sorted(taken[:s])))
    return PieceDecomposition(l=d.l, Delta=d.Delta, pieces=d.pieces, cores=tuple(cores))


def contract_reference(sets, pairs) -> tuple[int, list[tuple[int, int]]]:
    """build_quotient by a dict from each vertex to its set and a Python
    set of index pairs: (number of sets, sorted edges).

    Any nonnegative vertex may be a member, and a pair may reach past every
    set.  Raises GraphError for an empty set, a negative member, a vertex
    in two sets, or a pair with a negative end.
    """
    owner: dict[int, int] = {}
    sets = [list(s) for s in sets]
    for i, members in enumerate(sets):
        if not members:
            raise GraphError("empty set")
        for v in members:
            if v < 0:
                raise GraphError("member out of range")
            if v in owner:
                raise GraphError("overlapping sets")
            owner[v] = i
    edges: set[tuple[int, int]] = set()
    for u, v in pairs:
        if u < 0 or v < 0:
            raise GraphError("negative pair end")
        a, b = owner.get(u), owner.get(v)
        if a is not None and b is not None and a != b:
            edges.add((min(a, b), max(a, b)))
    return len(sets), sorted(edges)


# Reference for genuslab._genus_search.search_block: the same search, one
# dart per node in the same order, but each slot lists its darts by testing
# every dart of its vertex against the rotation placed so far and the mirror
# rule as stated, and every node recounts faces and open chains instead of
# keeping them as it links darts, so both must visit the same nodes in the
# same order.


def _vertex_order(out_darts: list[list[int]]) -> list[int]:
    """Degree-2 vertices first, as their rotation is forced; then always a
    vertex with the fewest neighbours not yet fixed (ties: lower degree, then
    lower index), so that faces close as early as possible."""
    nv = len(out_darts)
    tail = {d: v for v, outs in enumerate(out_darts) for d in outs}
    fixed_nbrs = [0] * nv
    left = set(range(nv))
    order = []

    def rank(u: int) -> tuple[bool, int, int, int]:
        d = len(out_darts[u])
        return d == 2, fixed_nbrs[u] - d, -d, -u

    while left:
        v = max(left, key=rank)
        left.remove(v)
        order.append(v)
        for d in out_darts[v]:
            fixed_nbrs[tail[d ^ 1]] += 1
    return order


def _next_darts(outs: list[int], seq: list[int], mirror_free: bool):
    """The darts that can follow seq, a prefix of a rotation of outs starting
    at outs[0], in itertools.permutations order.

    With mirror_free only rotations whose last dart exceeds their second are
    completed: reversing every rotation of a system preserves its faces, so
    dropping reflections at one vertex cannot lose the minimum.  A dart is
    offered only if some completion after it keeps that rule.
    """
    for x in outs[1:]:
        if x in seq:
            continue
        if mirror_free:
            second = seq[1] if len(seq) > 1 else x
            after = [y for y in outs[1:] if y not in seq and y != x]
            if max(after, default=x) < second:
                continue
        yield x


def _chain_census(succ: list[int], girth: int) -> tuple[int, int, int]:
    """(closed faces, long chains, short darts) of the partial face walks,
    found by walking every chain of the successor map from scratch.

    succ[d] is the face successor linked to dart d, or -1.  An open chain
    starts at a dart that is no dart's successor and ends at an unlinked
    dart; it is long when it has at least girth darts.  The darts left over
    lie on closed faces.
    """
    nd = len(succ)
    has_pred = [False] * nd
    for e in succ:
        if e >= 0:
            has_pred[e] = True
    seen = [False] * nd
    long_chains = short_darts = 0
    for x in range(nd):
        if has_pred[x]:
            continue
        size = 0
        while x >= 0:
            seen[x] = True
            size += 1
            x = succ[x]
        if size >= girth:
            long_chains += 1
        else:
            short_darts += size
    closed = 0
    for x in range(nd):
        if not seen[x]:
            closed += 1
            while not seen[x]:
                seen[x] = True
                x = succ[x]
    return closed, long_chains, short_darts


def search_block_reference(
    out_darts: list[list[int]], girth: int, genus: int, budget: int
) -> tuple[int, int, list[list[int]], int]:
    """Minimum genus of a 2-connected block, searched from genus upward.

    out_darts[v] lists the darts leaving vertex v.  Returns (lower, upper,
    rotation, nodes): rotation[v] is a cyclic order of v's outgoing darts,
    and the embedding it gives has genus upper.  A node places one dart.
    When the search finishes, lower == upper is the minimum genus.  When the
    node budget runs out, lower is the lowest genus not yet refuted, and the
    search spends at most one node per slot more on completing its current
    branch to get upper.

    Vertex v has a slot for each of its darts after out_darts[v][0].  Each
    node recounts its closed faces and open chains with _chain_census and is
    pruned unless closed + long + short_darts // girth reaches the target:
    every face still to close is a union of open chains and has at least
    girth darts.
    """
    nv = len(out_darts)
    nd = sum(len(o) for o in out_darts)
    order = _vertex_order(out_darts)
    slots = [(v, i) for v in order for i in range(1, len(out_darts[v]))]

    # drop mirror images at the first vertex that has a choice
    first_choice = sum(len(o) == 2 for o in out_darts)
    mirror = order[first_choice] if first_choice < nv else -1
    nodes = 0
    while True:
        target = nd // 2 - nv + 2 - 2 * genus
        succ = [-1] * nd
        seq = [[outs[0]] for outs in out_darts]  # each vertex's rotation so far
        choices = [None] * len(slots)
        k = 0
        choices[0] = _next_darts(out_darts[order[0]], seq[order[0]], order[0] == mirror)
        while k >= 0:
            v, i = slots[k]
            last = i == len(out_darts[v]) - 1
            if len(seq[v]) > i:  # undo the dart placed at slot k
                e = seq[v].pop()
                succ[seq[v][-1] ^ 1] = -1
                if last:
                    succ[e ^ 1] = -1
            e = next(choices[k], None)
            if e is None:
                k -= 1
                continue
            succ[seq[v][-1] ^ 1] = e
            seq[v].append(e)
            if last:
                succ[e ^ 1] = seq[v][0]
            nodes += 1
            closed, long_chains, short_darts = _chain_census(succ, girth)
            if closed + long_chains + short_darts // girth >= target:
                if k == len(slots) - 1:
                    return genus, (nd // 2 - nv + 2 - closed) // 2, seq, nodes
                k += 1
                u = slots[k][0]
                choices[k] = _next_darts(out_darts[u], seq[u], u == mirror)
            if nodes >= budget:
                target = 0  # every branch passes: dive to the nearest leaf
        genus += 1
