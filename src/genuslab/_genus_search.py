"""Minimum-genus search over the rotation systems of one biconnected block.

Darts are numbered so that edge j contributes darts 2j and 2j+1 and reversal
is xor with 1.  The face successor of a dart d is the dart that follows
d ^ 1 in the rotation at the head of d, so fixing the cyclic order at a
vertex fixes the successor of every dart entering it.

The search is depth first and fixes one vertex per node, in an order that
keeps the next vertex's unfixed neighbours as few as possible.  The partial
face walks are kept as chains of darts: linking a dart to its successor
either joins two chains or closes one into a face, in constant time, and is
undone the same way on backtrack.  Each depth reads its vertex's rotations,
with their links in both orders, from a table filled as the search first
reaches them, so a node neither builds nor reverses a rotation.

Every face still to close is a union of open chains, and every face walk of
a 2-connected block contains a cycle, so has at least girth darts.  Each
face that contains a long chain (one of at least girth darts) can be charged
to one of its long chains, and every other face takes at least girth darts
from the shorter chains, so the faces still to close number at most
long + short_darts // girth.  That is weight // girth, where weight sums the
open chains' lengths each capped at girth, and weight changes in constant
time with each link and its undo.  A branch is pruned when the closed faces
plus that bound fall short of the target.  The target is the face count of
genus g for g = lower, lower + 1, ... (iterative deepening), so the first
complete rotation found has the minimum genus.
"""

from __future__ import annotations

from itertools import permutations

# There is one pure-Python kernel; the flag records the backend in reports.
HAVE_NUMBA = False

# A vertex of degree at most this keeps its rotations, at most 7! = 5040,
# in a table for the whole search; a higher-degree vertex regenerates them
# on every visit, as its table could outgrow memory.
TABLE_DEGREE = 8


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


def _rotations(outs: list[int], mirror_free: bool):
    """Every cyclic order of outs, as (links, links reversed), where links
    lists the (entering dart, successor) pairs the order fixes.

    With mirror_free only one of each mirror pair is produced: reversing
    every rotation of a system preserves its faces, so dropping reflections
    at one vertex cannot lose the minimum.
    """
    first = outs[0]
    for rest in permutations(outs[1:]):
        if mirror_free and len(rest) > 1 and rest[0] > rest[-1]:
            continue
        seq = (first,) + rest
        links = [(seq[i - 1] ^ 1, seq[i]) for i in range(len(seq))]
        yield links, links[::-1]


def search_block(
    out_darts: list[list[int]], girth: int, genus: int, budget: int
) -> tuple[int, int, list[list[int]], int]:
    """Minimum genus of a 2-connected block, searched from genus upward.

    out_darts[v] lists the darts leaving vertex v.  Returns (lower, upper,
    rotation, nodes): rotation[v] is a cyclic order of v's outgoing darts,
    and the embedding it gives has genus upper.  When the search finishes,
    lower == upper is the minimum genus.  When the node budget runs out,
    lower is the lowest genus not yet refuted, and the search spends at most
    one node per vertex more on completing its current branch to get upper.

    A node is pruned unless closed + long + short_darts // girth reaches the
    target (see the module docstring), computed as closed + weight // girth
    with weight = girth * long + short_darts kept as one counter.
    """
    nv = len(out_darts)
    nd = sum(len(o) for o in out_darts)
    order = _vertex_order(out_darts)
    cap = [min(x, girth) for x in range(nd + 1)]

    # drop mirror images at the first vertex that has a choice
    first_choice = sum(len(o) == 2 for o in out_darts)
    # tables[k] holds the rotations of depth k met so far, in _rotations
    # order, and sources[k] yields the ones after them; past TABLE_DEGREE
    # the table stays empty and sources[k] restarts when it runs out, the
    # only way the search backs out of depth k short of returning
    kept = [len(out_darts[v]) <= TABLE_DEGREE for v in order]
    tables = [[] for _ in range(nv)]
    sources = [_rotations(out_darts[v], k == first_choice) for k, v in enumerate(order)]
    nodes = 0
    while True:
        target = nd // 2 - nv + 2 - 2 * genus
        # chain endpoints: other[x] is the far end of the chain ending or
        # starting at x; length is kept at chain starts
        other = list(range(nd))
        length = [1] * nd
        closed = 0
        weight = nd  # every dart is an open chain of length 1 < girth
        # mark[d] is -1 if linking d closed a face, else the chain start
        # whose chain d's link extended; each dart is linked once per branch
        mark = [0] * nd
        chosen = [None] * nv  # the rotation fixed at each depth
        pos = [0] * nv  # table index of the next rotation at each depth
        k = 0
        while k >= 0:
            if chosen[k] is not None:  # undo the previous order at depth k
                for d, e in chosen[k][1]:
                    s = mark[d]
                    if s < 0:
                        closed -= 1
                        weight += cap[length[e]]
                    else:
                        t = other[s]
                        other[s] = d
                        other[t] = e
                        b = length[e]
                        c = length[s]
                        length[s] = a = c - b
                        weight += cap[a] + cap[b] - cap[c]
                chosen[k] = None
            i = pos[k]
            table = tables[k]
            if i < len(table):
                cur = table[i]
            else:
                cur = next(sources[k], None)
                if cur is None:
                    if not kept[k]:  # restart on the next visit
                        sources[k] = _rotations(out_darts[order[k]], k == first_choice)
                    k -= 1
                    continue
                if kept[k]:
                    table.append(cur)
            pos[k] = i + 1
            for d, e in cur[0]:
                s = other[d]
                if s == e:
                    closed += 1
                    weight -= cap[length[e]]
                    mark[d] = -1
                else:
                    t = other[e]
                    other[s] = t
                    other[t] = s
                    a = length[s]
                    b = length[e]
                    length[s] = c = a + b
                    weight += cap[c] - cap[a] - cap[b]
                    mark[d] = s
            chosen[k] = cur
            nodes += 1
            if closed + weight // girth >= target:
                if k == nv - 1:
                    rotation = [[] for _ in range(nv)]
                    for v, cur in zip(order, chosen):
                        rotation[v] = [e for _, e in cur[0]]
                    return genus, (nd // 2 - nv + 2 - closed) // 2, rotation, nodes
                k += 1
                pos[k] = 0
            if nodes >= budget:
                target = 0  # every branch passes: dive to the nearest leaf
        genus += 1
