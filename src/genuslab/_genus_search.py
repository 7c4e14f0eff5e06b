"""Minimum-genus search over the rotation systems of one biconnected block,
and a linear-time planarity test that settles genus 0 without it.

Darts are numbered so that edge j contributes darts 2j and 2j+1 and reversal
is xor with 1.  The face successor of a dart d is the dart that follows
d ^ 1 in the rotation at the head of d, so fixing the cyclic order at a
vertex fixes the successor of every dart entering it.

planar_rotation is the Left-Right planarity test.  exact_genus runs it on
each block whose Euler girth bound is 0: a planar block takes its rotation,
and a non-planar one is searched from genus 1.

The search is depth first and places one dart per node.  It fixes the
vertices in an order that keeps the next vertex's unfixed neighbours as few
as possible, each through one slot per dart after its first: a slot takes
the next unused dart in itertools.permutations order as the face successor
of the reversed dart before it, and the last slot also links back to the
first dart.  The partial face walks are kept as chains of darts: a link
either joins two chains or closes one into a face, in constant time, and is
undone the same way on backtrack.

Every face still to close is a union of open chains, and every face walk of
a 2-connected block contains a cycle, so has at least girth darts.  Each
face that contains a long chain (one of at least girth darts) can be charged
to one of its long chains, and every other face takes at least girth darts
from the shorter chains, so the faces still to close number at most
long + short_darts // girth.  That is weight // girth, where weight sums the
open chains' lengths each capped at girth.  A branch is pruned when the
closed faces plus that bound fall short of the target, that is when
score = girth * closed + weight < girth * target.  The target is the face
count of genus g for g = lower, lower + 1, ... (iterative deepening), so the
first complete rotation found has the minimum genus.

Closing a face moves girth from weight to girth * closed, and joining two
chains never raises the capped weight, so score never rises as links are
added: checking it after every dart prunes a rotation at its first failing
link, and the passing rotation systems are met in the same order.
"""

from __future__ import annotations

import heapq

# There is one pure-Python kernel; the flag records the backend in reports.
HAVE_NUMBA = False


def _vertex_order(out_darts: list[list[int]]) -> list[int]:
    """Degree-2 vertices first, as their rotation is forced; then always a
    vertex with the fewest neighbours not yet fixed (ties: lower degree, then
    lower index), so that faces close as early as possible.  A vertex is
    pushed on the heap again each time one of its neighbours is fixed."""
    tail = {d: v for v, outs in enumerate(out_darts) for d in outs}
    unfixed = [len(outs) for outs in out_darts]
    heap = [(d != 2, d, d, u) for u, d in enumerate(unfixed)]
    heapq.heapify(heap)
    order = []
    while heap:
        _, left, _, v = heapq.heappop(heap)
        if left != unfixed[v]:
            continue  # stale: v is ordered, or a neighbour was fixed since
        unfixed[v] = -1
        order.append(v)
        for d in out_darts[v]:
            u = tail[d ^ 1]
            if unfixed[u] > 0:
                unfixed[u] -= 1
                deg = len(out_darts[u])
                heapq.heappush(heap, (deg != 2, unfixed[u], deg, u))
    return order


def planar_rotation(out_darts: list[list[int]], heads: list[int]) -> list[list[int]] | None:
    """A rotation of genus 0, in search_block's form, or None when the graph
    is not planar.

    out_darts[v] lists the darts leaving vertex v and heads[d] is the vertex
    dart d enters.  This is the Left-Right planarity test of Brandes, "The
    Left-Right Planarity Test" (2009), in three passes over a depth-first
    tree, each with an explicit stack.  The first orients every edge away
    from the root and gives it its lowpoints and nesting depth.  The second
    visits each vertex's darts by nesting depth and keeps the return edges
    as a stack of conflict pairs: two intervals, left and right, stored as
    [left low, left high, right low, right high] with -1 for an empty end.
    It fails when two conflicting intervals must sit on one side.  The
    third resolves each dart's side along its ref chain and inserts every
    back edge next to the tree edge it returns around.  Each pass takes
    linear time; sorting each vertex's darts adds O(m log(max degree)).
    """
    nv, nd = len(out_darts), len(heads)
    height = [-1] * nv
    parent = [-1] * nv  # the tree dart into each vertex, -1 at a root
    lowpt = [0] * nd
    lowpt2 = [0] * nd
    depth = [0] * nd  # nesting depth, then signed by side
    up = [[] for _ in range(nv)]  # each vertex's darts as the edges are oriented
    seen = [False] * (nd // 2)
    roots = []
    pos = [0] * nv
    for r in range(nv):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack[-1]
            if pos[v] < len(out_darts[v]):
                d = out_darts[v][pos[v]]
                pos[v] += 1
                if seen[d >> 1]:
                    continue
                seen[d >> 1] = True
                up[v].append(d)
                w = heads[d]
                lowpt[d] = lowpt2[d] = height[v]
                if height[w] < 0:
                    parent[w] = d
                    height[w] = height[v] + 1
                    stack.append(w)
                    continue
                lowpt[d] = height[w]
            else:
                stack.pop()
                d = parent[v]
                if d < 0:
                    continue
                v = heads[d ^ 1]
            # dart d out of v is finished: it passes its lowpoints to v's tree dart
            depth[d] = 2 * lowpt[d] + (lowpt2[d] < height[v])
            e = parent[v]
            if e >= 0:
                if lowpt[d] < lowpt[e]:
                    lowpt2[e] = min(lowpt[e], lowpt2[d])
                    lowpt[e] = lowpt[d]
                elif lowpt[d] > lowpt[e]:
                    lowpt2[e] = min(lowpt2[e], lowpt[d])
                else:
                    lowpt2[e] = min(lowpt2[e], lowpt2[d])

    for outs in up:
        outs.sort(key=depth.__getitem__)
    ref = [-1] * nd
    side = [1] * nd
    lowpt_edge = [0] * nd
    bottom = [None] * nd  # the conflict pair on top when each dart started
    pairs = []

    def lowest(p: list[int]) -> int:
        return min(lowpt[x] for x in (p[0], p[2]) if x >= 0)

    pos = [0] * nv
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            e = parent[v]
            outs = up[v]
            if pos[v] < len(outs):
                d = outs[pos[v]]
                pos[v] += 1
                bottom[d] = pairs[-1] if pairs else None
                if parent[heads[d]] == d:
                    stack.append(heads[d])
                    continue
                lowpt_edge[d] = d
                pairs.append([-1, -1, d, d])
            else:
                stack.pop()
                if e < 0:
                    continue
                # drop the back edges that end at e's tail u
                u = heads[e ^ 1]
                while pairs and lowest(pairs[-1]) == height[u]:
                    p = pairs.pop()
                    if p[0] >= 0:
                        side[p[0]] = -1
                if pairs:
                    p = pairs[-1]
                    while p[1] >= 0 and heads[p[1]] == u:
                        p[1] = ref[p[1]]
                    if p[1] < 0 and p[0] >= 0:
                        ref[p[0]] = p[2]
                        side[p[0]] = -1
                        p[0] = -1
                    while p[3] >= 0 and heads[p[3]] == u:
                        p[3] = ref[p[3]]
                    if p[3] < 0 and p[2] >= 0:
                        ref[p[2]] = p[0]
                        side[p[2]] = -1
                        p[2] = -1
                if lowpt[e] < height[u]:  # e takes the side of a highest return edge
                    hl, hr = pairs[-1][1], pairs[-1][3]
                    ref[e] = hl if hl >= 0 and (hr < 0 or lowpt[hl] > lowpt[hr]) else hr
                d, v = e, u
                e = parent[v]
                outs = up[v]
            # dart d out of v is finished: merge its return edges into v's
            if lowpt[d] >= height[v]:
                continue
            if d == outs[0]:
                lowpt_edge[e] = lowpt_edge[d]
                continue
            p = [-1, -1, -1, -1]
            while True:  # d's own return edges go right
                q = pairs.pop()
                if q[0] >= 0:
                    q = q[2:] + q[:2]
                if q[0] >= 0:
                    return None
                if lowpt[q[2]] > lowpt[e]:
                    if p[2] < 0:
                        p[3] = q[3]
                    else:
                        ref[p[2]] = q[3]
                    p[2] = q[2]
                else:
                    ref[q[2]] = lowpt_edge[e]
                if (pairs[-1] if pairs else None) is bottom[d]:
                    break
            # the earlier darts' return edges that conflict with d go left
            while pairs and any(h >= 0 and lowpt[h] > lowpt[d] for h in pairs[-1][1::2]):
                q = pairs.pop()
                if q[3] >= 0 and lowpt[q[3]] > lowpt[d]:
                    q = q[2:] + q[:2]
                if q[3] >= 0 and lowpt[q[3]] > lowpt[d]:
                    return None
                if p[2] >= 0:
                    ref[p[2]] = q[3]
                if q[2] >= 0:
                    p[2] = q[2]
                if p[1] < 0:
                    p[1] = q[1]
                else:
                    ref[p[0]] = q[1]
                p[0] = q[0]
            if p[1] >= 0 or p[3] >= 0:
                pairs.append(p)

    # sign each dart by its side, resolved along its ref chain
    for outs in up:
        for d in outs:
            chain = []
            x = d
            while ref[x] >= 0:
                chain.append(x)
                x = ref[x]
            s = side[x]
            for y in reversed(chain):
                s = side[y] = side[y] * s
                ref[y] = -1
            depth[d] *= side[d]
        outs.sort(key=depth.__getitem__)
    # each vertex's ring: its dart to the parent, then its own darts by depth
    nxt = [0] * nd
    prv = [0] * nd
    for v, outs in enumerate(up):
        ring = outs if parent[v] < 0 else [parent[v] ^ 1, *outs]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            nxt[a] = b
            prv[b] = a
    # insert each back edge at its head, beside the tree dart it returns around
    left = [0] * nv
    right = [0] * nv
    pos = [0] * nv
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            if pos[v] == len(up[v]):
                stack.pop()
                continue
            d = up[v][pos[v]]
            pos[v] += 1
            w = heads[d]
            if parent[w] == d:
                left[v] = right[v] = d
                stack.append(w)
                continue
            x = d ^ 1
            if side[d] == 1:
                a = right[w]
            else:
                a = prv[left[w]]
                left[w] = x
            b = nxt[a]
            nxt[a], prv[x], nxt[x], prv[b] = x, a, b, x
    rotation = []
    for outs in out_darts:
        row = outs[:1]
        for _ in outs[1:]:
            row.append(nxt[row[-1]])
        rotation.append(row)
    return rotation


def search_block(
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

    A node is pruned unless closed + long + short_darts // girth reaches the
    target (see the module docstring), kept as one counter score.
    """
    nv = len(out_darts)
    nd = sum(len(o) for o in out_darts)
    order = _vertex_order(out_darts)
    cap = [min(x, girth) for x in range(nd + 1)]

    # slot k places a dart after src[k] ^ 1 from free[k], the unused darts of
    # its vertex owner[k] in permutations order; home[k] is the vertex's first
    # dart at its last slot, where the rotation closes, and -1 elsewhere
    free, home, owner = [], [], []
    src = [0] * (nd - nv)
    for v in order:
        first, *rest = out_darts[v]
        src[len(home)] = first ^ 1
        free += [rest] * len(rest)
        home += [-1] * (len(rest) - 1) + [first]
        owner += [v] * len(rest)
    ns = len(home)
    # reversing every rotation keeps the faces, so the first vertex with a
    # choice keeps only rotations whose last dart exceeds their second: its
    # slots m0..m1-1 never use up the darts above the one slot m0 placed
    m0 = sum(len(o) == 2 for o in out_darts)
    m1 = m0 + len(out_darts[order[m0]]) - 2 if m0 < nv else m0
    nodes = 0
    while True:
        goal = girth * (nd // 2 - nv + 2 - 2 * genus)
        # chain endpoints: other[x] is the far end of the chain ending or
        # starting at x; length is kept at chain starts
        other = list(range(nd))
        length = [1] * nd
        score = nd  # every dart is an open chain of length 1 < girth
        # mark[d] is -1 if linking d closed a face, else the chain start
        # whose chain d's link extended; each dart is linked once per branch
        mark = [0] * nd
        placed = [0] * ns  # the dart placed at each slot
        pick = [-1] * ns  # its index in free[k], -1 while the slot is empty
        k = 0
        while k >= 0:
            rest = free[k]
            i = pick[k]
            if i >= 0:  # undo the dart placed at slot k, links in reverse
                e = placed[k]
                h = home[k]
                if h >= 0 and mark[e ^ 1] >= 0:
                    s = mark[e ^ 1]
                    t = other[s]
                    other[s], other[t] = e ^ 1, h
                    c = length[s]
                    length[s] = a = c - length[h]
                    score += cap[a] + cap[c - a] - cap[c]
                d = src[k]
                s = mark[d]
                if s >= 0:
                    t = other[s]
                    other[s], other[t] = d, e
                    c = length[s]
                    length[s] = a = c - length[e]
                    score += cap[a] + cap[c - a] - cap[c]
                rest.insert(i, e)
            i += 1
            stop = len(rest)
            if m0 <= k < m1 and (k == m0 or rest[-2] < placed[m0]):
                stop -= 1
            if i == stop:
                pick[k] = -1
                k -= 1
                continue
            pick[k] = i
            placed[k] = e = rest.pop(i)
            d = src[k]
            s = other[d]
            if s == e:
                mark[d] = -1
            else:
                t = other[e]
                other[s], other[t] = t, s
                a = length[s]
                b = length[e]
                length[s] = c = a + b
                score += cap[c] - cap[a] - cap[b]
                mark[d] = s
            h = home[k]
            if h < 0:
                src[k + 1] = e ^ 1
            elif other[e ^ 1] == h:
                mark[e ^ 1] = -1
            else:
                s = other[e ^ 1]
                t = other[h]
                other[s], other[t] = t, s
                a = length[s]
                b = length[h]
                length[s] = c = a + b
                score += cap[c] - cap[a] - cap[b]
                mark[e ^ 1] = s
            nodes += 1
            if score >= goal:
                if k == ns - 1:
                    rotation = [[o[0]] for o in out_darts]
                    for v, e in zip(owner, placed):
                        rotation[v].append(e)
                    return genus, (nd // 2 - nv + 2 - score // girth) // 2, rotation, nodes
                k += 1
            if nodes >= budget:
                goal = 0  # every branch passes: dive to the nearest leaf
        genus += 1
