"""Minimum-genus search over the rotation systems of one biconnected block.

Darts are numbered so that edge j contributes darts 2j and 2j+1 and reversal
is xor with 1.  The face successor of a dart d is the dart that follows
d ^ 1 in the rotation at the head of d, so fixing the cyclic order at a
vertex fixes the successor of every dart entering it.

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

# There is one pure-Python kernel; the flag records the backend in reports.
HAVE_NUMBA = False


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
