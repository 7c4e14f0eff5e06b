"""Minimum-genus search over the rotation systems of one biconnected block.

Darts are numbered so that edge j contributes darts 2j and 2j+1 and reversal
is xor with 1.  The face successor of a dart d is the dart that follows
d ^ 1 in the rotation at the head of d, so fixing the cyclic order at a
vertex fixes the successor of every dart entering it.

The search is depth first and fixes one vertex per node, in an order that
keeps the next vertex's unfixed neighbours as few as possible.  The partial
face walks are kept as chains of darts: linking a dart to its successor
either joins two chains or closes one into a face, in constant time, and is
undone the same way on backtrack.  Every face walk of a 2-connected block
contains a cycle, so the faces still to close number at most
min(open chains, open darts // girth); a branch is pruned when the closed
faces plus that bound fall short of the target.  The target is the
face count of genus g for g = lower, lower + 1, ... (iterative deepening),
so the first complete rotation found has the minimum genus.
"""

from __future__ import annotations

from itertools import permutations

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


def _rotations(outs: list[int], mirror_free: bool):
    """Every cyclic order of outs, as (entering dart, successor) links.

    With mirror_free only one of each mirror pair is produced: reversing
    every rotation of a system preserves its faces, so dropping reflections
    at one vertex cannot lose the minimum.
    """
    first = outs[0]
    for rest in permutations(outs[1:]):
        if mirror_free and len(rest) > 1 and rest[0] > rest[-1]:
            continue
        seq = (first,) + rest
        yield [(seq[i - 1] ^ 1, seq[i]) for i in range(len(seq))]


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
    """
    nv = len(out_darts)
    nd = sum(len(o) for o in out_darts)
    order = _vertex_order(out_darts)
    open_chains = []  # after fixing order[: k + 1]
    left = nd
    for v in order:
        left -= len(out_darts[v])
        open_chains.append(left)

    # drop mirror images at the first vertex that has a choice
    first_choice = sum(len(o) == 2 for o in out_darts)
    nodes = 0
    while True:
        target = nd // 2 - nv + 2 - 2 * genus
        # chain endpoints: other[x] is the far end of the chain ending or
        # starting at x; length is kept at chain starts
        other = list(range(nd))
        length = [1] * nd
        closed = 0
        open_darts = nd
        choices = [None] * nv
        links = [None] * nv
        saved = [None] * nv
        k = 0
        choices[0] = _rotations(out_darts[order[0]], first_choice == 0)
        while k >= 0:
            if links[k] is not None:  # undo the previous order at depth k
                for (d, e), s in zip(reversed(links[k]), reversed(saved[k])):
                    if s < 0:
                        closed -= 1
                        open_darts += length[e]
                    else:
                        t = other[s]
                        other[s] = d
                        other[t] = e
                        length[s] -= length[e]
                links[k] = None
            cur = next(choices[k], None)
            if cur is None:
                k -= 1
                continue
            marks = []
            for d, e in cur:
                s = other[d]
                if s == e:
                    closed += 1
                    open_darts -= length[e]
                    marks.append(-1)
                else:
                    t = other[e]
                    other[s] = t
                    other[t] = s
                    length[s] += length[e]
                    marks.append(s)
            links[k] = cur
            saved[k] = marks
            nodes += 1
            if closed + min(open_chains[k], open_darts // girth) >= target:
                if k == nv - 1:
                    rotation = [[] for _ in range(nv)]
                    for v, cur in zip(order, links):
                        rotation[v] = [e for _, e in cur]
                    return genus, (nd // 2 - nv + 2 - closed) // 2, rotation, nodes
                k += 1
                choices[k] = _rotations(out_darts[order[k]], k == first_choice)
            if nodes >= budget:
                target = 0  # every branch passes: dive to the nearest leaf
        genus += 1
