"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Each check must accept the program's real output and reject a corrupted
copy of it: a genus off by one, a witness rotation with two neighbours
swapped at one vertex, a lower bound above the upper bound, and a wrong
triangle count.  It also runs the checks that are too slow for every
benchmark run, at n = 100,000: the short-cycle count against
networkx.simple_cycles, the census count against a census computed here
with networkx, and the corpus labels against networkx's planarity test and
girth.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from collections import Counter
from pathlib import Path

import networkx as nx

import checks
from run import import_program

HERE = Path(__file__).resolve().parent
results: list[bool] = []


def expect(what: str, failures: list[str], reject: bool) -> None:
    ok = bool(failures) == reject
    results.append(ok)
    verdict = "rejects" if failures else "accepts"
    print(f"{'ok  ' if ok else 'FAIL'} {what}: check {verdict}" + (f" ({failures[0]})" if failures else ""))


def corpus_labels(genuslab) -> None:
    """Kinds, labels and witnesses of corpus.json, from networkx."""
    bad = []
    for b in json.loads((HERE / "corpus.json").read_text()):
        g = nx.Graph(b["edges"])
        planar = nx.check_planarity(g)[0]
        girth, n, m = nx.girth(g), b["n"], len(b["edges"])
        euler = max(0, -(-((m - n + 2) * girth - 2 * m) // (2 * girth)))
        kind = "planar" if planar else ("attained" if euler == 1 else "exhaustive")
        witness = checks.face_walk_genus(n, b["edges"], dict(enumerate(b["witness"])))
        if not nx.is_biconnected(g) or kind != b["kind"] or b["genus"] != (0 if planar else 1) or witness != b["genus"]:
            bad.append(f"{b['name']}: label {b['kind']}/{b['genus']}, recomputed {kind}, witness genus {witness}")
    expect("corpus kinds, labels and witnesses", bad, reject=False)


def exact_checks(genuslab) -> None:
    corpus = {b["name"]: b for b in json.loads((HERE / "corpus.json").read_text())}
    for name in ("K2,2,2", "K4,4"):
        b = corpus[name]
        planar = nx.check_planarity(nx.Graph(b["edges"]))[0]
        res = genuslab.exact_genus(genuslab.Graph(b["n"], b["edges"]))

        def verdict(r):
            return checks.check_exact(name, b["n"], b["edges"], planar, b["genus"], r)

        expect(f"exact {name} real result", verdict(res), reject=False)
        expect(f"exact {name} genus + 1", verdict(dataclasses.replace(res, genus=res.genus + 1)), reject=True)
        if res.genus > 0:
            expect(f"exact {name} genus - 1", verdict(dataclasses.replace(res, genus=res.genus - 1)), reject=True)
    # K2,2,2 is 3-connected and planar, so its planar rotation is unique up to
    # mirroring, and swapping two neighbours at one vertex leaves the plane
    b = corpus["K2,2,2"]
    res = genuslab.exact_genus(genuslab.Graph(b["n"], b["edges"]))
    rot = dict(res.rotation)
    order = list(rot[0])
    order[0], order[1] = order[1], order[0]
    rot[0] = tuple(order)
    swapped = dataclasses.replace(res, rotation=rot)
    expect("exact K2,2,2 witness with two neighbours swapped at vertex 0",
           checks.check_exact("K2,2,2", b["n"], b["edges"], True, 0, swapped), reject=True)


def census_with_networkx(g: nx.Graph, n: int, s: int, a: float) -> int:
    """Cycles of length <= a*n/s passing the census thresholds, classified by
    a breadth-first search of each attached component of G - C."""
    x = 0.05 * math.log(s**3 / n**2)
    max_len = math.floor(a * n / s)
    count = 0
    for cyc in nx.simple_cycles(nx.k_core(g, 2), length_bound=max_len):
        on = set(cyc)
        attach = Counter(w for v in cyc for w in g[v] if w not in on)
        leaf = good = bad = 0
        done: set[int] = set()
        for w in attach:
            if w in done:
                continue
            comp, queue = {w}, [w]
            for u in queue:
                for y in g[u]:
                    if y not in on and y not in comp:
                        comp.add(y)
                        queue.append(y)
            done |= comp
            inner = sum(1 for u in comp for y in g[u] if y in comp) // 2
            if inner == len(comp) - 1 and sum(attach[u] for u in comp) == 1:
                leaf += len(comp)
            else:
                good += sum(1 for u in comp if attach[u] == 1)
                bad += sum(1 for u in comp if attach[u] > 1)
        if bad == 0 and 1 <= good <= x * n / s and leaf <= x * n * n / (s * s):
            count += 1
    return count


def supercritical_checks(genuslab) -> None:
    n, s, seed = 100_000, 5623, 5
    ell = n // s
    r = genuslab.supercritical_report(n, s, seed)
    edges = genuslab.gnm(n, n // 2 + s, seed).edge_array
    expect(f"supercritical n={n} real report", checks.check_supercritical(r, n, s, ell), reject=False)
    expect(f"supercritical n={n} core against networkx.k_core",
           checks.check_core_with_networkx(r, n, edges), reject=False)
    corrupt = dataclasses.replace(r, genus_lower=r.genus_upper + 1)
    expect("supercritical genus_lower above genus_upper", checks.check_supercritical(corrupt, n, s, ell), reject=True)
    corrupt = dataclasses.replace(r, core_edges=r.core_edges + 1)
    expect("supercritical core_edges + 1", checks.check_core_with_networkx(corrupt, n, edges), reject=True)

    g = nx.Graph(edges.tolist())
    giant = g.subgraph(checks.giant_vertices(n, edges).tolist())
    short = sum(1 for _ in nx.simple_cycles(nx.k_core(giant, 2), length_bound=ell))
    bad = [] if short == r.short_cycle_count else [f"{r.short_cycle_count} cycles, networkx finds {short}"]
    expect(f"supercritical short_cycle_count={short} against networkx.simple_cycles (ell={ell})", bad, reject=False)
    a = 0.5 * math.log(s**3 / n**2)
    census = census_with_networkx(g, n, s, a)
    bad = [] if census == r.census_cycle_count else [f"{r.census_cycle_count} census cycles, networkx gives {census}"]
    expect(f"supercritical census_cycle_count={census} against a networkx census", bad, reject=False)


def fragile_checks(genuslab) -> None:
    from workloads import Fragile

    w = Fragile(1)
    r = w.operations(0)[0]()
    trial = [(0, [r], None)]
    expect("fragile real report", w.check(trial), reject=False)
    l = -(-3 * w.Delta * w.n // w.k)
    d = genuslab.select_cores(w.base, genuslab.decompose_into_pieces(w.base, l, w.Delta))
    owner = checks.path_core_owner(w.n, d.cores, l * w.Delta)
    added = genuslab.add_uniform_edges(w.base, w.k, w.seeds[0])[1]
    q = checks.quotient_stats(owner, len(d.cores), added)
    for delta in (-4, 4):
        wrong = dict(q, triangles=q["triangles"] + delta)
        expect(f"fragile triangle count {delta:+d}", checks.check_fragile(r, w.n, w.Delta, w.k, wrong), reject=True)
    expect("fragile gamma_edges + 1",
           checks.check_fragile(dataclasses.replace(r, gamma_edges=r.gamma_edges + 1), w.n, w.Delta, w.k, q),
           reject=True)
    summary = {"graphs.enumerate_cycles": {"count": q["triangles"] + 1}}
    expect("fragile traced triangle count + 1", w.check([(0, [r], summary)]), reject=True)
    quotient = nx.Graph(genuslab.build_quotient(d, added).edge_list())
    triangles = sum(nx.triangles(quotient).values()) // 3
    bad = [] if triangles == q["triangles"] else [f"trace(A^3)/6 = {q['triangles']}, networkx finds {triangles}"]
    expect("fragile trace(A^3)/6 against networkx triangles", bad, reject=False)


def main() -> int:
    genuslab = import_program()
    corpus_labels(genuslab)
    exact_checks(genuslab)
    supercritical_checks(genuslab)
    fragile_checks(genuslab)
    print(f"{sum(results)} of {len(results)} expectations met")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
