"""Regenerate perfbench/corpus.json, the blocks of the `exact` workload.

    PYTHONPATH=src python3 perfbench/make_corpus.py

Each block is biconnected and has genus 0 or 1.  Its label is proved here
apart from the search under test: networkx's planarity test gives genus 0
or genus >= 1, and a stored witness rotation, whose genus our own face walk
recomputes, gives genus <= label.  Planar witnesses come from networkx's
planar embedding; toroidal ones from one run of genuslab.exact_genus,
which is only a way of finding them, since the face walk checks them.

The kind sorts the blocks by how the search ends: `planar` stops at the
first planar rotation, `attained` is non-planar with an Euler girth bound
of 1 and stops when it finds a toroidal rotation, and `exhaustive` is
non-planar with an Euler girth bound of 0, so the whole odometer runs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import networkx as nx

import checks

HERE = Path(__file__).resolve().parent


def _blocks():
    k6e = nx.complete_graph(6)
    k6e.remove_edge(0, 1)
    petersen_chord = nx.petersen_graph()
    petersen_chord.add_edge(0, 2)
    return {
        "K2,2,2": nx.complete_multipartite_graph(2, 2, 2),
        "cubic14-seed0": nx.random_regular_graph(3, 14, seed=0),
        "K6-e": k6e,
        "K4,4": nx.complete_bipartite_graph(4, 4),
        "Pappus": nx.pappus_graph(),
        "K3,5": nx.complete_bipartite_graph(3, 5),
        "Petersen+0-2": petersen_chord,
        "Moebius-Kantor": nx.moebius_kantor_graph(),
        "cubic14-seed1": nx.random_regular_graph(3, 14, seed=1),
    }


def _euler_girth_bound(g: nx.Graph) -> int:
    girth = nx.girth(g)
    n, m = g.number_of_nodes(), g.number_of_edges()
    return max(0, -(-((m - n + 2) * girth - 2 * m) // (2 * girth)))


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from genuslab import Graph, exact_genus

    corpus = []
    for name, g in _blocks().items():
        g = nx.convert_node_labels_to_integers(g)
        if not nx.is_biconnected(g):
            raise SystemExit(f"{name} is not biconnected")
        n = g.number_of_nodes()
        edges = sorted((min(u, v), max(u, v)) for u, v in g.edges())
        planar, embedding = nx.check_planarity(g)
        if planar:
            witness = {v: list(embedding.neighbors_cw_order(v)) for v in range(n)}
            kind = "planar"
        else:
            rotation = exact_genus(Graph(n, edges)).rotation
            witness = {v: [int(w) for w in rotation[v]] for v in range(n)}
            kind = "attained" if _euler_girth_bound(g) == 1 else "exhaustive"
        label = checks.face_walk_genus(n, edges, witness)
        if label != (0 if planar else 1):
            raise SystemExit(f"{name}: witness has genus {label}")
        corpus.append({
            "name": name, "kind": kind, "genus": label, "n": n,
            "edges": edges, "witness": [witness[v] for v in range(n)],
        })
        print(f"{name:16s} n={n:2d} m={len(edges):2d} genus={label} {kind}")
    (HERE / "corpus.json").write_text(json.dumps(corpus, indent=None) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
