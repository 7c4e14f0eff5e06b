"""The three workloads: their inputs, one trial, and the checks of its outputs.

A trial is a list of operations run back to back in this process; the
runner times the whole trial.  Every workload repeats the same round of
trials, so a run of any length attempts whole rounds of the same inputs.
Inputs derive from the run's --seed only; genuslab receives them as plain
arguments.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent


def trial_seeds(seed: int, count: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(count)]


class Workload:
    """operations(i) gives trial i's calls into genuslab; check(trials)
    returns failure messages for (i, outputs, span summary or None) triples;
    round_size trials, i = 0..round_size-1, make one round."""

    round_size = 1

    def layer_extras(self, outputs) -> dict[str, float]:
        """Per-layer values read from one traced trial's outputs."""
        return {}


class Exact(Workload):
    """exact_genus over the blocks of corpus.json; one trial is one pass.

    The corpus is fixed, so the seed does not change the inputs.  Its
    labels are proved by make_corpus.py and re-proved by selftest.py.
    """

    name = "exact"

    def __init__(self, seed: int):
        import genuslab

        self.blocks = json.loads((HERE / "corpus.json").read_text())
        self.graphs = [genuslab.Graph(b["n"], b["edges"]) for b in self.blocks]

    def operations(self, i: int):
        from genuslab import embeddings

        return [lambda g=g: embeddings.exact_genus(g) for g in self.graphs]

    def check(self, trials) -> list[str]:
        import networkx as nx

        bad = []
        planar = [nx.check_planarity(nx.Graph(b["edges"]))[0] for b in self.blocks]
        for _, outputs, _ in trials:
            for b, is_planar, out in zip(self.blocks, planar, outputs):
                if out is not None:
                    bad += checks.check_exact(b["name"], b["n"], b["edges"], is_planar, b["genus"], out)
        return bad

    def layer_extras(self, outputs) -> dict[str, float]:
        nodes = {"planar": 0, "attained": 0, "exhaustive": 0}
        for b, out in zip(self.blocks, outputs):
            if out is not None:
                nodes[b["kind"]] += out.nodes_explored
        return {f"embeddings.search_nodes.{kind}": v for kind, v in nodes.items()}


class Supercritical(Workload):
    """supercritical_report(10**6, 31623, seed) with the default ell and a."""

    name = "supercritical"
    round_size = 12
    n, s = 10**6, 31623

    def __init__(self, seed: int):
        self.seeds = trial_seeds(seed, self.round_size)
        self.ell = self.n // self.s

    def operations(self, i: int):
        from genuslab import census

        return [lambda: census.supercritical_report(self.n, self.s, self.seeds[i])]

    def check(self, trials) -> list[str]:
        from genuslab import random_models

        bad = []
        for _, outputs, _ in trials:
            for r in outputs:
                if r is not None:
                    bad += checks.check_supercritical(r, self.n, self.s, self.ell)
        first = trials[0][1][0]
        if first is not None:
            m = self.n // 2 + self.s
            edges = random_models.gnm(self.n, m, self.seeds[0]).edge_array
            bad += checks.check_core_with_networkx(first, self.n, edges)
        return bad


class Fragile(Workload):
    """fragile_experiment(path_graph(10**5), 2, 5000, seed, ell=3)."""

    name = "fragile"
    round_size = 8
    n, Delta, k, ell = 10**5, 2, 5000, 3

    def __init__(self, seed: int):
        import genuslab

        self.seeds = trial_seeds(seed, self.round_size)
        self.base = genuslab.path_graph(self.n)

    def operations(self, i: int):
        from genuslab import fragile

        return [lambda: fragile.fragile_experiment(self.base, self.Delta, self.k, self.seeds[i], ell=self.ell)]

    def check(self, trials) -> list[str]:
        """Each report against its quotient, rebuilt from the drawn pairs and
        the cores of the program's public decomposition, which are first
        checked to be disjoint subpaths of the common size l*Delta."""
        from genuslab import fragile, random_models

        l = -(-3 * self.Delta * self.n // self.k)
        d = fragile.select_cores(self.base, fragile.decompose_into_pieces(self.base, l, self.Delta))
        try:
            owner = checks.path_core_owner(self.n, d.cores, l * self.Delta)
        except ValueError as exc:
            return [f"fragile: {exc}"]
        bad = []
        stats = {}
        for i, outputs, summary in trials:
            r = outputs[0]
            if r is None:
                continue
            if i not in stats:
                _, added = random_models.add_uniform_edges(self.base, self.k, self.seeds[i])
                stats[i] = checks.quotient_stats(owner, len(d.cores), added)
            q = stats[i]
            bad += checks.check_fragile(r, self.n, self.Delta, self.k, q)
            if summary is not None:
                counted = summary.get("graphs.enumerate_cycles", {}).get("count", 0)
                if counted != q["triangles"]:
                    bad.append(f"fragile: enumerate_cycles found {counted} triangles, trace(A^3)/6 = {q['triangles']}")
        return bad


WORKLOADS = {w.name: w for w in (Exact, Supercritical, Fragile)}
