from __future__ import annotations

import sys
from pathlib import Path

import networkx as nx
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from genuslab import Graph, exact_genus
from genuslab.acceptance import named_fixtures


@pytest.fixture(scope="session")
def corpus6() -> list[Graph]:
    """All 143 connected graphs on 1 to 6 vertices, one per isomorphism
    class, from networkx's atlas of every graph on at most 7 vertices."""
    return [
        Graph(a.number_of_nodes(), list(a.edges()))
        for a in nx.graph_atlas_g()
        if 1 <= a.number_of_nodes() <= 6 and nx.is_connected(a)
    ]


@pytest.fixture(scope="session")
def fixtures() -> dict[str, Graph]:
    return named_fixtures()


@pytest.fixture(scope="session")
def genus_of():
    """Memoized exact genus, shared across the whole session."""
    cache: dict[tuple, int] = {}

    def compute(G: Graph) -> int:
        key = (G.n, G.edge_array.tobytes())
        if key not in cache:
            cache[key] = exact_genus(G).genus
        return cache[key]

    return compute
