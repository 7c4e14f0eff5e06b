"""Acceptance checks of the paper's headline claims, each defined once.

Every check is a pure function of results its caller has already computed
and returns rows {"name", "passed", "detail"}.  `genuslab suite NAME` and
tests/test_acceptance.py run the same checks on trials drawn from their own
seeds; the callers own the trials and any wall-clock gate, this module owns
every threshold.  The named fixtures live here too, beside ORACLE_EXPECTED,
the table of their known genus and face counts.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .asymptotics import component_fraction, component_fraction_derivative, genus_per_edge
from .census import SupercriticalReport, predicted_core_excess
from .embeddings import GenusResult, genus_lower_bound
from .fragile import FragileReport
from .graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
)

# edge densities lambda (m = lambda*n) of the component-count check
KAPPA_LAMBDAS = (0.25, 0.5, 1.0, 2.0)


def named_fixtures() -> dict[str, Graph]:
    """The classical small graphs behind `--fixture` and the oracle suite."""
    petersen = (
        [(i, (i + 1) % 5) for i in range(5)]  # outer five-cycle
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]  # inner pentagram
        + [(i, 5 + i) for i in range(5)]  # spokes
    )
    return {
        "k4": complete_graph(4),
        "k5": complete_graph(5),
        "k5_minus_edge": Graph(5, [e for e in complete_graph(5).edge_list() if e != (0, 1)]),
        "k6": complete_graph(6),
        "k33": complete_bipartite_graph(3, 3),
        "c5": cycle_graph(5),
        # the five-cycle plus the chord 0-2: planar with three faces
        "c5_chord": Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
        "q3": hypercube_graph(3),
        # two degree-3 vertices joined by three internally disjoint
        # two-edge paths
        "theta": Graph(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]),
        "petersen": Graph(10, petersen),
        # the square 0-1-2-3 with the pendant edge 3-4
        "pendant_square": Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]),
    }


# named fixture -> (genus, face count of a minimum-genus embedding)
ORACLE_EXPECTED = {
    "k5": (1, 5),
    "c5": (0, 2),
    "c5_chord": (0, 3),
    "k5_minus_edge": (0, 6),
    "k33": (1, 3),
    "k6": (1, 9),
    "q3": (0, 6),
}


def _row(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def subcritical_identity_checks() -> list[dict]:
    """u(c) = 1 - c/2 on the grid c = 0, 0.01, ..., 1."""
    worst = max(abs(component_fraction(j / 100) - (1 - j / 200)) for j in range(101))
    return [_row("subcritical_series_identity", worst < 1e-9,
                 f"max |u(c)-(1-c/2)| = {worst:.3e}")]


def genus_per_edge_checks() -> list[dict]:
    """mu vanishes at 1/2, increases on [1/2, 20] towards 1/2, and u' agrees
    with a central difference of u."""
    mu_half = genus_per_edge(0.5)
    values = [genus_per_edge(0.5 + 0.1 * j) for j in range(196)]
    min_step = min(b - a for a, b in zip(values, values[1:]))
    h = 1e-3
    worst_d = max(
        abs(component_fraction_derivative(c)
            - (component_fraction(c + h) - component_fraction(c - h)) / (2 * h))
        for c in (0.8, 1.5, 3.0)
    )
    return [
        _row("genus_per_edge_zero_at_half", abs(mu_half) < 1e-9,
             f"mu(0.5) = {mu_half:.3e}"),
        _row("genus_per_edge_increasing", min_step > -1e-12,
             f"min successive difference = {min_step:.3e}"),
        _row("genus_per_edge_at_20", 0.45 < values[-1] < 0.5,
             f"mu(20) = {values[-1]:.12f}"),
        _row("derivative_matches_central_difference", worst_d < 1e-6,
             f"max |analytic - central| = {worst_d:.3e}"),
    ]


def kappa_checks(deviations: Mapping[float, Sequence[float]]) -> list[dict]:
    """Per edge density lambda, every trial's |kappa/n - u(2*lambda)|."""
    return [
        _row(f"kappa_concentration_lambda_{lam}", max(devs) < 0.01,
             f"max |kappa/n - u(2*lambda)| over {len(devs)} trials = {max(devs):.5f}")
        for lam, devs in deviations.items()
    ]


def oracle_checks(results: Mapping[str, GenusResult]) -> list[dict]:
    """exact_genus results on every ORACLE_EXPECTED fixture, by name: genus
    and face count as expected, and genus_lower_bound at most the genus."""
    fixtures = named_fixtures()
    rows = []
    for name, (genus, faces) in ORACLE_EXPECTED.items():
        res = results[name]
        lower = genus_lower_bound(fixtures[name])
        rows.append(_row(
            f"oracle_{name}",
            (res.genus, res.face_count) == (genus, faces) and lower <= res.genus,
            f"genus {res.genus} (want {genus}), f {res.face_count} (want {faces}), "
            f"lower bound {lower}",
        ))
    return rows


def core_excess_checks(reports: Sequence[SupercriticalReport]) -> list[dict]:
    """Mean 2-core excess within 25% of (16/3)s^3/n^2."""
    predicted = predicted_core_excess(reports[0].n, reports[0].s)
    mean = sum(r.core_excess for r in reports) / len(reports)
    return [_row("core_excess_matches_prediction",
                 abs(mean - predicted) < 0.25 * predicted,
                 f"mean excess {mean:.1f} vs predicted {predicted:.1f} "
                 f"over {len(reports)} trials")]


def genus_upper_checks(reports: Sequence[SupercriticalReport]) -> list[dict]:
    """Mean genus upper bound within 25% of 8s^3/3n^2 plus a sixth of the
    mean core excess."""
    predicted = reports[0].predicted
    mean_upper = sum(r.genus_upper for r in reports) / len(reports)
    mean_excess = sum(r.core_excess for r in reports) / len(reports)
    band = 0.25 * predicted + mean_excess / 6
    return [_row("core_genus_upper_in_band", abs(mean_upper - predicted) <= band,
                 f"mean upper {mean_upper:.1f} vs predicted {predicted:.1f} "
                 f"(band {band:.1f})")]


def fragile_checks(reports: Sequence[FragileReport], n: int, k: int, Delta: int) -> list[dict]:
    """fragile_experiment trials on an n-vertex base of maximum degree Delta
    plus k random edges."""
    trials = len(reports)
    l = -(-3 * Delta * n // k)
    lo_t = (n - l * Delta) / (l * Delta**2)
    hi_t = n / (l * Delta)
    enough_edges = sum(r.gamma_edges >= r.t for r in reports)
    positive = sum(r.genus_lower_gamma > 0 for r in reports)
    mean_lower = sum(r.genus_lower_gamma for r in reports) / trials
    mean_t = sum(r.t for r in reports) / trials
    return [
        _row("piece_scale_l_matches", all(r.l == l for r in reports),
             f"l values {sorted({r.l for r in reports})} (want {l})"),
        _row("piece_count_in_interval", all(lo_t <= r.t <= hi_t for r in reports),
             f"t values in [{lo_t:.1f}, {hi_t:.1f}]"),
        _row("quotient_has_enough_edges", enough_edges >= trials - 1,
             f"gamma_edges >= t in {enough_edges}/{trials} trials"),
        _row("quotient_genus_positive", positive >= trials - 1,
             f"positive lower bound in {positive}/{trials} trials"),
        _row("quotient_genus_mean", mean_lower >= 0.02 * mean_t,
             f"mean lower bound {mean_lower:.1f} vs 0.02*t = {0.02 * mean_t:.1f}"),
        _row("upper_bound_at_most_k", all(r.upper_bound <= k for r in reports),
             f"max upper bound {max(r.upper_bound for r in reports)}"),
    ]
