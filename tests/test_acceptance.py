"""End-to-end checks at the scales and tolerances the library is rated for.

Each test prints one `[acceptance] <label>: PASS or FAIL` line per check
with the measured quantities; run pytest with `-rA` or `-s` to see them.
The checks that `genuslab suite` also runs are defined once, with their
thresholds, in genuslab.acceptance; the tests here draw their own seeded
trials and keep the wall-clock gates around them. Tests
carrying the `extended` marker need roughly half an hour and are excluded
from the default run by the pyproject addopts.
"""

from __future__ import annotations

import time

import pytest

from genuslab import (
    classify_cycle_neighborhood,
    component_fraction,
    count_census_cycles,
    cycle_count_limit,
    enumerate_cycles,
    exact_genus,
    fragile_experiment,
    genus_lower_bound_density,
    genus_lower_bound_short_cycles,
    genus_per_edge,
    genus_upper_bound,
    gnm,
    grid_graph,
    mc_cycle_count_limit,
    path_graph,
    predicted_genus,
    supercritical_report,
    trace_faces,
    trial_rng,
    two_core,
)
from genuslab.acceptance import (
    KAPPA_LAMBDAS,
    ORACLE_EXPECTED,
    core_excess_checks,
    fragile_checks,
    genus_per_edge_checks,
    genus_upper_checks,
    kappa_checks,
    oracle_checks,
    subcritical_identity_checks,
)

from brute_force import brute_classify, brute_cycles


def _verdict(label: str, passed: bool, detail: str) -> None:
    state = "PASS" if passed else "FAIL"
    print(f"[acceptance] {label}: {state} ({detail})")


def _assert_passed(rows: list[dict]) -> None:
    for row in rows:
        _verdict(row["name"], row["passed"], row["detail"])
    assert all(row["passed"] for row in rows)


def test_component_fraction_matches_the_subcritical_identity() -> None:
    start = time.perf_counter()
    rows = subcritical_identity_checks()
    elapsed = time.perf_counter() - start
    _assert_passed(rows)
    assert elapsed < 1.0, f"{elapsed:.1f} s"


def test_genus_per_edge_shape_and_derivative() -> None:
    start = time.perf_counter()
    rows = genus_per_edge_checks()
    elapsed = time.perf_counter() - start
    _assert_passed(rows)
    assert elapsed < 5.0, f"{elapsed:.1f} s"


def test_component_count_concentrates_on_the_fraction_curve() -> None:
    n = 100_000
    start = time.perf_counter()
    deviations = {}
    for li, lam in enumerate(KAPPA_LAMBDAS):
        target = component_fraction(2 * lam)
        deviations[lam] = [
            abs(gnm(n, int(lam * n), seed=1_003_000 + 100 * li + t).component_count / n
                - target)
            for t in range(10)
        ]
    elapsed = time.perf_counter() - start
    _assert_passed(kappa_checks(deviations))
    assert elapsed < 30.0, f"{elapsed:.1f} s"


def test_exact_genus_oracle_fixtures(fixtures) -> None:
    results = {
        name: exact_genus(fixtures[name]) for name in ORACLE_EXPECTED if name != "k6"
    }
    start = time.perf_counter()
    results["k6"] = exact_genus(fixtures["k6"])
    k6_elapsed = time.perf_counter() - start
    _assert_passed(oracle_checks(results))
    assert k6_elapsed < 60.0, f"{k6_elapsed:.1f} s"


@pytest.fixture(scope="module")
def supercritical_runs():
    """Ten independent reports at n = 10^6, s = 31623, shared by three tests."""
    start = time.perf_counter()
    reports = [
        supercritical_report(1_000_000, 31623, seed=2_005_000 + t)
        for t in range(10)
    ]
    return reports, time.perf_counter() - start


def test_supercritical_core_excess(supercritical_runs) -> None:
    reports, elapsed = supercritical_runs
    _assert_passed(core_excess_checks(reports))
    assert elapsed < 300.0, f"{elapsed:.1f} s"


def test_supercritical_genus_upper_band(supercritical_runs) -> None:
    reports, _ = supercritical_runs
    _assert_passed(genus_upper_checks(reports))


@pytest.mark.xfail(
    strict=True,
    reason="the short-cycle lower bound stays at zero on cores this sparse",
)
def test_supercritical_genus_lower_floor(supercritical_runs) -> None:
    reports, _ = supercritical_runs
    predicted = predicted_genus(1_000_000, 31623)
    mean_lower = sum(r.genus_lower for r in reports) / len(reports)
    ok = mean_lower >= 0.3 * predicted
    _verdict(
        "supercritical genus lower bound",
        ok,
        f"mean {mean_lower:.1f} vs floor {0.3 * predicted:.1f}",
    )
    assert mean_lower >= 0.3 * predicted


def test_linear_regime_genus_sandwich() -> None:
    n, m = 2000, 6000
    mu3 = genus_per_edge(3.0)
    start = time.perf_counter()
    worst_upper_dev = 0.0
    min_lower_ratio = float("inf")
    for t in range(20):
        g = gnm(n, m, seed=3_007_000 + t)
        worst_upper_dev = max(
            worst_upper_dev, abs(genus_upper_bound(g) / m - mu3)
        )
        min_lower_ratio = min(
            min_lower_ratio, genus_lower_bound_short_cycles(g, 4) / m
        )
    elapsed = time.perf_counter() - start
    ok = worst_upper_dev < 0.02 and min_lower_ratio >= 0.3 * mu3 and elapsed < 60.0
    _verdict(
        "linear regime genus sandwich",
        ok,
        f"upper dev {worst_upper_dev:.5f} (< 0.02), lower ratio "
        f"{min_lower_ratio:.4f} (>= {0.3 * mu3:.4f}), {elapsed:.1f} s",
    )
    assert worst_upper_dev < 0.02
    assert min_lower_ratio >= 0.3 * mu3
    assert elapsed < 60.0


def test_perturbed_path_keeps_positive_genus() -> None:
    base = path_graph(100_000)
    start = time.perf_counter()
    reports = [
        fragile_experiment(base, 2, 5000, seed=4_011_000 + t, ell=3)
        for t in range(10)
    ]
    elapsed = time.perf_counter() - start
    _assert_passed(fragile_checks(reports, 100_000, 5000, 2))
    assert elapsed < 120.0, f"{elapsed:.1f} s"


@pytest.mark.extended
@pytest.mark.xfail(
    strict=False,
    reason="the admissible-cycle count sits below its limit at n = 10^6",
)
def test_census_cycle_mean_approaches_the_poisson_limit() -> None:
    n = 1_000_000
    s = int(n**0.75)
    target = cycle_count_limit(1.0)
    start = time.perf_counter()
    counts = []
    for t in range(200):
        g = gnm(n, n // 2 + s, seed=8_200_000 + t)
        counts.append(count_census_cycles(g, s, 1.0)[0])
    elapsed = time.perf_counter() - start
    mean = sum(counts) / len(counts)
    ok = 0.5 * target <= mean <= 1.5 * target and elapsed < 1800.0
    _verdict(
        "census cycle count vs Poisson limit",
        ok,
        f"mean {mean:.3f} vs limit {target:.3f} over 200 trials, "
        f"{elapsed:.0f} s",
    )
    assert elapsed < 1800.0
    assert 0.5 * target <= mean <= 1.5 * target


@pytest.mark.extended
def test_cycle_limit_closed_form_agrees_with_monte_carlo() -> None:
    est = mc_cycle_count_limit(1.0, samples=4_000_000, seed=123)
    diff = abs(est.value - cycle_count_limit(1.0))
    ok = diff < 1e-3
    _verdict(
        "cycle limit Shi(2i) vs Monte Carlo",
        ok,
        f"difference {diff:.2e} at 4e6 samples",
    )
    assert diff < 1e-3


def test_corpus_invariant_sweep(corpus6, fixtures, genus_of) -> None:
    start = time.perf_counter()
    rng = trial_rng(900, 0)
    failures: list[str] = []
    for idx, g in enumerate(corpus6):
        core = two_core(g).graph
        if two_core(core).graph != core:
            failures.append(f"core fixed point #{idx}")
        exact = genus_of(g)
        if (core.n and genus_of(core) != exact) or (not core.n and exact):
            failures.append(f"core genus #{idx}")
        if not (
            max(
                genus_lower_bound_density(g),
                genus_lower_bound_short_cycles(g, 4),
            )
            <= exact
            <= genus_upper_bound(g)
        ):
            failures.append(f"bound sandwich #{idx}")
        if g.n >= 3 and g.m > 3 * g.n - 6 + 6 * exact:
            failures.append(f"density law #{idx}")
        rotation = {
            v: tuple(int(u) for u in rng.permutation(list(g.neighbors(v))))
            for v in range(g.n)
        }
        report = trace_faces(g, rotation)
        handle = g.m - g.n - report.face_count + g.component_count + 1
        if (
            sum(len(w) for w in report.faces) != 2 * g.m
            or handle < 0
            or handle % 2
            or report.genus != handle // 2
        ):
            failures.append(f"euler relation #{idx}")
    eight = [fixtures[k] for k in ("q3", "theta", "k4", "k33")]
    eight.append(grid_graph(2, 4))
    for idx, g in enumerate(eight):
        if sorted(enumerate_cycles(g, g.n)) != sorted(brute_cycles(g, g.n)):
            failures.append(f"cycle brute force @{idx}")
        for cyc in enumerate_cycles(g, 6):
            cn = classify_cycle_neighborhood(g, cyc)
            got = (
                cn.leaf_size,
                cn.good,
                cn.bad,
                cn.tree_components,
                cn.neighbor_count,
            )
            if got != brute_classify(g, cyc):
                failures.append(f"classification @{idx}")
    elapsed = time.perf_counter() - start
    ok = not failures
    _verdict(
        "corpus invariant sweep",
        ok,
        f"{len(corpus6)} corpus graphs plus {len(eight)} brute-force "
        f"fixtures, failures {failures or 'none'}, {elapsed:.1f} s",
    )
    assert not failures
