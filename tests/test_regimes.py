from __future__ import annotations

import itertools
import math

import pytest

from genuslab import (
    ContiguityVerdict,
    contiguity_verdict,
    genus_per_edge,
    predict_genus,
)


def test_regime_names_are_distinct() -> None:
    # the cutoff points reach all seven regimes
    assert len({predict_genus(n, m).regime for n, m, _ in CUTOFF_POINTS}) == 7


def test_prediction_examples() -> None:
    p = predict_genus(10**6, 531_623)
    assert p.regime == "slightly_supercritical"
    assert p.predicted_genus[0] == pytest.approx(84.329, rel=1e-3)
    assert p.predicted_genus[0] == p.predicted_genus[1]

    p = predict_genus(10**4, 30_000)
    assert p.regime == "linear"
    assert p.parameters["lambda"] == pytest.approx(3.0)
    assert p.predicted_genus[0] == pytest.approx(genus_per_edge(3.0) * 30_000)

    p = predict_genus(10**3, 249_750)
    assert p.regime == "dense"
    assert p.predicted_genus == (pytest.approx(249_750 / 6), pytest.approx(249_750 / 6))

    assert predict_genus(10**4, 4_000).regime == "planar_subcritical"
    assert predict_genus(10**4, 4_000).predicted_genus == (0.0, 0.0)

    p = predict_genus(10**6, 500_200)
    assert p.regime == "critical_window"
    assert p.predicted_genus == (0.0, pytest.approx(8.0 / 3.0))

    assert predict_genus(10**5, 1_400_000).regime == "power_law_boundary"


def test_linear_range_ends_at_n_ln_n() -> None:
    # the power-law regimes start right past n ln n, and m = n**1.05 is
    # still below n ln n here
    n = 10**6
    assert predict_genus(n, math.floor(n * math.log(n)) + 1).regime == "power_law_boundary"
    assert predict_genus(n, math.ceil(n**1.05)).regime == "linear"


# (n, m, regime) on either side of each cutoff, so a changed cutoff moves
# at least one point into a neighbouring regime
CUTOFF_POINTS = [
    # s = -n**(2/3) and s = +n**(2/3) = 10**4
    (10**6, 500_000 - 10_001, "planar_subcritical"),
    (10**6, 500_000 - 9_999, "critical_window"),
    (10**6, 500_000 + 9_999, "critical_window"),
    (10**6, 500_000 + 10_001, "slightly_supercritical"),
    # s = 0.1 n
    (10**6, 600_000, "slightly_supercritical"),
    (10**6, 600_001, "linear"),
    # m = n ln n: 13,815,510.6 at n = 10**6 and 9.2103404e41 at n = 10**40
    (10**6, 13_815_510, "linear"),
    (10**6, 13_815_511, "power_law_boundary"),
    (10**40, 921_034 * 10**36, "linear"),
    (10**40, 921_035 * 10**36, "power_law_boundary"),
    # m = n**1.05 = 10**42 is inside the j = 20 boundary band
    (10**40, 10**42 - 10**40, "power_law_boundary"),
    (10**40, 10**42 + 10**40, "power_law_boundary"),
    # m = 0.25 * n(n-1)/2 = 124,875 at n = 1000
    (1000, 124_874, "power_law_gap"),
    (1000, 124_875, "dense"),
    # m / n**1.5 at 1/2 and 2 (j = 2)
    (10**6, 490_000_000, "power_law_gap"),
    (10**6, 510_000_000, "power_law_boundary"),
    (10**6, 1_990_000_000, "power_law_boundary"),
    (10**6, 2_010_000_000, "power_law_gap"),
]


REGIMES = frozenset(regime for _, _, regime in CUTOFF_POINTS)


@pytest.mark.parametrize("n, m, regime", CUTOFF_POINTS)
def test_regime_on_either_side_of_each_cutoff(n: int, m: int, regime: str) -> None:
    assert predict_genus(n, m).regime == regime


def test_critical_window_top_respects_the_cycle_rank_bound() -> None:
    # no graph with n vertices and m edges has cycle rank above m - k + 1,
    # k being the fewest vertices that hold m edges, so its genus is at
    # most floor((m - k + 1)/2); that holds in every regime
    regimes = set()
    for n in range(1, 21):
        for m in range(n * (n - 1) // 2 + 1):
            pred = predict_genus(n, m)
            regimes.add(pred.regime)
            k = next(k for k in itertools.count(1) if k * (k - 1) // 2 >= m)
            lo, hi = pred.predicted_genus
            assert 0.0 <= lo <= hi <= (m - k + 1) // 2, (n, m)
    assert {"critical_window", "linear", "dense"} <= regimes
    assert predict_genus(5, 7).predicted_genus == (1.0, 1.0)  # rank at most 3
    assert predict_genus(12, 3).predicted_genus == (0.0, 0.0)
    assert predict_genus(12, 6).predicted_genus == (0.0, 1.0)  # at most K4, rank 3
    assert predict_genus(16, 8).predicted_genus == (0.0, 2.0)  # 8 edges on 5 vertices, rank 4
    assert predict_genus(20, 10).predicted_genus == (0.0, pytest.approx(8.0 / 3.0))


def test_prediction_validates_inputs() -> None:
    with pytest.raises(ValueError):
        predict_genus(0, 0)
    with pytest.raises(ValueError):
        predict_genus(10, 46)
    with pytest.raises(ValueError):
        predict_genus(10, -1)


def test_classification_is_total_over_a_sweep() -> None:
    for n in (10, 100, 1000, 10**4, 10**5, 10**6):
        pairs = n * (n - 1) // 2
        for m in {0, 1, n // 4, n // 2, n // 2 + int(n ** 0.7),
                  n, 2 * n, 5 * n, 12 * n, pairs // 4, pairs // 2, pairs}:
            if m > pairs:
                continue
            p = predict_genus(n, int(m))
            assert p.regime in REGIMES
            lo, hi = p.predicted_genus
            assert 0.0 <= lo <= hi
            if p.regime not in ("planar_subcritical", "critical_window"):
                assert hi <= m / 2 + 1e-9


def test_contiguity_in_the_linear_regime() -> None:
    n, m = 10**4, 30_000
    center = genus_per_edge(3.0) * m
    assert contiguity_verdict(n, m, int(center * 1.02), 0.01) is ContiguityVerdict.CONTIGUOUS
    assert contiguity_verdict(n, m, int(center * 0.98), 0.01) is ContiguityVerdict.NOT_CONTIGUOUS
    assert contiguity_verdict(n, m, int(center), 0.01) is ContiguityVerdict.UNDETERMINED


def test_contiguity_holds_from_m_over_2() -> None:
    # at lambda = 10, (1 + eps) mu(lambda) m passes m/2, yet no graph with
    # m edges has genus above m/2, so g = m/2 already makes the constraint
    # vacuous
    n, m, eps = 10**5, 10**6, 0.2
    assert predict_genus(n, m).regime == "linear"
    assert (1.0 + eps) * genus_per_edge(10.0) * m > m / 2
    assert contiguity_verdict(n, m, m // 2, eps) is ContiguityVerdict.CONTIGUOUS
    assert contiguity_verdict(n, m, m // 2 - 1, eps) is ContiguityVerdict.UNDETERMINED
    assert contiguity_verdict(n, m, 0.79 * genus_per_edge(10.0) * m, eps) is ContiguityVerdict.NOT_CONTIGUOUS


def test_contiguity_of_the_all_graphs_model() -> None:
    n = 10**6
    center = n * n / 24.0
    assert contiguity_verdict(n, None, center * 1.02, 0.01) is ContiguityVerdict.CONTIGUOUS
    assert contiguity_verdict(n, None, center * 0.98, 0.01) is ContiguityVerdict.NOT_CONTIGUOUS
    assert contiguity_verdict(n, None, center, 0.01) is ContiguityVerdict.UNDETERMINED


def test_contiguity_undetermined_below_the_window() -> None:
    assert contiguity_verdict(10**4, 4_000, 0, 0.05) is ContiguityVerdict.UNDETERMINED
    assert contiguity_verdict(10**6, 500_200, 5, 0.05) is ContiguityVerdict.UNDETERMINED


def test_contiguity_validates_inputs() -> None:
    with pytest.raises(ValueError):
        contiguity_verdict(100, 200, 10, 0.0)
    with pytest.raises(ValueError):
        contiguity_verdict(100, 200, -1, 0.1)
