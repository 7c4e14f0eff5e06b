from __future__ import annotations

import math

import pytest

from genuslab import (
    ContiguityVerdict,
    REGIME_NAMES,
    contiguity_verdict,
    genus_per_edge,
    predict_genus,
)


def test_regime_names_are_distinct() -> None:
    assert len(REGIME_NAMES) == 8
    assert len(set(REGIME_NAMES)) == 8


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


# m lies between n ln n ~ 9.2e41 and n**1.05 = 1e42, so it is near-linear
NEAR_LINEAR_N, NEAR_LINEAR_M = 10**40, 10**42 - 10**40


def test_near_linear_regime_at_ten_to_the_forty() -> None:
    p = predict_genus(NEAR_LINEAR_N, NEAR_LINEAR_M)
    assert p.regime == "near_linear"
    lo, hi = p.predicted_genus
    assert hi == pytest.approx(NEAR_LINEAR_M / 2)
    assert lo == pytest.approx(0.9 * NEAR_LINEAR_M / 2)


def test_near_linear_is_unreachable_under_default_thresholds() -> None:
    # n ln n < m <= n**1.05 is empty here: m just above n ln n is already
    # past n**1.05, and m at n**1.05 is still below n ln n
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
    (10**40, 921_035 * 10**36, "near_linear"),
    # m = n**1.05 = 10**42
    (10**40, 10**42 - 10**40, "near_linear"),
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


@pytest.mark.parametrize("n, m, regime", CUTOFF_POINTS)
def test_regime_on_either_side_of_each_cutoff(n: int, m: int, regime: str) -> None:
    assert predict_genus(n, m).regime == regime


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
            assert p.regime in REGIME_NAMES
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


def test_contiguity_near_linear_upper_threshold_is_sharp() -> None:
    n, m = NEAR_LINEAR_N, NEAR_LINEAR_M
    assert contiguity_verdict(n, m, m // 2, 0.1) is ContiguityVerdict.CONTIGUOUS
    assert contiguity_verdict(n, m, m // 2 - m // 400, 0.1) is ContiguityVerdict.UNDETERMINED
    assert contiguity_verdict(n, m, 4 * m // 10, 0.1) is ContiguityVerdict.NOT_CONTIGUOUS


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
