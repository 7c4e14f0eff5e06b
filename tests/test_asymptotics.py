from __future__ import annotations

import pytest

from genuslab import (
    component_fraction,
    component_fraction_derivative,
    cycle_count_limit,
    genus_per_edge,
)
import oracles


def test_component_fraction_matches_frozen_oracle() -> None:
    for c, want in oracles.U_SERIES.items():
        assert component_fraction(c) == pytest.approx(want, abs=1e-9)


def test_component_fraction_linear_below_the_threshold() -> None:
    for j in range(101):
        c = j / 100.0
        assert abs(component_fraction(c) - (1 - c / 2)) < 1e-9


def test_component_fraction_edge_cases() -> None:
    assert component_fraction(0.0) == 1.0
    assert component_fraction(1.0) == pytest.approx(0.5, abs=1e-9)
    # c e^(-c) underflows
    assert component_fraction(800.0) == 0.0
    with pytest.raises(ValueError):
        component_fraction(-0.1)


def test_component_fraction_monotone_and_convex() -> None:
    vals = [component_fraction(0.05 * j) for j in range(121)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12
    for a, b, c in zip(vals, vals[1:], vals[2:]):
        assert a - 2 * b + c >= -1e-9


def test_derivative_matches_frozen_oracle() -> None:
    for c, want in oracles.DU_SERIES.items():
        assert component_fraction_derivative(c) == pytest.approx(want, abs=1e-9)


def test_derivative_matches_central_differences() -> None:
    h = 1e-3
    for c in (0.8, 1.5, 3.0):
        numeric = (component_fraction(c + h) - component_fraction(c - h)) / (2 * h)
        assert abs(component_fraction_derivative(c) - numeric) < 1e-6


def test_closed_form_matches_lambert_w() -> None:
    # near the double root T = 1 just above the threshold, and far out on
    # the exponential tail; u' is differentiated numerically by mpmath
    import mpmath as mp

    def u_lambert(x):
        t = -mp.lambertw(-x * mp.exp(-x)).real
        return (t - t * t / 2) / x

    for c in (1 + 1e-9, 1 + 1e-6, 1.001, 1.01, 1.1, 25.0, 60.0):
        with mp.workdps(30):
            want_u = float(u_lambert(mp.mpf(c)))
            want_du = float(mp.diff(u_lambert, mp.mpf(c)))
        assert component_fraction(c) == pytest.approx(want_u, abs=1e-12)
        assert component_fraction_derivative(c) == pytest.approx(want_du, abs=1e-12)


def test_genus_per_edge_matches_frozen_oracle() -> None:
    for lam, want in oracles.MU_VALUES.items():
        assert genus_per_edge(lam) == pytest.approx(want, abs=1e-9)


def test_genus_per_edge_shape() -> None:
    assert abs(genus_per_edge(0.5)) < 1e-9
    grid = [0.5 + 0.1 * j for j in range(196)]
    vals = [genus_per_edge(x) for x in grid]
    for a, b in zip(vals, vals[1:]):
        assert b > a - 1e-12
    assert all(v > 0 for v in vals[1:])
    assert all(v < 0.5 for v in vals)
    with pytest.raises(ValueError):
        genus_per_edge(0.0)
    with pytest.raises(ValueError):
        genus_per_edge(-1.0)


def test_cycle_count_limit_matches_frozen_oracle() -> None:
    for i, want in oracles.CYCLE_LIMIT.items():
        assert cycle_count_limit(i) == pytest.approx(want, abs=1e-6)


def test_cycle_count_limit_matches_mpmath_shi_and_double_integral() -> None:
    import mpmath as mp

    fp = mp.fp

    def inner(x):
        return fp.quad(
            lambda y: y**-1.5 * fp.exp(-x * x / (2 * y) - 2 * y), [0, x / 2, fp.inf]
        )

    for i in (0.01, 0.25, 1.0, 3.0):
        shi = float(mp.shi(2 * mp.mpf(i)))
        double = fp.quad(lambda x: fp.expm1(4 * x) * inner(x), [0, i])
        double /= fp.sqrt(8 * fp.pi)
        for want in (shi, double):
            assert cycle_count_limit(i) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_cycle_count_limit_shape() -> None:
    assert cycle_count_limit(0.0) == 0.0
    vals = [cycle_count_limit(i) for i in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)]
    assert all(v >= 0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        cycle_count_limit(-1.0)


def test_frozen_constants_recompute_from_scratch() -> None:
    assert oracles.recompute_u(2.0) == pytest.approx(
        oracles.U_SERIES[2.0], abs=1e-12)
    assert oracles.recompute_du(1.5) == pytest.approx(
        oracles.DU_SERIES[1.5], abs=1e-12)
    assert oracles.recompute_mu(3.0) == pytest.approx(
        oracles.MU_VALUES[3.0], abs=1e-12)
    assert oracles.recompute_cycle_limit(1.0) == pytest.approx(
        oracles.CYCLE_LIMIT[1.0], abs=1e-12)
