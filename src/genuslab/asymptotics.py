"""Limit functions for the genus of sparse random graphs.

component_fraction is the limiting number of tree components per vertex of a
random graph with average degree c, defined by the series

    u(c) = (1/c) * sum_{r >= 1} r^(r-2) / r! * (c e^(-c))^r,

with u(0) = 1.  It is evaluated in closed form (Erdos and Renyi 1960): with
the tree function T(w) = sum r^(r-1)/r! w^r = -W_0(-w) (Corless et al. 1996,
"On the Lambert W function") taken at w = c e^(-c),

    u(c) = (T - T^2/2) / c,

where T = c for c <= 1, so u(c) = 1 - c/2 on [0, 1], and for c > 1, T is the
dual root in (0, 1) of T e^(-T) = c e^(-c), found to machine precision.
component_fraction_derivative is its derivative, genus_per_edge the limiting
genus per edge at edge density lambda, and cycle_count_limit the limiting
expected number of cycles in the slightly supercritical regime, defined by a
double integral that equals Shi(2i) in closed form and is checked,
independently, by stratified Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = np.finfo(float).eps


def _tree_root(c: float) -> float:
    """The root T in (0, 1) of log T - T = log c - c, for c > 1.

    f(T) = log T - T - (log c - c) is increasing and concave on (0, 1), so
    Newton steps from a point left of the root climb monotonically onto it;
    c e^(-c) and 2 - c both lie left of it.  A step that leaves the bracket
    falls back to bisection.  Returns 0 once c e^(-c) underflows.
    """
    target = math.log(c) - c
    lo = max(c * math.exp(-c), 2.0 - c)
    if lo == 0.0:
        return 0.0
    hi = 1.0
    t = lo
    for _ in range(200):
        f = math.log(t) - t - target
        if f < 0.0:
            lo = t
        elif f > 0.0:
            hi = t
        else:
            return t
        nxt = t - f * t / (1.0 - t)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - t) <= _EPS * t:
            return nxt
        t = nxt
    return t


def component_fraction(c: float) -> float:
    """Limiting tree components per vertex u(c) at average degree c >= 0.

    Evaluated from the closed form (T - T^2/2) / c of the defining series;
    equals 1 - c/2 on [0, 1] and decays like e^(-c) for large c.
    """
    if c < 0:
        raise ValueError("average degree must be nonnegative")
    if c <= 1.0:
        return 1.0 - c / 2.0
    t = _tree_root(c)
    return (t - t * t / 2.0) / c


def component_fraction_derivative(c: float) -> float:
    """Derivative of component_fraction at c > 0.

    Differentiating the series in c gives

        u'(c) = ((1 - c) / c^2) * T - (T - T^2/2) / c^2,

    with T the tree function at w = c e^(-c) as in component_fraction.
    Equals -1/2 on (0, 1].
    """
    if c <= 0:
        raise ValueError("average degree must be positive")
    if c <= 1.0:
        return -0.5
    t = _tree_root(c)
    return ((1.0 - c) * t - (t - t * t / 2.0)) / (c * c)


def genus_per_edge(lam: float) -> float:
    """Limiting genus per edge mu(lambda) of a random graph with m ~ lambda n.

    mu(lambda) = (u(2 lambda) + lambda - 1) / (2 lambda); it is exactly 0 for
    lambda <= 1/2, where u(2 lambda) = 1 - lambda, and increases to 1/2.
    """
    if lam <= 0:
        raise ValueError("edge density must be positive")
    if lam <= 0.5:
        return 0.0
    c = 2.0 * lam
    return (component_fraction(c) + lam - 1.0) / c


def cycle_count_limit(i: float) -> float:
    """Limiting cycle-count integral of the slightly supercritical regime.

    lambda(i) = (1/sqrt(8 pi)) * int_0^i int_0^inf (e^(4x) - 1) y^(-3/2)
                * exp(-x^2 / (2y) - 2y) dy dx.

    The inner integral is sqrt(2 pi) e^(-2x) / x, so the outer one is
    int_0^i sinh(2x)/x dx and lambda(i) = Shi(2i), the hyperbolic sine
    integral, evaluated by scipy.special.shichi.
    """
    if i < 0:
        raise ValueError("upper limit must be nonnegative")
    from scipy import special

    return float(special.shichi(2.0 * i)[0])


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate with a standard error from independent rounds."""

    value: float
    stderr: float
    samples: int


def mc_cycle_count_limit(i: float, samples: int = 1_000_000, seed=0) -> MCEstimate:
    """Stratified Monte Carlo check of cycle_count_limit.

    Substituting t = sqrt(y) and then w = x/t turns the integrand into the
    bounded function (1/t)(e^(4wt) - 1) exp(-w^2/2 - 2t^2) on the region
    w t <= i, which is integrated over a truncated box (truncation error is
    below 1e-8 of the result, far under any attainable stochastic error) by
    averaging one uniform point per grid cell, repeated over independent
    rounds that provide the standard error.
    """
    if i <= 0:
        raise ValueError("upper limit must be positive")
    if samples < 32:
        raise ValueError("too few samples")
    rng = np.random.default_rng(seed)
    w_max = math.sqrt(8.0 * i + 42.0)
    t_max = math.sqrt((4.0 * i + 21.0) / 2.0)
    grid = int(math.sqrt(samples / 8.0))
    grid = max(4, min(grid, 1024))
    rounds = max(2, int(round(samples / (grid * grid))))
    cell_w = w_max / grid
    cell_t = t_max / grid
    wi, ti = np.meshgrid(np.arange(grid), np.arange(grid), indexing="ij")
    wi = wi.ravel().astype(np.float64)
    ti = ti.ravel().astype(np.float64)
    area = w_max * t_max
    means = np.empty(rounds)
    for r in range(rounds):
        w = (wi + rng.random(wi.size)) * cell_w
        t = (ti + rng.random(ti.size)) * cell_t
        inside = w * t <= i
        g = np.zeros(wi.size)
        tw = t[inside]
        g[inside] = np.expm1(4.0 * w[inside] * tw) / tw * np.exp(
            -0.5 * w[inside] ** 2 - 2.0 * tw * tw
        )
        means[r] = g.mean() * area
    scale = 1.0 / math.sqrt(2.0 * math.pi)
    value = float(means.mean() * scale)
    stderr = float(means.std(ddof=1) / math.sqrt(rounds) * scale)
    return MCEstimate(value=value, stderr=stderr, samples=rounds * grid * grid)
