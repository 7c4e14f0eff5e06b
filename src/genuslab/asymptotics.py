"""Limit functions for the genus of sparse random graphs.

component_fraction is the limiting number of tree components per vertex of a
random graph with average degree c, defined by the series

    u(c) = (1/c) * sum_{r >= 1} r^(r-2) / r! * (c e^(-c))^r,

with u(0) = 1.  It is evaluated in closed form (Erdos and Renyi 1960): with
the tree function T(w) = sum r^(r-1)/r! w^r = -W_0(-w) (Corless et al. 1996,
"On the Lambert W function") taken at w = c e^(-c),

    u(c) = (T - T^2/2) / c,

where T = c for c <= 1, so u(c) = 1 - c/2 on [0, 1], and for c > 1, T is the
dual root in (0, 1) of T e^(-T) = c e^(-c), read from
scipy.special.lambertw.
component_fraction_derivative is its derivative, genus_per_edge the limiting
genus per edge at edge density lambda, and cycle_count_limit the limiting
expected number of cycles in the slightly supercritical regime, defined by a
double integral that equals Shi(2i) in closed form.
"""

from __future__ import annotations

import math


def _tree_function(c: float) -> float:
    """T(c e^(-c)) = -W_0(-c e^(-c)) for c > 1, the dual root in (0, 1) of
    T e^(-T) = c e^(-c); 0 once c e^(-c) underflows."""
    from scipy import special

    return float(-special.lambertw(-c * math.exp(-c)).real)


def component_fraction(c: float) -> float:
    """Limiting tree components per vertex u(c) at average degree c >= 0.

    Evaluated from the closed form (T - T^2/2) / c of the defining series;
    equals 1 - c/2 on [0, 1] and decays like e^(-c) for large c.
    """
    if c < 0:
        raise ValueError("average degree must be nonnegative")
    if c <= 1.0:
        return 1.0 - c / 2.0
    t = _tree_function(c)
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
    t = _tree_function(c)
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
