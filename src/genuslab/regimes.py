"""Regime classification of the (n, m) plane with genus predictions, and
the contiguity verdicts that follow from them.

The limit theory splits the edge-count axis into ranges with distinct genus
behaviour: genus zero below the critical window, a cubic-in-s law just past
it, a genus-per-edge law mu(lambda) at linear densities, roughly m/2 for
barely superlinear m, then a descent through j/(2(j+2)) plateaus down to
m/6 at quadratic densities.  The conditions separating those ranges are
asymptotic, so any finite-n classifier must pick explicit cutoffs; they are
the module constants below, and the classifier is a total partition: every
valid (n, m) lands in exactly one regime.

A uniform graph model constrained to genus at most g is contiguous with the
unconstrained model (shares all its with-high-probability properties) once
g clears the genus the unconstrained model actually attains, and is not
contiguous when g undercuts it; contiguity_verdict renders those thresholds
per regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .asymptotics import genus_per_edge

REGIME_NAMES = (
    "planar_subcritical",
    "critical_window",
    "slightly_supercritical",
    "linear",
    "near_linear",
    "power_law_gap",
    "power_law_boundary",
    "dense",
)


# Finite-size cutoffs rendering the asymptotic regime conditions.
# The critical window is |m - n/2| <= n**WINDOW_EXPONENT.
WINDOW_EXPONENT = 2.0 / 3.0
# The slightly supercritical range ends at s = SUPERCRITICAL_FRACTION * n;
# the linear range then runs up to m = n ln n.
SUPERCRITICAL_FRACTION = 0.1
# The near-linear range ends at m = n**NEAR_LINEAR_EXPONENT.  It starts where
# the linear range ends, so it is n ln n < m <= n**1.05, which is empty unless
# ln n < n**0.05; for n >= 3 that needs ln n > 90 (n > 10**39), so the branch
# is asymptotic only.
NEAR_LINEAR_EXPONENT = 1.05
# The near-linear prediction interval is [(1 - NEAR_LINEAR_SLACK) * m/2, m/2],
# rendering its "1 - o(1)" lower constant.
NEAR_LINEAR_SLACK = 0.1
# Dense means m >= DENSE_FRACTION * n*(n-1)/2.
DENSE_FRACTION = 0.25
# With j = round(1/(log_n(m) - 1)) and j >= 2, a power-law boundary is
# declared when m / n**(1 + 1/j) lies within [1/BOUNDARY_BAND, BOUNDARY_BAND];
# otherwise the point falls in the gap regime with j = floor(1/(log_n(m) - 1)).
BOUNDARY_BAND = 2.0


@dataclass(frozen=True)
class RegimePrediction:
    """Classified regime of an (n, m) pair with its predicted genus.

    predicted_genus is a closed interval (lo, hi); regimes with a pinpoint
    prediction have lo == hi.  parameters carries the quantities the
    prediction was computed from (s, lambda, j, alpha, or the window
    position c = s / n**(2/3), as applicable).
    """

    regime: str
    predicted_genus: tuple[float, float]
    parameters: dict[str, float]


class ContiguityVerdict(str, Enum):
    CONTIGUOUS = "contiguous"
    NOT_CONTIGUOUS = "not_contiguous"
    UNDETERMINED = "undetermined"


def predict_genus(n: int, m: int) -> RegimePrediction:
    """Classify (n, m) into its regime and predict the genus of a uniform
    graph with n vertices and m edges.

    The classification is a total partition of the valid inputs
    (0 <= m <= n*(n-1)/2): the branches below are mutually exclusive and
    exhaustive by construction.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    pairs = n * (n - 1) // 2
    if m < 0 or m > pairs:
        raise ValueError(f"m must be between 0 and {pairs}")

    s = m - n / 2.0
    window = n**WINDOW_EXPONENT
    if s < -window:
        return RegimePrediction(
            regime="planar_subcritical",
            predicted_genus=(0.0, 0.0),
            parameters={"s": s, "c": s / window},
        )
    if s <= window:
        # genus stays bounded in probability across the window; the interval
        # top is the supercritical formula evaluated at the window edge
        return RegimePrediction(
            regime="critical_window",
            predicted_genus=(0.0, 8.0 / 3.0),
            parameters={"s": s, "c": s / window},
        )
    if s <= SUPERCRITICAL_FRACTION * n:
        value = 8.0 * s**3 / (3.0 * n**2)
        return RegimePrediction(
            regime="slightly_supercritical",
            predicted_genus=(value, value),
            parameters={"s": s},
        )
    if m <= n * math.log(n):
        lam = m / n
        value = genus_per_edge(lam) * m
        return RegimePrediction(
            regime="linear",
            predicted_genus=(value, value),
            parameters={"lambda": lam},
        )
    alpha = math.log(m) / math.log(n)
    if m <= n**NEAR_LINEAR_EXPONENT:
        return RegimePrediction(
            regime="near_linear",
            predicted_genus=((1.0 - NEAR_LINEAR_SLACK) * m / 2.0, m / 2.0),
            parameters={"alpha": alpha},
        )
    if m >= DENSE_FRACTION * pairs:
        return RegimePrediction(
            regime="dense",
            predicted_genus=(m / 6.0, m / 6.0),
            parameters={"density": m / pairs},
        )
    j_near = round(1.0 / (alpha - 1.0))
    if j_near >= 2:
        ratio = m / n ** (1.0 + 1.0 / j_near)
        if 1.0 / BOUNDARY_BAND <= ratio <= BOUNDARY_BAND:
            j = float(j_near)
            return RegimePrediction(
                regime="power_law_boundary",
                predicted_genus=(
                    (j - 1.0) * m / (2.0 * (j + 1.0)),
                    j * m / (2.0 * (j + 2.0)),
                ),
                parameters={"j": j, "ratio": ratio},
            )
    j = float(max(1, math.floor(1.0 / (alpha - 1.0))))
    value = j * m / (2.0 * (j + 2.0))
    return RegimePrediction(
        regime="power_law_gap",
        predicted_genus=(value, value),
        parameters={"j": j, "alpha": alpha},
    )


def contiguity_verdict(n: int, m: int | None, g: float, eps: float) -> ContiguityVerdict:
    """Decide whether the genus-at-most-g uniform model is contiguous with
    the unconstrained one.

    With m = None the models are the all-graphs pair, whose genus
    concentrates at n^2/24: contiguous when g >= (1+eps) n^2/24, not
    contiguous when g <= (1-eps) n^2/24.  With m given, the thresholds come
    from the regime prediction: above (1+eps) times its upper value the
    constraint is whp inactive, below (1-eps) times its lower value the
    constraint whp excludes the typical graph.  In the near-linear regime
    the upper threshold is m/2 exactly (no graph with m edges exceeds genus
    m/2, so the constraint is vacuous there).  The subcritical and
    critical-window regimes are outside the treated tables and always
    return undetermined.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if g < 0:
        raise ValueError("g must be nonnegative")
    if m is None:
        center = n * n / 24.0
        if g >= (1.0 + eps) * center:
            return ContiguityVerdict.CONTIGUOUS
        if g <= (1.0 - eps) * center:
            return ContiguityVerdict.NOT_CONTIGUOUS
        return ContiguityVerdict.UNDETERMINED
    pred = predict_genus(n, m)
    if pred.regime in ("planar_subcritical", "critical_window"):
        return ContiguityVerdict.UNDETERMINED
    lo, hi = pred.predicted_genus
    if pred.regime == "near_linear":
        upper = hi  # m/2, sharp: genus can never exceed m/2
        lower = (1.0 - eps) * hi
    else:
        upper = (1.0 + eps) * hi
        lower = (1.0 - eps) * lo
    if g >= upper:
        return ContiguityVerdict.CONTIGUOUS
    if g <= lower:
        return ContiguityVerdict.NOT_CONTIGUOUS
    return ContiguityVerdict.UNDETERMINED
