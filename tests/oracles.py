"""Frozen high-precision reference values and independent recomputations.

The constants were produced with mpmath at 50 significant digits from the
defining series and integrals, independent of the package's own numerics.
The recompute_* helpers rebuild a value from scratch so the freeze itself
can be spot-checked in the suite.
"""

from __future__ import annotations

# component fraction u(c) = (1/c) sum_{r>=1} r^(r-2)/r! (c e^-c)^r
U_SERIES = {
    0.5: 0.75,
    1.0: 0.5,
    2.0: 0.161902559472978714911800490494,
    4.0: 0.0190411495986010775121845732959,
    6.0: 0.00249746451922211982047833248842,
    40.0: 4.2483542552915893563e-18,
}

# derivative of the component fraction; exactly -1/2 on (0, 1]
DU_SERIES = {
    0.5: -0.5,
    0.8: -0.5,
    1.5: -0.330165293887215318698478546702,
    3.0: -0.057748881635520512406065920239,
    6.0: -0.00251329597506557202,
}

# genus per edge mu(lambda) = (u(2 lambda) + lambda - 1) / (2 lambda)
MU_VALUES = {
    0.75: 0.02443584184248578,
    1.0: 0.080951279736489357,
    3.0: 0.333749577419870353303413055415,
    20.0: 0.475,
}

# limiting cycle count lambda(i); closed form Shi(2i)
CYCLE_LIMIT = {
    0.25: 0.5069967498196671958337,
    0.5: 1.057250875375728514572,
    1.0: 2.501567433354975641473,
    1.5: 4.97344047585980679771,
    2.0: 9.817326911233034464562,
    3.0: 42.99506111244568373112,
}


def recompute_u(c: float, dps: int = 30) -> float:
    """Sum the defining series for u(c) with mpmath."""
    import mpmath as mp

    with mp.workdps(dps):
        if c == 0:
            return 1.0
        cc = mp.mpf(c)
        w = cc * mp.exp(-cc)
        total = mp.nsum(
            lambda r: mp.power(r, r - 2) / mp.factorial(r) * mp.power(w, r),
            [1, mp.inf],
        )
        return float(total / cc)


def recompute_du(c: float, dps: int = 30) -> float:
    """Differentiate the u series term by term with mpmath."""
    import mpmath as mp

    with mp.workdps(dps):
        cc = mp.mpf(c)

        def term(r):
            base = mp.power(r, r - 2) / mp.factorial(r) * mp.exp(-r * cc)
            return base * ((r - 1) * mp.power(cc, r - 2) - r * mp.power(cc, r - 1))

        return float(mp.nsum(term, [1, mp.inf]))


def recompute_mu(lam: float, dps: int = 30) -> float:
    import mpmath as mp

    with mp.workdps(dps):
        ll = mp.mpf(lam)
        c = 2 * ll
        w = c * mp.exp(-c)
        u = mp.nsum(
            lambda r: mp.power(r, r - 2) / mp.factorial(r) * mp.power(w, r),
            [1, mp.inf],
        ) / c
        return float((u + ll - 1) / c)


def recompute_cycle_limit(i: float, dps: int = 30) -> float:
    """Closed form of the double integral: lambda(i) = Shi(2i)."""
    import mpmath as mp

    with mp.workdps(dps):
        return float(mp.shi(2 * mp.mpf(i)))
