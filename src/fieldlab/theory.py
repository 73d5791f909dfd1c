"""Constant calculus for the moment, maximal and coupling machinery.

The quantities here are pure functions of the moment order p, the excess
moment margin delta (the partial-sum moment actually controlled is order
2 + delta), the dimension d and the polynomial decay exponent lambda of the
dependence coefficients.  psi(p) is the critical value of lambda/d: the
machinery needs lambda > d * psi(p).  The two thresholds lambda1/lambda2
come from different steps of the argument; choose_delta picks the margin
that makes the binding one as small as possible.  choose_scheme solves the
integer design constraints for the block-growth exponents (alpha, beta)
used by the coupling construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "MomentParams",
    "SchemeParams",
    "t0",
    "psi",
    "lambda1",
    "lambda2",
    "choose_delta",
    "tau0",
    "moricz_a",
    "block_boundary",
    "choose_scheme",
]

_INT_CAP = 2**62


@dataclass(frozen=True)
class MomentParams:
    """Moment hypotheses: order p, decay c0 * r^-lambda."""

    d: int
    p: float
    lam: float
    c0: float = 1.5

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be a positive integer")
        if not self.p > 2:
            raise ValueError("moment order p must exceed 2")
        if not self.lam > 0:
            raise ValueError("decay exponent lambda must be positive")
        if not self.c0 > 1:
            raise ValueError("decay constant c0 must exceed 1")


@dataclass(frozen=True)
class SchemeParams:
    """Block-growth design: boundaries n_l = sum_{i<=l} (i^alpha + i^beta)."""

    alpha: int
    beta: int
    tau: float = 1.0
    gamma0: float | None = None

    def __post_init__(self):
        if not (isinstance(self.alpha, int) and isinstance(self.beta, int)):
            raise ValueError("alpha and beta must be integers")
        if not self.alpha > self.beta > 1:
            raise ValueError("need integer alpha > beta > 1")
        if not self.tau > 0:
            raise ValueError("tau must be positive")

    @property
    def rho(self) -> float:
        return self.tau / 8.0


@lru_cache(maxsize=1)
def t0() -> float:
    """Largest real root of t^3 + 2t^2 - 7t - 4; psi changes form at t0^2."""
    return float(brentq(lambda t: t**3 + 2 * t**2 - 7 * t - 4, 2.0, 3.0, xtol=1e-14))


def psi(x: float) -> float:
    """Critical decay-to-dimension ratio for moment order x (x > 2).

    Continuous, strictly decreasing toward 1, and never above the simple
    bound (x-1)/(x-2).
    """
    x = float(x)
    if not x > 2:
        raise ValueError("psi is defined for x > 2 only")
    if x <= 4:
        return (x - 1) / (x - 2)
    if x <= t0() ** 2:
        s = math.sqrt(x)
        return (3 - s) * (s + 1) / 2
    return ((x - 1) * math.sqrt((x - 2) ** 2 - 3) - x * x + 6 * x - 11) / (3 * x - 12)


def _check_margin(d: int, delta: float, p: float) -> None:
    if d < 1:
        raise ValueError("dimension must be positive")
    if not p > 2:
        raise ValueError("moment order must exceed 2")
    if not 0 < delta < p - 2:
        raise ValueError("margin delta must satisfy 0 < delta < p - 2")


def lambda1(d: int, delta: float, p: float) -> float:
    """First lower threshold on the decay exponent given margin delta."""
    _check_margin(d, delta, p)
    return d * (2 + delta) * (2 * p - 4 - delta) / (4 * (p - 2 - delta))


def lambda2(d: int, delta: float, p: float) -> float:
    """Second lower threshold on the decay exponent given margin delta."""
    _check_margin(d, delta, p)
    return d * ((2 + delta) / (2 * (p - 2 - delta)) + 1 - delta / 2)


class DecayTooSlowError(ValueError):
    """lambda <= d * psi(p): no admissible moment margin exists."""


def choose_delta(params: MomentParams) -> float:
    """Largest useful moment margin delta for the given (d, p, lambda).

    Above the breakpoint p > t0^2 the closed form equalizes the two
    thresholds; on 4 < p <= t0^2 it minimizes the binding one; for p <= 4
    no closed form exists and the feasibility boundary is located by
    bisection, then shrunk 1% for strictness.  Always returns
    0 < delta <= 1 with max(lambda1, lambda2) < lambda.
    """
    d, p, lam = params.d, params.p, params.lam
    if not lam > d * psi(p):
        raise DecayTooSlowError(
            f"decay exponent {lam} is not above the critical d*psi(p) = {d * psi(p):.6f}"
        )
    if p > t0() ** 2:
        delta = (2.0 / 3.0) * (p - 2 - math.sqrt((p - 2) ** 2 - 3))
    elif p > 4:
        delta = p - math.sqrt(p) - 2
    else:
        cap = min(1.0, (p - 2) * (1 - 1e-12))

        def feasible(dl: float) -> bool:
            return max(lambda1(d, dl, p), lambda2(d, dl, p)) < lam

        if feasible(cap):
            delta = cap
        else:
            lo, hi = 1e-12, cap  # feasible near 0 since thresholds -> d*psi(p) < lam
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if feasible(mid):
                    lo = mid
                else:
                    hi = mid
            delta = 0.99 * lo
    delta = min(delta, 1.0)
    if not 0 < delta < p - 2:
        raise RuntimeError("margin selection failed")
    if not max(lambda1(d, delta, p), lambda2(d, delta, p)) < lam:
        raise RuntimeError("selected margin does not satisfy the decay hypothesis")
    return float(delta)


def tau0(delta: float) -> float:
    """Sharp bisection contraction factor for the power 1 + delta/2.

    The worst ratio (floor(L/2)^s + ceil(L/2)^s) / L^s over edge lengths
    L = 2..1000, s = 1 + delta/2.  Lies in [2^(-delta/2), 1); the maximum
    sits at L = 3 for every margin in (0, 1].
    """
    if not 0 < delta <= 1:
        raise ValueError("margin must lie in (0, 1]")
    s = 1.0 + delta / 2.0
    L = np.arange(2, 1001, dtype=np.float64)
    ratios = (np.floor(L / 2) ** s + np.ceil(L / 2) ** s) / L**s
    return float(ratios.max())


def moricz_a(d: int, delta: float) -> float:
    """Constant relating the max-over-sub-blocks moment to the plain-sum moment.

    5^d * (1 - 2^(-delta/(4+2delta)))^(-d(2+delta)).
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    if not 0 < delta <= 1:
        raise ValueError("margin must lie in (0, 1]")
    return 5.0**d * (1.0 - 2.0 ** (-delta / (4 + 2 * delta))) ** (-d * (2 + delta))


def block_boundary(alpha: int, beta: int, l: int) -> int:
    """n_l = sum_{i=1..l} (i^alpha + i^beta), exactly, with n_0 = 0."""
    if not (isinstance(alpha, int) and isinstance(beta, int) and alpha > beta > 1):
        raise ValueError("need integer alpha > beta > 1")
    if l < 0:
        raise ValueError("index must be nonnegative")
    n = 0
    for i in range(1, l + 1):
        n += i**alpha + i**beta
        if n >= _INT_CAP:
            raise OverflowError("block boundary exceeds the supported index range")
    return n


def choose_scheme(
    d: int,
    tau: float,
    mu: float = 0.05,
    delta: float = 0.367,
    gamma1: float = 0.05,
    alpha_max: int = 10**6,
) -> SchemeParams:
    """Lexicographically smallest integer (alpha, beta) meeting the design constraints.

    With rho = tau/8, the constraints are: a gamma0 with
    gamma0 > (1 + 1/rho)(1 - 1/d) and beta > 2*gamma0/rho exists;
    (alpha/beta)(1 - mu*delta/(8(1+delta))) < 1; beta > 6/rho;
    alpha - beta > 6/rho; alpha > 8/(3 tau) - 1; alpha * gamma1 > 2.
    """
    if d < 1 or tau <= 0 or mu <= 0 or delta <= 0 or gamma1 <= 0:
        raise ValueError("all scheme inputs must be positive (d >= 1)")
    rho = tau / 8.0
    q = mu * delta / (8.0 * (1.0 + delta))
    gamma_min = (1.0 + 1.0 / rho) * (1.0 - 1.0 / d)
    alpha_floor = max(2.0, 8.0 / (3.0 * tau) - 1.0, 2.0 / gamma1)

    alphas = np.arange(3, alpha_max + 1, dtype=np.float64)
    lo = np.maximum(6.0 / rho, np.maximum(1.0, alphas * (1.0 - q) if q < 1 else 1.0))
    lo = np.maximum(lo, 2.0 * gamma_min / rho)  # beta > 2*gamma0/rho >= this
    hi = alphas - 6.0 / rho  # beta < alpha - 6/rho (< alpha since 6/rho > 0)
    beta_cand = np.floor(lo) + 1.0
    ok = (alphas > alpha_floor) & (beta_cand > lo) & (beta_cand < hi) & (beta_cand > 1)
    idx = np.flatnonzero(ok)
    if idx.size == 0:
        raise ValueError(
            "no feasible (alpha, beta) up to alpha_max; binding constraint is the "
            f"width requirement alpha*{q:.3g} > {6.0 / rho + 1:.3g} "
            "(growth-ratio cap vs. separation gap)"
        )
    alpha = int(alphas[idx[0]])
    beta = int(beta_cand[idx[0]])
    # widest admissible gamma0 interval is (gamma_min, rho*beta/2); take its midpoint
    gamma_hi = rho * beta / 2.0
    if not gamma_hi > gamma_min:
        raise ValueError("no admissible gamma0 for the selected (alpha, beta)")
    gamma0 = 0.5 * (max(gamma_min, 0.0) + gamma_hi)
    return SchemeParams(alpha=alpha, beta=beta, tau=tau, gamma0=gamma0)
