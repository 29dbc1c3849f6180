"""Independent references for the benchmark's output checks.

Nothing here calls vesprod: the closed forms are re-derived in
regression space (rental relation ln y = ln a + b ln y' + c ln k, wage
relation ln y = ln a + b ln(y - k y') + c ln k), the regime taxonomy is
restated from its case definitions, and the oracle-trust rule that picks
verification grids uses finite differences only.  The parameter
generators mirror the admissible draws of the tier-1 suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = 2.220446049250313e-16


# ---------------------------------------------------------------------------
# Admissible parameter draws (tier-1 generators)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reg:
    """Regression-space parameters (a, b, c, xi) of either relation."""

    a: float
    b: float
    c: float
    xi: float


def draw_cd(rng: np.random.Generator) -> tuple[float, float]:
    """(A, beta)."""
    return rng.uniform(0.5, 3.0), rng.uniform(0.1, 0.9)


def draw_ces(rng: np.random.Generator) -> tuple[float, float, float]:
    """(gamma, delta, sigma) with sigma away from 1."""
    sigma = rng.uniform(0.2, 2.5)
    if abs(sigma - 1.0) < 0.05:
        sigma += 0.1
    return rng.uniform(0.5, 3.0), rng.uniform(0.15, 0.85), sigma


def draw_ves_regression(rng: np.random.Generator, case: str) -> Reg:
    """Rental-relation parameters with xi < 0, away from case boundaries."""
    if case == "i":            # b < c < 1
        b = rng.uniform(0.25, 0.8)
        c = rng.uniform(b + 0.08, 0.95)
    elif case == "ii":         # c < b < 1
        b = rng.uniform(0.35, 0.9)
        c = rng.uniform(0.1, b - 0.08)
    else:                      # c > 1
        b = rng.uniform(0.3, 0.9)
        c = rng.uniform(1.08, 2.2)
    return Reg(math.exp(rng.uniform(-0.7, 0.7)), b, c, -rng.uniform(0.5, 4.0))


def draw_lh(rng: np.random.Generator) -> Reg:
    """Wage-relation parameters with xi < 0, away from b + c = 1."""
    while True:
        b = rng.uniform(0.25, 0.85)
        c = rng.uniform(0.05, 0.9)
        if abs(b + c - 1.0) >= 0.08:
            break
    return Reg(math.exp(rng.uniform(-0.7, 0.7)), b, c, -rng.uniform(0.5, 4.0))


def draw_sh(rng: np.random.Generator) -> tuple[float, float, float]:
    """(gamma, delta, rho) with delta*rho in [0.15, 0.85], rho away from 1."""
    while True:
        delta = rng.uniform(0.2, 0.8)
        rho = rng.uniform(0.2, 1.8)
        if 0.15 <= delta * rho <= 0.85 and abs(rho - 1.0) >= 0.05:
            break
    return rng.uniform(0.5, 3.0), delta, rho


def sh_upper_bound(delta: float, rho: float) -> float:
    return math.inf if rho >= 1.0 else (1.0 - delta * rho) / (1.0 - rho)


def lf_zeta(p: Reg) -> float:
    """Lu-Fletcher integration constant equivalent to the wage xi."""
    return p.xi * (p.b - 1.0) * p.a ** (-1.0 / p.b) / p.b


# ---------------------------------------------------------------------------
# Closed forms in regression space
# ---------------------------------------------------------------------------

def calibrated_xi(a: float, b: float, c: float, k0: float) -> float:
    """xi with R(k0) = 0 under the rental relation."""
    return (1.0 - c) / (c - b) * b / ((1.0 - b) * a ** (1.0 / b)) * k0 ** (1.0 - c / b)


def rental_y(p: Reg, k: float) -> float:
    a, b, c, xi = p.a, p.b, p.c, p.xi
    base = (1.0 - b) * a ** (-1.0 / b) / (c - b) * k ** ((b - c) / b) + xi * (b - 1.0) / b
    return base ** (b / (b - 1.0))


def rental_mrs_terms(p: Reg, k: float) -> tuple[float, float]:
    """The two terms of R(k) = (1-c)/(c-b) k - xi (1-b) a^(1/b) / b k^(c/b)."""
    a, b, c, xi = p.a, p.b, p.c, p.xi
    return (1.0 - c) / (c - b) * k, -xi * (1.0 - b) * a ** (1.0 / b) / b * k ** (c / b)


def rental_sigma(p: Reg, k: float) -> float:
    """sigma = R / (k R') from the regression-space R."""
    a, b, c, xi = p.a, p.b, p.c, p.xi
    t1, t2 = rental_mrs_terms(p, k)
    rp = (1.0 - c) / (c - b) - xi * (1.0 - b) * a ** (1.0 / b) / b * (c / b) * k ** (c / b - 1.0)
    return (t1 + t2) / (k * rp)


def rental_mrs_from_relation(p: Reg, y: float, k: float) -> float:
    """R = y/y' - k with y' solved from ln y = ln a + b ln y' + c ln k."""
    yp = (y / (p.a * k ** p.c)) ** (1.0 / p.b)
    return y / yp - k


def wage_y(p: Reg, k: float) -> float:
    a, b, c, xi = p.a, p.b, p.c, p.xi
    base = xi * (b - 1.0) / b * k ** ((b - 1.0) / b) + (b - 1.0) / (b + c - 1.0) * k ** (-c / b)
    return a ** (1.0 / (1.0 - b)) * base ** (b / (b - 1.0))


def wage_mrs_from_relation(p: Reg, y: float, k: float) -> float:
    """R = k w / (y - w) with the wage w solved from the wage relation."""
    w = (y / (p.a * k ** p.c)) ** (1.0 / p.b)
    return k * w / (y - w)


def cd_y(A: float, beta: float, k: float) -> float:
    return A * k ** beta


def ces_y(gamma: float, delta: float, sigma: float, k: float) -> float:
    r = (sigma - 1.0) / sigma
    return gamma * (delta * k ** r + 1.0 - delta) ** (1.0 / r)


def sh_y(gamma: float, delta: float, rho: float, k: float) -> float:
    dr = delta * rho
    return gamma * k ** (1.0 - dr) * (1.0 + (rho - 1.0) * k) ** dr


def sh_mrs(delta: float, rho: float, k: float) -> float:
    dr = delta * rho
    g = (1.0 - dr) / k + dr * (rho - 1.0) / (1.0 + (rho - 1.0) * k)
    return 1.0 / g - k


def sh_sigma(delta: float, rho: float, k: float) -> float:
    return 1.0 + (rho - 1.0) / (1.0 - delta * rho) * k


# ---------------------------------------------------------------------------
# Regime taxonomy
# ---------------------------------------------------------------------------

#: Regime reports are compared as (case label value, limit, monotonicity value).
#: An expected documented ParamError is given as ("ParamError", message fragment).

def rental_regime(b: float, c: float, xi: float) -> tuple:
    if xi >= 0.0:
        return ("ParamError", "assumes xi < 0")
    if b < c < 1.0:
        return ("VES_case_i", b / c, "decreasing")
    if c < b:
        return ("VES_case_ii", 1.0, "increasing")
    return ("VES_case_iii", b / c, "increasing")


def wage_regime(b: float, c: float) -> tuple:
    if b + c > 1.0:
        return ("LH_CES_limit", b / (1.0 - c), "decreasing")
    return ("LH_CD_limit", 1.0, "increasing")


# ---------------------------------------------------------------------------
# Oracle-trust rule for verification grids (finite differences only)
# ---------------------------------------------------------------------------

def _fd_parts(y, k: float, scale: float) -> tuple[float, float, float]:
    h1 = k * EPS ** (1.0 / 3.0) * scale
    h1 = (k + h1) - k
    h2 = k * EPS ** 0.25 * scale
    h2 = (k + h2) - k
    yv = y(k)
    yp = (y(k + h1) - y(k - h1)) / (2.0 * h1)
    ypp = (y(k + h2) - 2.0 * yv + y(k - h2)) / (h2 * h2)
    return yv, yp, ypp


def trusted_point(y, k: float, oracle_tol: float = 2.5e-7,
                  curvature_floor: float = 0.03) -> bool:
    """Whether the finite-difference oracles can judge a closed form at k.

    The three conditions of the tier-1 rule: R/(R+k) large enough that
    y/y' - k keeps its precision, dimensionless curvature k^2 |y''| / y
    above a floor, and a three-step-scale spread of the finite-difference
    sigma below ``oracle_tol``.  Every quantity is a finite difference of
    y, so the rule never reads the closed forms it later helps to judge.
    """
    sigmas = []
    try:
        for scale in (0.5, 1.0, 2.0):
            yv, yp, ypp = _fd_parts(y, k, scale)
            if scale == 1.0:
                R = yv / yp - k
                if not R / (R + k) >= 1.5e-4:
                    return False
                if not k * k * abs(ypp) / yv >= curvature_floor:
                    return False
            s = yp * (k * yp - yv) / (k * yv * ypp)
            if not math.isfinite(s):
                return False
            sigmas.append(s)
    except (ZeroDivisionError, ArithmeticError, ValueError):
        return False
    top = max(abs(s) for s in sigmas)
    return top > 0.0 and (max(sigmas) - min(sigmas)) / top <= oracle_tol


def trusted_grid(y, lo: float, hi: float, probe_lo: float, probe_hi: float,
                 n: int, inset: float = 0.1) -> list[float] | None:
    """n log-spaced trusted points on the middle of the validity interval
    [lo, hi] found inside the probe window, or None when there are fewer."""
    ratio = hi / lo
    if ratio < 1.5:
        return None
    lo_eff = lo * ratio ** inset if lo > probe_lo else lo * 1.01
    hi_eff = hi / ratio ** inset if hi < probe_hi else hi * 0.99
    if not lo_eff < hi_eff:
        return None
    r = hi_eff / lo_eff
    candidates = [lo_eff * r ** (i / (4 * n - 1)) for i in range(4 * n)]
    kept = [k for k in candidates if trusted_point(y, k)]
    if len(kept) < n:
        return None
    idx = sorted({round(i * (len(kept) - 1) / (n - 1)) for i in range(n)})
    return [kept[i] for i in idx]


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------

class Mismatch(Exception):
    """An operation's output disagrees with the benchmark's reference."""


def expect_close(what: str, got: float, want: float, rel: float, scale: float = 0.0) -> None:
    """Require |got - want| <= rel * max(|got|, |want|, scale)."""
    tol = rel * max(abs(got), abs(want), scale)
    if not (math.isfinite(got) and abs(got - want) <= tol):
        raise Mismatch(f"{what}: got {got!r}, reference {want!r} (rel tol {rel:g})")


def expect(what: str, condition: bool) -> None:
    if not condition:
        raise Mismatch(what)
