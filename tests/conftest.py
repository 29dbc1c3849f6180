"""Shared fixtures and test-local numerical oracles.

The oracles here (finite differences, direct closed-form evaluation in
regression space) are deliberately independent re-implementations: tests
compare library output against these, never against the library itself.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import vesprod.oracles
from vesprod import (
    CESParams,
    CobbDouglasParams,
    LiuHildebrandParams,
    LogLinearParams,
    SatoHoffmanParams,
    VESParams,
    validity_range,
    ves_from_loglinear,
)

EPS = 2.220446049250313e-16


# ---------------------------------------------------------------------------
# Independent finite-difference oracles (the defining identities)
# ---------------------------------------------------------------------------

def fd_derivative(f, x: float) -> float:
    h = x * EPS ** (1.0 / 3.0)
    t = x + h
    h = t - x
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd_second(f, x: float) -> float:
    h = x * EPS ** 0.25
    t = x + h
    h = t - x
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def fd_mrs(y, k: float) -> float:
    """R = y/y' - k with a finite-difference y'."""
    return y(k) / fd_derivative(y, k) - k


def fd_sigma(y, k: float) -> float:
    """sigma = y'(k y' - y) / (k y y'') with finite-difference derivatives."""
    yp = fd_derivative(y, k)
    ypp = fd_second(y, k)
    yv = y(k)
    return yp * (k * yp - yv) / (k * yv * ypp)


def relerr(u: float, v: float) -> float:
    if u == v:
        return 0.0
    return abs(u - v) / max(abs(u), abs(v))


# ---------------------------------------------------------------------------
# Direct regression-space evaluation of the rental-rate closed form
# (independent of the structural-parameter code path)
# ---------------------------------------------------------------------------

def rental_closed_form(p: LogLinearParams, k: float) -> float:
    a, b, c, xi = p.a, p.b, p.c, p.xi
    base = (1.0 - b) * a ** (-1.0 / b) / (c - b) * k ** ((b - c) / b) \
        + xi * (b - 1.0) / b
    assert base > 0.0
    return base ** (b / (b - 1.0))


def rental_mrs(p: LogLinearParams, k: float) -> float:
    a, b, c, xi = p.a, p.b, p.c, p.xi
    return (1.0 - c) / (c - b) * k - xi * (1.0 - b) * a ** (1.0 / b) / b * k ** (c / b)


# ---------------------------------------------------------------------------
# Admissible random parameter draws
# ---------------------------------------------------------------------------

def draw_cd(rng: np.random.Generator) -> CobbDouglasParams:
    return CobbDouglasParams(A=rng.uniform(0.5, 3.0), beta=rng.uniform(0.1, 0.9))


def draw_ces(rng: np.random.Generator) -> CESParams:
    sigma = rng.uniform(0.2, 2.5)
    if abs(sigma - 1.0) < 0.05:
        sigma += 0.1
    return CESParams(gamma=rng.uniform(0.5, 3.0), delta=rng.uniform(0.15, 0.85),
                     sigma=sigma)


def draw_ves_regression(rng: np.random.Generator, case: str | None = None
                        ) -> LogLinearParams:
    """Rental-relation parameters with xi < 0, away from case boundaries."""
    if case is None:
        case = rng.choice(["i", "ii", "iii"])
    if case == "i":            # b < c < 1
        b = rng.uniform(0.25, 0.8)
        c = rng.uniform(b + 0.08, 0.95)
    elif case == "ii":         # c < b < 1
        b = rng.uniform(0.35, 0.9)
        c = rng.uniform(0.1, b - 0.08)
    else:                      # c > 1
        b = rng.uniform(0.3, 0.9)
        c = rng.uniform(1.08, 2.2)
    a = math.exp(rng.uniform(-0.7, 0.7))
    xi = -rng.uniform(0.5, 4.0)
    return LogLinearParams(a=a, b=b, c=c, xi=xi)


def draw_lh(rng: np.random.Generator) -> LiuHildebrandParams:
    """Wage-relation parameters with xi < 0, away from b + c = 1."""
    while True:
        b = rng.uniform(0.25, 0.85)
        c = rng.uniform(0.05, 0.9)
        if abs(b + c - 1.0) >= 0.08:
            break
    a = math.exp(rng.uniform(-0.7, 0.7))
    xi = -rng.uniform(0.5, 4.0)
    return LiuHildebrandParams(a=a, b=b, c=c, xi=xi)


def draw_sh(rng: np.random.Generator) -> SatoHoffmanParams:
    while True:
        delta = rng.uniform(0.2, 0.8)
        rho = rng.uniform(0.2, 1.8)
        dr = delta * rho
        if 0.15 <= dr <= 0.85 and abs(rho - 1.0) >= 0.05:
            break
    return SatoHoffmanParams(gamma=rng.uniform(0.5, 3.0), delta=delta, rho=rho)


def draw_ves_structural(rng: np.random.Generator) -> VESParams:
    """Structural parameters with a positive integrand denominator on k > 0."""
    lam = rng.uniform(-0.8, 1.5)
    mu = rng.uniform(0.2, 3.0)
    theta = rng.uniform(1.2, 3.0)
    psi = rng.uniform(0.5, 3.0)
    return VESParams(lam=lam, mu=mu, theta=theta, psi=psi)


def _fd_sigma_at_scale(spec, k: float, scale: float) -> float:
    """Eq-8 sigma via finite differences with step sizes scaled by `scale`."""
    from vesprod import eval_intensive
    y = lambda t: eval_intensive(spec, t)
    h1 = k * EPS ** (1.0 / 3.0) * scale
    t = k + h1
    h1 = t - k
    yp = (y(k + h1) - y(k - h1)) / (2.0 * h1)
    h2 = k * EPS ** 0.25 * scale
    t = k + h2
    h2 = t - k
    ypp = (y(k + h2) - 2.0 * y(k) + y(k - h2)) / (h2 * h2)
    yv = y(k)
    return yp * (k * yp - yv) / (k * yv * ypp)


def sigma_oracle_uncertainty(spec, k: float) -> float:
    """Step-variation estimate of the finite-difference sigma oracle's own
    relative error at k.  Points where this is large cannot be used to judge
    the closed form: the oracle, not the implementation, is the bottleneck.
    Three step scales guard against quantization coincidences where two
    scales agree bitwise on a wrong value."""
    values = []
    for scale in (0.5, 1.0, 2.0):
        try:
            s = _fd_sigma_at_scale(spec, k, scale)
        except ZeroDivisionError:
            return math.inf
        if not math.isfinite(s):
            return math.inf
        values.append(s)
    scale = max(abs(v) for v in values)
    if scale == 0.0:
        return math.inf
    return (max(values) - min(values)) / scale


def curvature_scale(spec, k: float) -> float:
    """Dimensionless curvature k^2 |y''| / y (equal to beta(1-beta)/sigma
    for degree-one functions).  Where it is tiny, the smooth component of
    y's evaluation error dominates the second difference with a bias that
    no step-size variation can detect."""
    from vesprod import eval_intensive, intensive_second_derivative
    return k * k * abs(intensive_second_derivative(spec, k)) / eval_intensive(spec, k)


def grid_inside_validity(spec, probe_lo: float, probe_hi: float, n: int = 16,
                         inset: float = 0.1,
                         oracle_tol: float = 2.5e-7,
                         curvature_floor: float = 0.03) -> list[float] | None:
    """Log-spaced grid on the middle part of the validity interval,
    restricted to points where the finite-difference oracles are
    trustworthy.

    Three independent trust conditions, all oracle-side (none weaken what
    is being verified):
      * R large enough relative to k that the y/y' - k cancellation keeps
        full precision;
      * the three-scale spread of the finite-difference sigma is below
        `oracle_tol` (catches truncation and random rounding);
      * dimensionless curvature above `curvature_floor` (catches the
        h-independent bias from the smooth part of y's evaluation error).
    Returns None when no usable grid exists; callers redraw parameters.
    """
    from vesprod import mrs_closed
    interval = validity_range(spec, probe_lo, probe_hi, samples=192)
    if interval.is_empty:
        return None
    lo, hi = interval.k_low, interval.k_high
    ratio = hi / lo
    if ratio < 1.5:
        return None
    lo_eff = lo * ratio ** inset if lo > probe_lo else lo * 1.01
    hi_eff = hi / ratio ** inset if hi < probe_hi else hi * 0.99
    if not lo_eff < hi_eff:
        return None
    r = hi_eff / lo_eff
    candidates = [lo_eff * r ** (i / (4 * n - 1)) for i in range(4 * n)]
    kept = []
    for k in candidates:
        R = mrs_closed(spec, k)
        if R / (R + k) < 1.5e-4:
            continue
        if curvature_scale(spec, k) < curvature_floor:
            continue
        if sigma_oracle_uncertainty(spec, k) > oracle_tol:
            continue
        kept.append(k)
    if len(kept) < n:
        return None
    idx = sorted({round(i * (len(kept) - 1) / (n - 1)) for i in range(n)})
    return [kept[i] for i in idx]


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def without_grid_pass(patch: pytest.MonkeyPatch) -> None:
    """Make the verifiers run their scalar loop, as they do where numpy is not loaded."""
    patch.setattr(vesprod.oracles, "_grid_pass", lambda run, points, *specs: None)


@pytest.fixture
def reference_fit() -> LogLinearParams:
    """Reference rental-relation fit used across the suite."""
    return LogLinearParams(a=math.exp(0.773454), b=0.934369, c=1.191951, xi=-3.79)


@pytest.fixture
def reference_fit_ves(reference_fit) -> VESParams:
    return ves_from_loglinear(reference_fit)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
