"""Substitution analysis on top of the closed forms: the regression-space
forms of the elasticity, validity ranges, trajectories and asymptotic regimes.

For a degree-one production function with intensive form y(k),

    R(k)     = y/y' - k                      (marginal rate of substitution)
    sigma(k) = y'(k y' - y) / (k y y'')      (elasticity of substitution)

The closed-form kernels of R, R', sigma and sigma' (:func:`mrs_closed`,
:func:`mrs_derivative_closed`, :func:`sigma_closed`,
:func:`sigma_derivative_closed`) live in :mod:`vesprod.families` and are
re-exported here.  :func:`sigma_from_shares`, :func:`sigma_from_mrs` and
:func:`regression_closed_form` state sigma in the rental-rate relation's
regression space.

The economic validity conditions R > 0, R' > 0, sigma > 0 (and a positive
bracketed base) are intersected by :func:`validity_range`, which is what
:func:`trajectory` builds on.  It checks them only next to the points where
they can change, which each family states in closed form (``_sign_changes``:
roots of the factors of its closed forms, and where their power terms
overflow or round to 0).  Each check, on the grid, in bisection and at the
interval's ends, is :func:`violated_constraints`, which calls the closed-form
methods directly.  Regime classification needs no scan: the sign of sigma'
follows from the parameters (see :func:`classify_regime`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, ParamError, ShareError, SingularError
from .families import (
    CESParams,
    CobbDouglasParams,
    FamilySpec,
    LogLinearParams,
    SatoHoffmanParams,
    VESParams,
    _Family,
    _WageForm,
    _check_ves_branch,
    _construct,
    _count,
    _nearest_float,
    _parameter_space,
    _quote,
    _require_in_domain,
    _require_type,
    eval_intensive,
    loglinear_from_ves,
    mrs_closed,
    mrs_derivative_closed,
    sigma_closed,
    sigma_derivative_closed,
    ves_from_loglinear,
)

__all__ = [
    "RegimeCase",
    "Monotonicity",
    "RegimeReport",
    "ValidityInterval",
    "RegressionClosedForm",
    "mrs_closed",
    "mrs_derivative_closed",
    "sigma_closed",
    "sigma_derivative_closed",
    "sigma_from_shares",
    "sigma_from_mrs",
    "regression_closed_form",
    "classify_regime",
    "validity_range",
    "violated_constraints",
    "trajectory",
]

#: Parameters closer than this to a structural boundary (b = c, c = 1,
#: b + c = 1) are rejected by classify_regime; collapse them first with
#: families.reduce_special_case.
BOUNDARY_TOL = 1e-9


class RegimeCase(str, Enum):
    LH_CES_LIMIT = "LH_CES_limit"
    LH_CD_LIMIT = "LH_CD_limit"
    VES_CASE_I = "VES_case_i"
    VES_CASE_II = "VES_case_ii"
    VES_CASE_III = "VES_case_iii"
    CONSTANT_SIGMA = "constant_sigma"
    UNIT_SIGMA = "unit_sigma"


class Monotonicity(str, Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    CONSTANT = "constant"


@dataclass(frozen=True)
class RegimeReport:
    """Asymptotic behaviour of sigma(k): case label, finite limit as
    k -> inf, and monotonicity on the validity range."""

    case_label: RegimeCase
    sigma_limit: float
    monotonicity: Monotonicity


@dataclass(frozen=True)
class ValidityInterval:
    """Maximal subinterval of a probe window on which R > 0, R' > 0,
    sigma > 0, and the closed form's bracketed base is positive.

    ``constraints_active`` lists which of those conditions bind at the
    refined endpoints.  An empty result carries NaN endpoints and is
    detected with :attr:`is_empty`.
    """

    k_low: float
    k_high: float
    constraints_active: tuple[str, ...]

    @classmethod
    def empty(cls) -> "ValidityInterval":
        return cls(k_low=math.nan, k_high=math.nan, constraints_active=())

    @property
    def is_empty(self) -> bool:
        return math.isnan(self.k_low) or math.isnan(self.k_high)

    def clip(self, lo: float, hi: float) -> tuple[float, float]:
        """Intersect with [lo, hi]; raises DomainError when empty."""
        if self.is_empty:
            raise DomainError("validity interval is empty")
        a, b = max(lo, self.k_low), min(hi, self.k_high)
        if not a < b:
            raise DomainError(
                f"[{lo:.6g}, {hi:.6g}] does not intersect the validity range "
                f"[{self.k_low:.6g}, {self.k_high:.6g}]")
        return a, b


def _grid_point(lo: float, hi: float, n: int, i: int) -> float:
    """Point i of n log-spaced points from lo to hi (0 < lo < hi, n >= 2).  A
    window wider than a double's range (hi/lo = inf) is spaced in log space."""
    ratio = hi / lo
    if math.isinf(ratio):
        ln_lo = math.log(lo)
        return math.exp(ln_lo + i * ((math.log(hi) - ln_lo) / (n - 1)))
    return lo * ratio ** (i / (n - 1))


def _require_points(points: int) -> int:
    """The count `points`, a grid one call holds, as an int; ParamError unless
    it is one in [2, 10**6]."""
    count = _count(points)
    if count is None or not 2 <= count <= 10 ** 6:
        raise ParamError(f"points must be an integer in [2, 10**6], got {_quote(points)}")
    return count


def _log_grid(lo: float, hi: float, n: int) -> list[float]:
    """The n points of :func:`_grid_point` from lo to hi."""
    return [_grid_point(lo, hi, n, i) for i in range(n)]


# --------------------------------------------------------------------------
# Regression-space forms of sigma
# --------------------------------------------------------------------------

@_parameter_space
def sigma_from_shares(p: LogLinearParams, k: float, y: float, y_prime: float) -> float:
    """Share form of the elasticity under the rental-rate relation:

        sigma = b (y - k y') / (c y - k y').

    Requires the wage share y - k y' and the quantity c y - k y' to be
    positive; the latter failing means the implied capital share
    beta = k y' / y is at least c, which the relation rules out.
    """
    _require_type(p, LogLinearParams)
    k = _require_in_domain("capital-labor ratio", k)
    wage = y - k * y_prime
    if wage <= 0.0:
        raise ShareError(f"wage share y - k*y' = {wage:.6g} <= 0: inputs are not "
                         "consistent with a degree-one production function")
    d = p.c * y - k * y_prime
    if d <= 0.0:
        beta = k * y_prime / y
        raise ShareError(
            f"c*y - k*y' = {d:.6g} <= 0: implied capital share beta = {beta:.6g} "
            f">= c = {p.c:.6g}, but the share form requires c > beta")
    return p.b * wage / d


@_parameter_space
def sigma_from_mrs(p: LogLinearParams, k: float) -> float:
    """sigma = b R / (c R + (c-1) k) with R from the rental-rate closed form.

    The factor R / (c R + (c-1) k) acts as a correction applied to the
    constant b; as k grows it tends to 1/c when c > b and to 1/b when
    c <= b, so sigma tends to b/c or to 1.
    """
    k = _require_in_domain("capital-labor ratio", k)
    v = ves_from_loglinear(p)  # validates the branch and xi
    R = mrs_closed(v, k)
    return p.b * R / (p.c * R + (p.c - 1.0) * k)


@dataclass(frozen=True)
class RegressionClosedForm:
    """Coefficients of the rental-rate family's closed forms, grouped the
    way the functions are usually displayed:

        R(k)      = mrs_k_coef * k + mrs_pow_coef_per_xi * xi * k**exponent
        R'(k)     = mrs_k_coef + mrs_prime_pow_coef_per_xi * xi * k**(exponent-1)
        sigma(k)  = b * (sigma_num_k_coef * k + sigma_num_pow_coef_per_xi * xi * k**exponent)
                      / (sigma_den_k_coef * k + sigma_den_pow_coef_per_xi * xi * k**exponent)
        sigma'(k) = sigma_prime_num_coef_per_xi * xi * k**exponent
                      / (sigma_den_k_coef * k + sigma_den_pow_coef_per_xi * xi * k**exponent)**2

    All coefficients are per unit xi, so one set serves any choice of the
    integration constant.
    """

    exponent: float
    mrs_k_coef: float
    mrs_pow_coef_per_xi: float
    mrs_prime_pow_coef_per_xi: float
    sigma_num_k_coef: float
    sigma_num_pow_coef_per_xi: float
    sigma_den_k_coef: float
    sigma_den_pow_coef_per_xi: float
    sigma_prime_num_coef_per_xi: float


@_parameter_space
def regression_closed_form(p: LogLinearParams) -> RegressionClosedForm:
    """Closed-form display coefficients of R, R', sigma, sigma' for the
    rental-rate family in regression space (xi not needed)."""
    _check_ves_branch(p)
    b, c = p.b, p.c
    a1b = p.a ** (1.0 / b)
    return _construct(RegressionClosedForm,
                      exponent=c / b,
                      mrs_k_coef=(1.0 - c) / (c - b),
                      mrs_pow_coef_per_xi=-(1.0 - b) * a1b / b,
                      mrs_prime_pow_coef_per_xi=-c * (1.0 - b) * a1b / (b * b),
                      sigma_num_k_coef=b * (c - 1.0),
                      sigma_num_pow_coef_per_xi=(1.0 - b) * (c - b) * a1b,
                      sigma_den_k_coef=b * b * (c - 1.0),
                      sigma_den_pow_coef_per_xi=c * (1.0 - b) * (c - b) * a1b,
                      sigma_prime_num_coef_per_xi=-b * (1.0 - b) * (c - 1.0) * (c - b) ** 3 * a1b)


# --------------------------------------------------------------------------
# Validity range
# --------------------------------------------------------------------------

#: The validity conditions as (label, closed-form method) in report order.
#: Where the bracket fails the other forms are not evaluable: it is reported alone.
_CONSTRAINTS = (("bracket>0", "_bracket"), ("R>0", "_R"), ("R_prime>0", "_dR"),
                ("sigma>0", "_sigma"))

#: Relative width to which validity_range bisects an endpoint.
_BISECT_REL_TOL = 1e-10


def violated_constraints(spec: FamilySpec, k: float) -> tuple[str, ...]:
    """Which of the four validity conditions fail at k (empty when valid).  k is
    admitted as the float nearest it; where that is not positive, the bracket
    fails.  A condition holds where its method raises neither ArithmeticError
    nor DomainError and gives a positive finite value (the bracket may be +inf).
    ParamError propagates (Sato-Hoffman with alpha != 1)."""
    if not isinstance(spec, _Family):
        raise TypeError(f"unsupported family spec: {type(spec).__name__}")
    if not (type(k) is float and 0.0 < k < math.inf):
        try:
            k = _require_in_domain("capital-labor ratio", k)
        except DomainError:
            return ("bracket>0",)
    bad = []
    for label, method in _CONSTRAINTS:
        try:
            value = getattr(spec, method)(k)
            holds = 0.0 < value < math.inf or value == math.inf and method == "_bracket"
        except (ArithmeticError, DomainError):
            holds = False
        if not holds:
            bad.append(label)
            if method == "_bracket":
                break
    return tuple(bad)


def _midpoint(lo: float, hi: float) -> float:
    """(lo + hi) / 2 of two positive doubles, halving each when their sum
    overflows (a boundary in the top grid bracket)."""
    total = lo + hi
    return 0.5 * total if total < math.inf else 0.5 * lo + 0.5 * hi


def _bisect_boundary(spec: FamilySpec, k_bad: float, k_good: float) -> tuple[float, float]:
    """Refine the validity boundary between an invalid and a valid point.

    Returns (boundary_estimate, last_invalid_point)."""
    lo, hi = k_bad, k_good
    for _ in range(200):
        mid = _midpoint(lo, hi)
        if abs(hi - lo) <= _BISECT_REL_TOL * abs(mid):
            break
        if violated_constraints(spec, mid):
            lo = mid
        else:
            hi = mid
    return _midpoint(lo, hi), lo


def validity_range(spec: FamilySpec, k_probe_low: float, k_probe_high: float,
                   *, samples: int = 512) -> ValidityInterval:
    """Maximal subinterval of [k_probe_low, k_probe_high] on which R > 0,
    R' > 0, sigma > 0, and the bracketed base is positive.

    ``samples`` log-spaced points span the probe window.  The conditions
    change only at the family's closed-form cut points (roots of the
    factors of the closed forms, and where their power terms overflow or
    round to 0), so they are checked at the two grid points around each
    cut and at the ends of the window; should two checked points still
    disagree, the grid point where they change is found by bisecting the
    grid index.  Of the valid runs of grid points the longest is kept (the
    first of several equally long ones), and each end of it inside the
    window is refined by bisection, between its grid point and the invalid
    one next to it, to relative 1e-10.  An empty interval is returned
    (never an exception) when no grid point is valid.  The probe bounds are
    taken as the floats nearest them, and the interval's ends are floats.
    """
    given = k_probe_low, k_probe_high
    k_probe_low, k_probe_high = map(_nearest_float, given)
    if not 0.0 < k_probe_low < k_probe_high:  # NaN where a bound is not finite
        raise ParamError("probe bounds must satisfy 0 < low < high, got "
                         f"({', '.join(map(_quote, given))})")
    count = _count(samples)
    if count is None or not 2 <= _nearest_float(count):  # NaN past the double range
        raise ParamError("samples must be an integer >= 2")
    samples = count
    if not isinstance(spec, _Family):
        raise TypeError(f"unsupported family spec: {type(spec).__name__}")

    def point(i: int) -> float:
        return _grid_point(k_probe_low, k_probe_high, samples, i)

    valid: dict[int, bool] = {}

    def check(i: int) -> bool:
        if i not in valid:
            valid[i] = not violated_constraints(spec, point(i))
        return valid[i]

    near = {0, samples - 1}
    ln_low = math.log(k_probe_low)
    ln_span = math.log(k_probe_high) - ln_low  # 0 when the logs of the ends round together
    for ln_k in spec._sign_changes() if ln_span > 0.0 else ():
        t = (ln_k - ln_low) / ln_span * (samples - 1)
        if 0.0 <= t < samples - 1:
            near.update((int(t), int(t) + 1))
    # where two neighbouring checked points still disagree, bisect the index
    probed = sorted(near)
    for i, j in zip(probed, probed[1:]):
        while check(i) != check(j) and j - i > 1:
            mid = (i + j) // 2
            if check(mid) == check(i):
                i = mid
            else:
                j = mid

    # every unchecked grid point is as valid as the checked points around it
    runs: list[list[int]] = []  # [first, last] index of each valid run
    in_run = False
    for i in sorted(valid):
        if valid[i] and in_run:
            runs[-1][1] = i
        elif valid[i]:
            runs.append([i, i])
        in_run = valid[i]
    if not runs:
        return ValidityInterval.empty()

    first, last = max(runs, key=lambda run: run[1] - run[0])
    ends, active = [k_probe_low, k_probe_high], set()
    # an end of the run inside the window is refined against its invalid neighbour
    for side, bad, good in ((0, first - 1, first), (1, last + 1, last)):
        if 0 <= bad < samples:
            ends[side], bad_point = _bisect_boundary(spec, point(bad), point(good))
            active.update(violated_constraints(spec, bad_point))
    return ValidityInterval(k_low=ends[0], k_high=ends[1], constraints_active=tuple(
        label for label, _ in _CONSTRAINTS if label in active))


def trajectory(spec: FamilySpec, k_from: float, k_to: float,
               points: int) -> list[tuple[float, ...]]:
    """Rows (k, y, R, R', sigma, sigma') at `points` (2 to 10**6) log-spaced k
    across the validity range clipped to [k_from, k_to], 1e-9 (relative) inside
    an end the range binds, with the window's bounds taken as the floats nearest
    them; DomainError where the window meets the range over less than those
    steps.  Returns every row or raises, never part of them."""
    points = _require_points(points)
    interval = validity_range(spec, k_from, k_to)
    k_from, k_to = float(k_from), float(k_to)  # finite: validity_range admitted them
    lo, hi = interval.clip(k_from, k_to)
    if lo > k_from:  # keep inside a binding end
        lo *= 1.0 + 1e-9
    if hi < k_to:
        hi *= 1.0 - 1e-9
    if not lo < hi:
        raise DomainError(f"[{k_from:.6g}, {k_to:.6g}] meets the validity range "
                          f"[{interval.k_low:.12g}, {interval.k_high:.12g}] over less "
                          "than the 1e-9 step inside its ends")
    return [(k, eval_intensive(spec, k), mrs_closed(spec, k), mrs_derivative_closed(spec, k),
             sigma_closed(spec, k), sigma_derivative_closed(spec, k))
            for k in _log_grid(lo, hi, points)]


# --------------------------------------------------------------------------
# Regime classification
# --------------------------------------------------------------------------

def _regime_of_rental_regression(b: float, c: float, xi: float) -> RegimeReport:
    if xi >= 0.0:
        raise ParamError("regime analysis assumes xi < 0 (required for R to be "
                         f"positive and increasing on some range); got xi = {_quote(xi)}")
    if b >= 1.0:
        raise ParamError(f"the regime taxonomy assumes b < 1, got b = {_quote(b)}")
    if abs(c - 1.0) <= BOUNDARY_TOL:
        raise ParamError("c = 1 is a case boundary (constant elasticity sigma = b); "
                         "use reduce_special_case first")
    if abs(b - c) <= BOUNDARY_TOL:
        raise ParamError("b = c is a case boundary; use reduce_special_case first")
    if b < c < 1.0:
        return RegimeReport(RegimeCase.VES_CASE_I, b / c, Monotonicity.DECREASING)
    if c < b:
        return RegimeReport(RegimeCase.VES_CASE_II, 1.0, Monotonicity.INCREASING)
    return RegimeReport(RegimeCase.VES_CASE_III, b / c, Monotonicity.INCREASING)


def _regime_of_wage_regression(b: float, c: float, xi: float) -> RegimeReport:
    if xi >= 0.0:
        raise ParamError("regime analysis assumes xi < 0; got "
                         f"xi = {_quote(xi)}")
    if not 0.0 < b < 1.0:
        raise ParamError(f"wage-relation regimes are stated for b in (0, 1), got {_quote(b)}")
    if c == 0.0:
        # CES boundary: sigma identically equal to b
        return RegimeReport(RegimeCase.CONSTANT_SIGMA, b, Monotonicity.CONSTANT)
    if c >= 1.0:
        raise ParamError(f"wage-relation regimes are stated for c in (0, 1), got {_quote(c)}")
    if abs(b + c - 1.0) <= BOUNDARY_TOL:
        raise ParamError("b + c = 1 is a case boundary (the marginal rate of "
                         "substitution degenerates); use reduce_special_case first")
    if b + c > 1.0:
        return RegimeReport(RegimeCase.LH_CES_LIMIT, b / (1.0 - c), Monotonicity.DECREASING)
    return RegimeReport(RegimeCase.LH_CD_LIMIT, 1.0, Monotonicity.INCREASING)


def classify_regime(spec: FamilySpec) -> RegimeReport:
    """Classify sigma(k)'s monotonicity and its finite limit as k -> inf
    from the parameters alone.

    Case boundaries (b = c, c = 1, b + c = 1 within BOUNDARY_TOL) raise
    ParamError with a pointer to ``reduce_special_case``.  The monotonicity
    is the sign law of the closed-form sigma'.  For VES, sigma' has the sign
    of -lam*mu at every k: xi < 0 and 0 < b < 1 make mu > 0, and
    lam = (c-1)/(b-c) is positive in case i only.  For the wage form,
    sigma' has the sign of xi (1-b)(b+c-1), and is 0 at c = 0.
    """
    if isinstance(spec, CobbDouglasParams):
        return RegimeReport(RegimeCase.UNIT_SIGMA, 1.0, Monotonicity.CONSTANT)
    if isinstance(spec, CESParams):
        return RegimeReport(RegimeCase.CONSTANT_SIGMA, spec.sigma, Monotonicity.CONSTANT)
    if isinstance(spec, SatoHoffmanParams):
        if spec.rho == 1.0:
            return RegimeReport(RegimeCase.UNIT_SIGMA, 1.0, Monotonicity.CONSTANT)
        raise ParamError(
            "an affine elasticity has no finite large-k limit: the domain is bounded "
            "for rho < 1 and sigma is unbounded for rho > 1; only rho = 1 has a regime")
    if isinstance(spec, VESParams):
        p = loglinear_from_ves(spec)
        return _regime_of_rental_regression(p.b, p.c, p.xi)
    if isinstance(spec, _WageForm):
        try:
            xi = spec._xi
        except OverflowError as exc:  # Lu-Fletcher's a^(1/b)
            raise SingularError(f"{type(spec).__name__}: the constant xi overflows, so it "
                                "has no sign to classify by") from exc
        return _regime_of_wage_regression(spec.b, spec.c, xi)
    raise TypeError(f"unsupported family spec: {type(spec).__name__}")
