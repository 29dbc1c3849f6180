"""Parameter types and closed-form evaluation for six production-function
families with constant or variable elasticity of factor substitution.

Every family is homogeneous of degree one (Sato-Hoffman optionally of
degree ``alpha``), so each has an intensive form ``y(k)`` giving output
per worker at capital-labor ratio ``k = K/L`` and an extensive form
``F(K, L) = L * y(K/L)``.  Both are implemented from their closed forms,
never by numerical integration.

Families
--------
CobbDouglasParams   y = A k^beta                          (sigma = 1)
CESParams           y = gamma [delta k^((s-1)/s) + (1-delta)]^(s/(s-1))
LiuHildebrandParams closed-form solution of the wage log-linear relation
                    ln y = ln a + b ln(y - k y') + c ln k
LuFletcherParams    the same function in its alternative parameterization
                    with integration constant zeta
SatoHoffmanParams   F = gamma K^(alpha(1-delta rho)) [L + (rho-1)K]^(alpha delta rho),
                    elasticity affine in k
VESParams           marginal rate of substitution R(k) = lam*k + mu*k^theta,
                    y = psi [(1+lam) k^(1-theta) + mu]^(1/((1+lam)(1-theta)))

``LogLinearParams`` is not a family by itself: it is the regression-space
parameter set (a, b, c) of a log-linear relation between output, a factor
price, and k, plus the integration constant ``xi`` that pins down one
member of the solution family.  Under the rental-rate reading
(ln y = ln a + b ln y' + c ln k) it maps to ``VESParams`` via
:func:`ves_from_loglinear`; under the wage reading it parameterizes the
Liu-Hildebrand / Lu-Fletcher function.

Each family type carries its closed forms as private methods (``_y``,
``_F``, ``_dy``, ``_d2y``, ``_R``, ``_dR``, ``_sigma``, ``_dsigma`` and the
bracketed base ``_bracket``), each stated once, next to ``_sign_changes``,
the points where the validity conditions on them can change; Lu-Fletcher
shares the Liu-Hildebrand method set.  The public functions here and in
:mod:`vesprod.substitution` delegate to them through one entry point that
checks the arguments and turns floating-point failure into VesprodError.

The parameter-space functions have one error boundary, :func:`_parameter_space`:
an overflowing power, a division by zero and a non-finite result raise
SingularError.  :func:`reduce_special_case` is total: it raises none of them.

All types are frozen dataclasses and all operations are pure functions;
they are safe to share across threads.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Union

from .errors import DomainError, ParamError, SingularError, VesprodError

__all__ = [
    "LogLinearParams",
    "VESParams",
    "CobbDouglasParams",
    "CESParams",
    "LiuHildebrandParams",
    "LuFletcherParams",
    "SatoHoffmanParams",
    "FamilySpec",
    "eval_intensive",
    "eval_extensive",
    "intensive_derivative",
    "intensive_second_derivative",
    "bracket_base",
    "ves_from_loglinear",
    "loglinear_from_ves",
    "lf_from_lh",
    "lh_from_loglinear",
    "symmetric_form",
    "reduce_special_case",
]


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ParamError(f"{name} must be finite, got {value!r}")


def _require_positive(name: str, value: float) -> None:
    _require_finite(name, value)
    if value <= 0.0:
        raise ParamError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class LogLinearParams:
    """Regression-space parameters of a log-linear factor-price relation.

    ``a`` is the positive scale constant, ``b`` the slope on the log price
    term, ``c`` the slope on ``ln k``, and ``xi`` the constant of
    integration of the implied differential equation.  ``xi`` may be left
    unset (``None``) when only the regression coefficients are known; it
    can then be filled in by calibration (see ``estimation.calibrate_xi``)
    via :meth:`with_xi`.

    ``b = 0`` is admitted at construction so that the explicit
    Cobb-Douglas reduction (:func:`reduce_special_case`) stays reachable;
    operations that evaluate a closed form requiring ``b`` in a
    denominator reject it with :class:`ParamError`.
    """

    a: float
    b: float
    c: float
    xi: float | None = None

    def __post_init__(self) -> None:
        _require_positive("a", self.a)
        _require_finite("b", self.b)
        if self.b < 0.0:
            raise ParamError(f"b must be non-negative, got {self.b!r}")
        _require_positive("c", self.c)
        if self.xi is not None:
            _require_finite("xi", self.xi)

    def with_xi(self, xi: float) -> "LogLinearParams":
        """Return a copy with the integration constant set to ``xi``."""
        return replace(self, xi=xi)

    def require_xi(self) -> float:
        if self.xi is None:
            raise ParamError("this operation needs the integration constant xi; "
                             "set it explicitly or calibrate it first")
        return self.xi


def _check_ves_branch(p: LogLinearParams) -> None:
    """Branch restrictions of the rental-rate closed form: b not in {0, 1}, b != c."""
    if p.b == 0.0:
        raise ParamError("b = 0 is the Cobb-Douglas branch; use reduce_special_case")
    if p.b == 1.0:
        raise ParamError("b = 1 is a singular branch of the closed form")
    if p.b == p.c:
        raise ParamError("b = c makes the closed form singular (exponent b-c vanishes)")


def _check_lh_branch(p: LogLinearParams) -> None:
    """Branch restrictions of the wage closed form: b not in {0, 1}, b + c != 1."""
    if p.b == 0.0 or p.b == 1.0:
        raise ParamError(f"the wage-relation closed form needs b outside {{0, 1}}, got b = {p.b!r}")
    if p.b + p.c == 1.0:
        raise ParamError("b + c = 1 is excluded: the integration step divides by b + c - 1")


def _require_ratio(k: float) -> None:
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"capital-labor ratio must be positive and finite, got {k!r}")


def _require_factors(K: float, L: float) -> None:
    if not (math.isfinite(K) and K > 0.0):
        raise DomainError(f"capital input must be positive and finite, got {K!r}")
    if not (math.isfinite(L) and L > 0.0):
        raise DomainError(f"labor input must be positive and finite, got {L!r}")


#: ln of the largest double, past which a power raises OverflowError and a
#: product becomes inf, and of 2^-1075, below which a product rounds to 0.
_LN_MAX = math.log(sys.float_info.max)
_LN_ZERO = -1075.0 * math.log(2.0)


def _root(e: float, a: float, b: float) -> list[float]:
    """ln k where a + b k^e changes sign (none when a and b share a sign)."""
    if e == 0.0 or a == 0.0 or b == 0.0 or (a > 0.0) == (b > 0.0):
        return []
    return [(math.log(abs(a)) - math.log(abs(b))) / e]


def _magnitude(e: float, *coefs: float) -> list[float]:
    """ln k where k^e overflows, and where c k^e overflows or rounds to 0,
    for each coefficient c."""
    if e == 0.0:
        return []
    levels = [_LN_MAX]
    for c in coefs:
        if c != 0.0:
            ln_c = math.log(abs(c))
            levels += [_LN_MAX - ln_c, _LN_ZERO - min(ln_c, 0.0)]
    return [level / e for level in levels]


class _Family:
    """Base of the six family specs.

    Each family states its closed forms once, as methods of a capital-labor
    ratio ``k`` (or of factor inputs ``K, L``) that :func:`_evaluate` has
    already checked to be positive and finite:

        _bracket  bracketed base; its positivity is the evaluability condition
        _y, _F    intensive and extensive form
        _dy, _d2y first and second derivative of y
        _R, _dR   marginal rate of substitution R = y/y' - k and R'
        _sigma, _dsigma
                  elasticity of substitution and its derivative
        _sign_changes
                  ln k of every point where the sign of _bracket, _R, _dR or
                  _sigma can change or they stop being evaluable: the roots
                  of their factors, and where their power terms overflow or
                  round to 0

    A pole of sigma (R' = 0, or a vanishing rational denominator) divides
    by zero, which :func:`_evaluate` turns into SingularError.
    """

    def _positive_bracket(self, k: float) -> float:
        base = self._bracket(k)
        if not base > 0.0:
            raise DomainError(
                f"{type(self).__name__}: bracketed base is non-positive at k = {k:.12g} "
                f"(base = {base:.6g}); the closed form is not defined there")
        return base


@dataclass(frozen=True)
class VESParams(_Family):
    """Structural parameters of the variable-elasticity family whose
    marginal rate of substitution is ``R(k) = lam*k + mu*k**theta``.

    Hypotheses: ``lam != -1``, ``mu != 0``, ``theta != 1``, ``psi > 0``.
    """

    lam: float
    mu: float
    theta: float
    psi: float

    def __post_init__(self) -> None:
        _require_finite("lam", self.lam)
        _require_finite("mu", self.mu)
        _require_finite("theta", self.theta)
        _require_positive("psi", self.psi)
        if self.lam == -1.0:
            raise ParamError("lam = -1 is excluded (exponent 1/((1+lam)(1-theta)) undefined)")
        if self.mu == 0.0:
            raise ParamError("mu = 0 degenerates R(k) to lam*k; use a Cobb-Douglas spec instead")
        if self.theta == 1.0:
            raise ParamError("theta = 1 degenerates R(k) to a linear function; "
                             "use a Cobb-Douglas spec instead")

    def _bracket(self, k: float) -> float:
        return (1.0 + self.lam) * k ** (1.0 - self.theta) + self.mu

    def _y(self, k: float) -> float:
        base = self._positive_bracket(k)
        expo = 1.0 / ((1.0 + self.lam) * (1.0 - self.theta))
        return self.psi * base ** expo

    def _F(self, K: float, L: float) -> float:
        lam, th = self.lam, self.theta
        base = (1.0 + lam) * K ** (1.0 - th) * L ** (lam * (1.0 - th)) \
            + self.mu * L ** ((1.0 + lam) * (1.0 - th))
        if not base > 0.0:
            raise DomainError(
                f"VESParams: bracketed base is non-positive at K/L = {K / L:.12g}")
        return self.psi * base ** (1.0 / ((1.0 + lam) * (1.0 - th)))

    def _dy(self, k: float) -> float:
        base = self._positive_bracket(k)
        expo = 1.0 / ((1.0 + self.lam) * (1.0 - self.theta))
        return self.psi * k ** (-self.theta) * base ** (expo - 1.0)

    def _d2y(self, k: float) -> float:
        base = self._positive_bracket(k)
        lam, th = self.lam, self.theta
        expo = 1.0 / ((1.0 + lam) * (1.0 - th))
        return (-self.psi * k ** (-th - 1.0) * base ** (expo - 2.0)
                * (lam * k ** (1.0 - th) + th * self.mu))

    def _R(self, k: float) -> float:
        return self.lam * k + self.mu * k ** self.theta

    def _dR(self, k: float) -> float:
        return self.lam + self.theta * self.mu * k ** (self.theta - 1.0)

    def _sigma(self, k: float) -> float:
        lam, mu, th = self.lam, self.mu, self.theta
        x = k ** (th - 1.0)
        return (lam + mu * x) / (lam + th * mu * x)

    def _dsigma(self, k: float) -> float:
        lam, mu, th = self.lam, self.mu, self.theta
        den = lam + th * mu * k ** (th - 1.0)
        return -lam * mu * (th - 1.0) ** 2 * k ** (th - 2.0) / den / den

    def _sign_changes(self) -> list[float]:
        # with x = k^(theta-1): bracket k^(1-theta) ((1+lam) + mu x), R = k (lam + mu x),
        # R' = lam + theta mu x and sigma = (lam + mu x) / (lam + theta mu x)
        lam, mu, th = self.lam, self.mu, self.theta
        e = th - 1.0
        return [*_root(e, 1.0 + lam, mu), *_root(e, lam, mu), *_root(e, lam, th * mu),
                *_magnitude(1.0 - th, 1.0 + lam), *_magnitude(1.0, lam),
                *_magnitude(th, mu), *_magnitude(e, mu, th * mu)]


@dataclass(frozen=True)
class CobbDouglasParams(_Family):
    """y = A k^beta with capital share beta in (0, 1)."""

    A: float
    beta: float

    def __post_init__(self) -> None:
        _require_positive("A", self.A)
        _require_finite("beta", self.beta)
        if not 0.0 < self.beta < 1.0:
            raise ParamError(f"beta must lie in (0, 1), got {self.beta!r}")

    def _bracket(self, k: float) -> float:
        return math.inf  # no bracketed base; never binds

    def _y(self, k: float) -> float:
        return self.A * k ** self.beta

    def _F(self, K: float, L: float) -> float:
        return self.A * K ** self.beta * L ** (1.0 - self.beta)

    def _dy(self, k: float) -> float:
        return self.A * self.beta * k ** (self.beta - 1.0)

    def _d2y(self, k: float) -> float:
        return self.A * self.beta * (self.beta - 1.0) * k ** (self.beta - 2.0)

    def _R(self, k: float) -> float:
        return (1.0 - self.beta) / self.beta * k

    def _dR(self, k: float) -> float:
        return (1.0 - self.beta) / self.beta

    def _sigma(self, k: float) -> float:
        return 1.0

    def _dsigma(self, k: float) -> float:
        return 0.0

    def _sign_changes(self) -> list[float]:
        return _magnitude(1.0, (1.0 - self.beta) / self.beta)


@dataclass(frozen=True)
class CESParams(_Family):
    """Constant elasticity of substitution ``sigma`` (sigma = 1 excluded:
    that limit is Cobb-Douglas and has its own spec)."""

    gamma: float
    delta: float
    sigma: float

    def __post_init__(self) -> None:
        _require_positive("gamma", self.gamma)
        _require_finite("delta", self.delta)
        if not 0.0 < self.delta < 1.0:
            raise ParamError(f"delta must lie in (0, 1), got {self.delta!r}")
        _require_positive("sigma", self.sigma)
        if self.sigma == 1.0:
            raise ParamError("sigma = 1 is the Cobb-Douglas limit; use CobbDouglasParams")

    def _bracket(self, k: float) -> float:
        s = self.sigma
        return self.delta * k ** ((s - 1.0) / s) + (1.0 - self.delta)

    def _y(self, k: float) -> float:
        s = self.sigma
        base = self._positive_bracket(k)
        return self.gamma * base ** (s / (s - 1.0))

    def _F(self, K: float, L: float) -> float:
        s = self.sigma
        e = (s - 1.0) / s
        base = self.delta * K ** e + (1.0 - self.delta) * L ** e
        return self.gamma * base ** (s / (s - 1.0))

    def _dy(self, k: float) -> float:
        s = self.sigma
        base = self._positive_bracket(k)
        return self.gamma * self.delta * k ** (-1.0 / s) * base ** (1.0 / (s - 1.0))

    def _d2y(self, k: float) -> float:
        s = self.sigma
        base = self._positive_bracket(k)
        return (-self.gamma * self.delta * (1.0 - self.delta) / s
                * k ** (-1.0 / s - 1.0) * base ** ((2.0 - s) / (s - 1.0)))

    def _R(self, k: float) -> float:
        return (1.0 - self.delta) / self.delta * k ** (1.0 / self.sigma)

    def _dR(self, k: float) -> float:
        return (1.0 - self.delta) / (self.delta * self.sigma) * k ** (1.0 / self.sigma - 1.0)

    def _sigma(self, k: float) -> float:
        return self.sigma

    def _dsigma(self, k: float) -> float:
        return 0.0

    def _sign_changes(self) -> list[float]:
        s, d = self.sigma, self.delta
        cuts = [*_magnitude((s - 1.0) / s, d), *_magnitude(1.0 / s, (1.0 - d) / d)]
        if d * s != 0.0:  # else R' divides by zero at every k
            cuts += _magnitude(1.0 / s - 1.0, (1.0 - d) / (d * s))
        return cuts


class _WageForm(_Family):
    """Closed forms of the wage-relation function,
    y = A [m k^((b-1)/b) + n k^(-c/b)]^(b/(b-1)) with n = (b-1)/(b+c-1) and
    A = a^(1/(1-b)), and its R, R', sigma' as rational functions of
    k^((b+c-1)/b) in the Liu-Hildebrand constant xi.

    Subclasses supply the bracket coefficient m (:meth:`_bracket_coef`) and
    xi (:meth:`_xi`) from their own integration constant.
    """

    def __post_init__(self) -> None:
        _require_positive("a", self.a)
        _require_positive("b", self.b)
        if self.b == 1.0:
            raise ParamError("b = 1 is a singular branch of the wage closed form")
        _require_finite("c", self.c)
        if self.c < 0.0:
            raise ParamError(f"c must be non-negative, got {self.c!r}")
        if self.b + self.c == 1.0:
            raise ParamError("b + c = 1 is excluded: the integration step divides by b + c - 1")

    def _coeffs(self) -> tuple[float, float, float]:
        """(m, n, A) of the closed form."""
        b, c = self.b, self.c
        return self._bracket_coef(), (b - 1.0) / (b + c - 1.0), self.a ** (1.0 / (1.0 - b))

    def _bracket(self, k: float) -> float:
        m, n, _ = self._coeffs()
        b, c = self.b, self.c
        return m * k ** ((b - 1.0) / b) + n * k ** (-c / b)

    def _y(self, k: float) -> float:
        base = self._positive_bracket(k)
        _, _, A = self._coeffs()
        return A * base ** (self.b / (self.b - 1.0))

    def _F(self, K: float, L: float) -> float:
        m, n, A = self._coeffs()
        b, c = self.b, self.c
        base = m * K ** ((b - 1.0) / b) + n * K ** (-c / b) * L ** ((b + c - 1.0) / b)
        if not base > 0.0:
            raise DomainError(
                f"{type(self).__name__}: bracketed base is non-positive at K/L = {K / L:.12g}")
        return A * base ** (b / (b - 1.0))

    def _dy(self, k: float) -> float:
        base = self._positive_bracket(k)
        m, n, A = self._coeffs()
        b, c = self.b, self.c
        Sp = m * (b - 1.0) / b * k ** (-1.0 / b) - n * c / b * k ** (-(b + c) / b)
        return A * b / (b - 1.0) * base ** (1.0 / (b - 1.0)) * Sp

    def _d2y(self, k: float) -> float:
        base = self._positive_bracket(k)
        m, n, A = self._coeffs()
        b, c = self.b, self.c
        Sp = m * (b - 1.0) / b * k ** (-1.0 / b) - n * c / b * k ** (-(b + c) / b)
        Spp = (-m * (b - 1.0) / b ** 2 * k ** (-(1.0 + b) / b)
               + n * c * (b + c) / b ** 2 * k ** (-(2.0 * b + c) / b))
        return A * b / (b - 1.0) * (base ** ((2.0 - b) / (b - 1.0)) * Sp ** 2 / (b - 1.0)
                                    + base ** (1.0 / (b - 1.0)) * Spp)

    def _R(self, k: float) -> float:
        b, c, xi = self.b, self.c, self._xi()
        den = xi * (1.0 - b) * (b + c - 1.0) * k ** ((b + c - 1.0) / b) + b * c
        return -b * (b + c - 1.0) * k / den

    def _dR(self, k: float) -> float:
        b, c, xi = self.b, self.c, self._xi()
        x = k ** ((b + c - 1.0) / b)
        den = xi * (1.0 - b) * (b + c - 1.0) * x + b * c
        num = xi * (1.0 - b) * (1.0 - c) * (b + c - 1.0) * x + b * b * c
        return -(b + c - 1.0) * num / den / den

    def _sigma(self, k: float) -> float:
        b, c, xi = self.b, self.c, self._xi()
        x = k ** ((b + c - 1.0) / b)
        den = xi * (1.0 - b) * (b + c - 1.0) * (1.0 - c) * x + b * b * c
        num = xi * (1.0 - b) * (b + c - 1.0) * x + b * c
        return b * num / den

    def _dsigma(self, k: float) -> float:
        b, c, xi = self.b, self.c, self._xi()
        s = b + c - 1.0
        den = xi * (1.0 - b) * s * (1.0 - c) * k ** ((b - 1.0) / b) \
            + b * b * c * k ** (-c / b)
        num = xi * (1.0 - b) * s * b * c * s ** 2 * k ** (-(c + 1.0) / b)
        return num / den / den

    def _sign_changes(self) -> list[float]:
        # with x = k^((b+c-1)/b) and s = b+c-1: bracket k^(-c/b) (m x + n),
        # R = -b s k / D1, R' = -s D2 / D1^2 and sigma = b D1 / D2, where
        # D1 = c1 x + bc and D2 = c2 x + b^2 c
        b, c = self.b, self.c
        try:
            m, xi = self._bracket_coef(), self._xi()
        except OverflowError:  # then every condition fails at every k
            return []
        s = b + c - 1.0
        e, n = s / b, (b - 1.0) / s
        c1, c2 = xi * (1.0 - b) * s, xi * (1.0 - b) * (1.0 - c) * s
        cuts = [*_root(e, n, m), *_root(e, b * c, c1), *_root(e, b * b * c, c2),
                *_magnitude((b - 1.0) / b, m), *_magnitude(-c / b, n),
                *_magnitude(e, c1, c2, b * c1), *_magnitude(1.0, b * s)]
        # a quotient overflows or rounds to 0 where the ratio of its leading
        # terms does: every numerator term over every denominator term
        numerators = ((-b * s, 1.0), (-s * c2, e), (-s * b * b * c, 0.0), (b * c1, e),
                      (b * b * c, 0.0))
        denominators = ((b * c, 0.0), (c1, e), (b * b * c, 0.0), (c2, e))
        for num, e_num in numerators:
            for den, e_den in denominators:
                if den != 0.0:
                    cuts += _magnitude(e_num - e_den, num / den)
        return cuts


@dataclass(frozen=True)
class LiuHildebrandParams(_WageForm):
    """Closed-form solution of the wage log-linear relation
    ``ln y = ln a + b ln(y - k y') + c ln k``.

    ``c = 0`` is admitted: it is the CES boundary of this family.
    ``b + c = 1`` is excluded (the closed form divides by b + c - 1).
    """

    a: float
    b: float
    c: float
    xi: float

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_finite("xi", self.xi)

    def _bracket_coef(self) -> float:
        return self.xi * (self.b - 1.0) / self.b

    def _xi(self) -> float:
        return self.xi


@dataclass(frozen=True)
class LuFletcherParams(_WageForm):
    """Alternative parameterization of the wage-relation function with
    integration constant ``zeta``; with ``zeta = xi (b-1) a^(-1/b) / b``
    it coincides pointwise with :class:`LiuHildebrandParams`.

    The bracket coefficient and sigma are stated directly in zeta, so that
    comparing the two parameterizations is an independent check.
    """

    a: float
    b: float
    c: float
    zeta: float

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_finite("zeta", self.zeta)

    def _bracket_coef(self) -> float:
        return self.zeta * self.a ** (1.0 / self.b)

    def _xi(self) -> float:
        return self.zeta * self.b * self.a ** (1.0 / self.b) / (self.b - 1.0)

    def _sigma(self, k: float) -> float:
        a, b, c, zeta = self.a, self.b, self.c, self.zeta
        u = k ** ((b - 1.0) / b)
        v = b * c * a ** (-1.0 / b) * k ** (-c / b)
        den = zeta * (1.0 - c) * (1.0 - b - c) * u + v
        num = zeta * b * (1.0 - b - c) * u + v
        return num / den


@dataclass(frozen=True)
class SatoHoffmanParams(_Family):
    """F = gamma K^(alpha(1-delta*rho)) [L + (rho-1) K]^(alpha*delta*rho).

    Requires delta in (0, 1) and delta*rho in [0, 1].  For rho < 1 the
    function is only defined for k < (1 - delta*rho) / (1 - rho); for
    rho >= 1 the domain is unbounded.  Degree-one identities (marginal
    rate of substitution, elasticity) additionally require alpha = 1.
    """

    gamma: float
    delta: float
    rho: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("gamma", self.gamma)
        _require_finite("delta", self.delta)
        if not 0.0 < self.delta < 1.0:
            raise ParamError(f"delta must lie in (0, 1), got {self.delta!r}")
        _require_finite("rho", self.rho)
        dr = self.delta * self.rho
        if not 0.0 <= dr <= 1.0:
            raise ParamError(f"delta*rho must lie in [0, 1], got {dr!r}")
        _require_positive("alpha", self.alpha)

    def k_upper_bound(self) -> float:
        """Upper end of the admissible k range (inf when rho >= 1)."""
        if self.rho >= 1.0:
            return math.inf
        return (1.0 - self.delta * self.rho) / (1.0 - self.rho)

    def _check_domain(self, k: float, degree_one: bool = False) -> None:
        """Reject k outside the admissible range; with ``degree_one`` (the
        substitution formulas R, R', sigma, sigma') first require alpha = 1."""
        if degree_one and self.alpha != 1.0:
            raise ParamError("substitution formulas assume degree one; "
                             f"alpha = {self.alpha!r} is not supported here")
        bound = self.k_upper_bound()
        if k >= bound:
            raise DomainError(
                f"SatoHoffmanParams: k = {k:.12g} is outside the admissible range "
                f"k < {bound:.12g} for rho = {self.rho:.12g}")

    def _bracket(self, k: float) -> float:
        # (1 - delta*rho) + (rho - 1) k: positive exactly on the admissible
        # k range for rho < 1, and everywhere for rho >= 1.
        return (1.0 - self.delta * self.rho) + (self.rho - 1.0) * k

    def _y(self, k: float) -> float:
        self._check_domain(k)
        dr = self.delta * self.rho
        G = 1.0 + (self.rho - 1.0) * k
        return self.gamma * k ** (self.alpha * (1.0 - dr)) * G ** (self.alpha * dr)

    def _F(self, K: float, L: float) -> float:
        self._check_domain(K / L)
        dr = self.delta * self.rho
        inner = L + (self.rho - 1.0) * K
        return self.gamma * K ** (self.alpha * (1.0 - dr)) * inner ** (self.alpha * dr)

    def _dy(self, k: float) -> float:
        y = self._y(k)
        dr = self.delta * self.rho
        G = 1.0 + (self.rho - 1.0) * k
        g = self.alpha * ((1.0 - dr) / k + dr * (self.rho - 1.0) / G)
        return y * g

    def _d2y(self, k: float) -> float:
        y = self._y(k)
        dr = self.delta * self.rho
        G = 1.0 + (self.rho - 1.0) * k
        g = self.alpha * ((1.0 - dr) / k + dr * (self.rho - 1.0) / G)
        gp = self.alpha * (-(1.0 - dr) / k ** 2 - dr * (self.rho - 1.0) ** 2 / G ** 2)
        return y * (g * g + gp)

    def _R(self, k: float) -> float:
        self._check_domain(k, degree_one=True)
        dr = self.delta * self.rho
        return dr * k / ((1.0 - dr) + (self.rho - 1.0) * k)

    def _dR(self, k: float) -> float:
        self._check_domain(k, degree_one=True)
        dr = self.delta * self.rho
        D = (1.0 - dr) + (self.rho - 1.0) * k
        return dr * (1.0 - dr) / (D * D)

    def _sigma(self, k: float) -> float:
        self._check_domain(k, degree_one=True)
        dr = self.delta * self.rho
        return 1.0 + (self.rho - 1.0) / (1.0 - dr) * k

    def _dsigma(self, k: float) -> float:
        self._check_domain(k, degree_one=True)
        return (self.rho - 1.0) / (1.0 - self.delta * self.rho)

    def _sign_changes(self) -> list[float]:
        # the domain bound (1 - delta rho)/(1 - rho), where the bracket and sigma
        # vanish; R = dr k / D and R' = dr (1 - dr) / D^2 with D the bracket
        dr, r = self.delta * self.rho, self.rho - 1.0
        cuts = [*_root(1.0, 1.0 - dr, r), *_magnitude(1.0, dr)]
        if r * r != 0.0:  # else D^2 < (1.5e-162 k)^2 stays inside the double range
            cuts += _magnitude(2.0, r * r, dr * (1.0 - dr) / (r * r))
        return cuts


FamilySpec = Union[
    CobbDouglasParams,
    CESParams,
    LiuHildebrandParams,
    LuFletcherParams,
    SatoHoffmanParams,
    VESParams,
]


#: What each closed-form method computes, as error messages name it.
_QUANTITY = {"_bracket": "bracketed base", "_y": "y", "_F": "F", "_dy": "y'", "_d2y": "y''",
             "_R": "R", "_dR": "R'", "_sigma": "sigma", "_dsigma": "sigma'"}


def _evaluate(spec: FamilySpec, method: str, k: float, L: float | None = None) -> float:
    """``spec.<method>(k)``, or ``spec.<method>(K, L)`` with K = k when L
    is given: the one path from a public kernel to a closed form.

    Rejects a non-family spec with TypeError and checks k (or K and L)
    once.  It is the one place that says what a floating-point failure in
    a closed form means: an overflowing power raises DomainError; a
    division by zero (a pole, or a term that rounded to 0) and a result
    that is not finite raise SingularError.  Only ``_bracket``, of which
    just the sign matters, may return +-inf (Cobb-Douglas has none: inf).
    """
    if not isinstance(spec, _Family):
        raise TypeError(f"unsupported family spec: {type(spec).__name__}")
    try:
        if L is None:
            _require_ratio(k)
            value = getattr(spec, method)(k)
        else:
            _require_factors(k, L)
            value = getattr(spec, method)(k, L)
        if math.isfinite(value) or (method == "_bracket" and not math.isnan(value)):
            return value
        error, what = SingularError, f"{_QUANTITY[method]} is not finite"
    except OverflowError:
        error, what = DomainError, "the closed form overflows"
    except ZeroDivisionError:
        error, what = SingularError, f"{_QUANTITY[method]} divides by zero"
    where = f"k = {k:.12g}" if L is None else f"K = {k:.12g}, L = {L:.12g}"
    raise error(f"{type(spec).__name__}: {what} at {where}")


def bracket_base(spec: FamilySpec, k: float) -> float:
    """Bracketed base of the closed form at k.  Its positivity is the
    evaluability condition; validity analysis intersects it with R > 0,
    R' > 0 and sigma > 0.  Cobb-Douglas has none and returns inf."""
    return _evaluate(spec, "_bracket", k)


def eval_intensive(spec: FamilySpec, k: float) -> float:
    """Output per worker y(k) at capital-labor ratio k."""
    return _evaluate(spec, "_y", k)


def eval_extensive(spec: FamilySpec, K: float, L: float) -> float:
    """Total output F(K, L), written out per family rather than delegated
    to L * y(K/L) so that homogeneity of degree one is a checkable
    property."""
    return _evaluate(spec, "_F", K, L)


def intensive_derivative(spec: FamilySpec, k: float) -> float:
    """dy/dk from the closed form: the marginal product of capital (the
    rental rate) for degree-one families."""
    return _evaluate(spec, "_dy", k)


def intensive_second_derivative(spec: FamilySpec, k: float) -> float:
    """d^2 y / dk^2 from the closed form."""
    return _evaluate(spec, "_d2y", k)


# --------------------------------------------------------------------------
# Parameter-space conversions
# --------------------------------------------------------------------------

def _finite(value: object) -> bool:
    """Whether value, or every float in a tuple or dataclass of them, is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if is_dataclass(value):  # by attribute: vars() would slow the instance's attribute reads
        value = tuple(getattr(value, field.name) for field in fields(value))
    return not isinstance(value, tuple) or all(map(_finite, value))


def _parameter_space(fn):
    """The error boundary of the parameter-space functions: an overflow, a division by zero
    or a non-finite float result (also in a tuple or dataclass) is SingularError naming the call."""
    @functools.wraps(fn)
    def bounded(*args, **kwargs):
        try:
            result = fn(*args, **kwargs)
            if _finite(result):
                return result
            what = "the result is not finite"
        except OverflowError:
            what = "a power overflows, so it has no finite value"
        except ZeroDivisionError:
            what = "a term divides by zero"
        given = [*map(repr, args), *(f"{name}={value!r}" for name, value in kwargs.items())]
        raise SingularError(f"{fn.__name__}({', '.join(given)}): {what}")
    return bounded


@_parameter_space
def ves_from_loglinear(p: LogLinearParams) -> VESParams:
    """Map regression-space parameters (a, b, c, xi) of the rental-rate
    relation to the structural parameters (lam, mu, theta, psi):

        theta = c/b,  lam = (c-1)/(b-c),  psi = a^(1/(1-b)),
        mu = xi (b-1) a^(1/b) / b.
    """
    _check_ves_branch(p)
    xi = p.require_xi()
    if xi == 0.0:
        raise SingularError("xi = 0 gives mu = 0: the variable-elasticity closed form "
                            "degenerates to a constant-returns power function")
    b, c = p.b, p.c
    mu = xi * (b - 1.0) * p.a ** (1.0 / b) / b
    psi = p.a ** (1.0 / (1.0 - b))
    return VESParams(lam=(c - 1.0) / (b - c), mu=mu, theta=c / b, psi=psi)


@_parameter_space
def loglinear_from_ves(v: VESParams) -> LogLinearParams:
    """Invert :func:`ves_from_loglinear`.  Requires lam*(theta-1) + theta != 0,
    and the image must satisfy the regression-space sign restrictions
    (a > 0, b > 0, c > 0); structural parameters outside that image raise
    :class:`ParamError`.  A power of psi or a past the double range (or
    psi^(1-b) rounding to 0), and b rounding to 1, raise
    :class:`SingularError`."""
    den = v.lam * (v.theta - 1.0) + v.theta
    if den == 0.0:
        raise SingularError("lam*(theta-1) + theta = 0: no log-linear representation")
    b = 1.0 / den
    c = b * v.theta
    if b <= 0.0:
        raise ParamError(f"structural parameters map to b = {b:.12g} <= 0; "
                         "no admissible log-linear representation")
    if b == 1.0:  # den = 1 + (1+lam)(theta-1) is 1 only by rounding
        raise SingularError("lam*(theta-1) + theta rounds to 1, so b = 1: a singular "
                            "branch of the closed form")
    a = v.psi ** (1.0 - b)
    if a == 0.0:
        raise SingularError(f"psi = {v.psi!r}, b = {b!r}: psi^(1-b) underflows to 0, "
                            "so it has no positive value")
    p = LogLinearParams(a=a, b=b, c=c)
    return p.with_xi(v.mu * b * a ** (-1.0 / b) / (b - 1.0))


def lh_from_loglinear(p: LogLinearParams) -> LiuHildebrandParams:
    """Read (a, b, c, xi) as the wage-relation (Liu-Hildebrand) family."""
    _check_lh_branch(p)
    return LiuHildebrandParams(a=p.a, b=p.b, c=p.c, xi=p.require_xi())


@_parameter_space
def lf_from_lh(p: LogLinearParams) -> LuFletcherParams:
    """Convert wage-relation parameters to the Lu-Fletcher parameterization,
    zeta = xi (b-1) a^(-1/b) / b, under which the two closed forms coincide."""
    _check_lh_branch(p)
    xi = p.require_xi()
    zeta = xi * (p.b - 1.0) * p.a ** (-1.0 / p.b) / p.b
    return LuFletcherParams(a=p.a, b=p.b, c=p.c, zeta=zeta)


def _gamma_delta(p: LogLinearParams, q: float) -> tuple[float, float]:
    """(gamma, delta) of :func:`symmetric_form` from the first term q of the
    defining base q + xi (b-1)/b = gamma^((b-1)/b), with delta = q / base."""
    b = p.b
    base = q + p.require_xi() * (b - 1.0) / b
    if not base > 0.0:
        raise DomainError(f"symmetric form undefined: the defining base is {base:.6g} <= 0")
    return base ** (b / (b - 1.0)), q / base


@_parameter_space
def symmetric_form(p: LogLinearParams) -> tuple[float, float]:
    """Rewrite the rental-rate closed form in CES-like shape
    ``y = gamma [delta k^((b-1)/b) k^((1-c)/b) + (1-delta)]^(b/(b-1))``
    and return ``(gamma, delta)``.

    The defining base ``q + xi (b-1) / b``, ``q = (1-b) a^(-1/b) / (c-b)``, must
    be positive (it is gamma^((b-1)/b)); otherwise no real gamma exists and
    :class:`DomainError` is raised.  At c = 1 this is the CES identification.
    """
    _check_ves_branch(p)
    p.require_xi()  # before q, whose power may overflow
    b, c = p.b, p.c
    return _gamma_delta(p, (1.0 - b) * p.a ** (-1.0 / b) / (c - b))


def reduce_special_case(p: LogLinearParams, tol: float = 1e-9
                        ) -> Union[CobbDouglasParams, CESParams, LogLinearParams]:
    """Collapse regression-space parameters onto a structural special case.

    |b| <= tol      -> Cobb-Douglas y = a k^c
    |c - 1| <= tol  -> CES with sigma = b, and gamma and delta from the
                       symmetric form with q = a^(-1/b)
    otherwise       -> p returned unchanged (general variable-elasticity case)

    Total function: for a valid ``tol`` it never raises.  Where a threshold is
    met but the target cannot be built (b ~ 0 with c >= 1; for CES, xi unset,
    b = 1, or no finite gamma and delta that CESParams admits), p is returned.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ParamError(f"tol must be a non-negative float, got {tol!r}")
    if abs(p.b) <= tol:
        if 0.0 < p.c < 1.0:
            return CobbDouglasParams(A=p.a, beta=p.c)
        return p
    if abs(p.c - 1.0) <= tol:
        try:
            gamma, delta = _gamma_delta(p, p.a ** (-1.0 / p.b))
            return CESParams(gamma=gamma, delta=delta, sigma=p.b)
        except (VesprodError, ArithmeticError):
            return p
    return p
