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
shares the Liu-Hildebrand method set.  Construction stores the factors of
y, R, R', sigma and sigma' that depend only on the parameters (VES 1+lam,
1-theta, theta-2; CES 1-delta, (1-delta)/delta, 1/sigma, 1/sigma-1;
Cobb-Douglas (1-beta)/beta; Sato-Hoffman rho-1, 1-delta*rho; the exponents
and the products of the wage forms).  A factor is stored only where it is a
left prefix of the product it replaces, in Python's left-to-right
evaluation, so that every result keeps its bits; one whose power overflows
is left unset, and reading it raises OverflowError where the formula reads
it.  A factor whose computation can raise where the formula would raise
differently stays in its formula: CES (1-delta)/(delta*sigma), where
delta*sigma can round to 0, and Sato-Hoffman (rho-1)/(1-delta*rho), where
delta*rho can be 1.  The VES and wage forms test their bracketed base
inline and call :meth:`_Family._non_positive` to raise; CES's base
delta k^e + (1-delta) is at least 1-delta > 0.

The public kernels of k are here: y, y', y'' (:func:`eval_intensive`,
:func:`intensive_derivative`, :func:`intensive_second_derivative`), R, R',
sigma, sigma' (:func:`mrs_closed`, :func:`mrs_derivative_closed`,
:func:`sigma_closed`, :func:`sigma_derivative_closed`, which
:mod:`vesprod.substitution` re-exports), the base (:func:`bracket_base`) and
F (:func:`eval_extensive`).  The five that a trajectory row calls (y, R, R',
sigma, sigma') return a method's finite value at a positive finite float k in
one call; anything else, and every other kernel, goes through
:func:`_evaluate`, which checks the arguments and turns floating-point failure
into VesprodError (a pole of sigma divides by zero: SingularError).  Every
number a caller gives is admitted, and from then on held, as the float nearest
it (:func:`_nearest_float`): a spec stores each field so before any test or
constant reads it, and a count is admitted as the int it stands for
(:func:`_count`).  :func:`_quote` quotes the caller's number.
:func:`_grid_pass` is the oracles' grid pass, with its numpy gate, its one
``np.errstate`` and its one catch.  It gives a caller a float64 array of k and
:func:`_on_grid`, which runs a method unchanged over such arrays: it wraps
them in one grid of k (:func:`_grid_type`), which holds a plain ndarray and
applies each operator's ufunc to it, with libm's ``pow`` as the scalar
formulas have it, and returns per array one row of its points' values, or
raises.  No grid leaves this module.

The parameter-space functions have one error boundary, :func:`_parameter_space`:
an overflowing power, a division by zero and a non-finite result raise
SingularError.  :func:`reduce_special_case` is total: it raises none of them.
A spec of the wrong type raises TypeError (:func:`_require_type`), which the
boundary lets through.

All types are frozen dataclasses and all operations are pure functions;
they are safe to share across threads.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from math import inf, isfinite
from typing import Callable, NoReturn, Union

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
    "mrs_closed",
    "mrs_derivative_closed",
    "sigma_closed",
    "sigma_derivative_closed",
    "bracket_base",
    "ves_from_loglinear",
    "loglinear_from_ves",
    "lf_from_lh",
    "lh_from_loglinear",
    "symmetric_form",
    "reduce_special_case",
]


def _nearest_float(value: float) -> float:
    """The float nearest a number, or NaN where it is not finite: an int past the
    largest double is not (never converted)."""
    try:
        finite = (abs(value) <= sys.float_info.max if isinstance(value, int)
                  else math.isfinite(value))
        return float(value) if finite else math.nan
    except OverflowError:  # a Fraction past the double range
        return math.nan


def _count(value: object) -> int | None:
    """The int a count stands for (an int, or a numpy integer through
    ``operator.index``), or None where the value is no count: a float, a
    ``Fraction``, a str.  A bool is the int it is."""
    try:
        return operator.index(value)
    except TypeError:
        return None


def _quote(value: object) -> str:
    """repr(value), or the size of an int, or of a Fraction's terms, with more
    digits than repr converts."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
        return (f"{'a negative' if value < 0 else 'a'} Fraction of {value.numerator.bit_length()} "
                f"bits over {value.denominator.bit_length()} bits")


_setattr = object.__setattr__  # sets a field or a per-spec constant on a frozen spec


def _require_finite(spec: object, name: str) -> float:
    """Store and return the float nearest a finite field of a spec under construction."""
    value = getattr(spec, name)
    number = _nearest_float(value)
    if math.isnan(number):
        raise ParamError(f"{name} must be finite, got {_quote(value)}")
    if number is not value:  # a float is its own nearest float
        _setattr(spec, name, number)
    return number


def _require_positive(spec: object, name: str) -> None:
    value = getattr(spec, name)
    if not _require_finite(spec, name) > 0.0:
        raise ParamError(f"{name} must be positive, got {_quote(value)}")


def _require_in_domain(name: str, value: float) -> float:
    """The float nearest a positive finite number (one that rounds to 0 is not)."""
    number = _nearest_float(value)
    if not number > 0.0:
        raise DomainError(f"{name} must be positive and finite, got {_quote(value)}")
    return number


def _require_type(spec: object, kind: type) -> None:
    if not isinstance(spec, kind):
        raise TypeError(f"expected {kind.__name__}, got {type(spec).__name__}")


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
        _require_positive(self, "a")
        _require_finite(self, "b")
        if self.b < 0.0:
            raise ParamError(f"b must be non-negative, got {_quote(self.b)}")
        _require_positive(self, "c")
        if self.xi is not None:
            _require_finite(self, "xi")

    def with_xi(self, xi: float) -> "LogLinearParams":
        """Return a copy with the integration constant set to ``xi``."""
        return LogLinearParams(self.a, self.b, self.c, xi)

    def require_xi(self) -> float:
        if self.xi is None:
            raise ParamError("this operation needs the integration constant xi; "
                             "set it explicitly or calibrate it first")
        return self.xi


def _check_ves_branch(p: LogLinearParams) -> None:
    """Branch restrictions of the rental-rate closed form: b not in {0, 1}, b != c."""
    _require_type(p, LogLinearParams)
    if p.b == 0.0:
        raise ParamError("b = 0 is the Cobb-Douglas branch; use reduce_special_case")
    if p.b == 1.0:
        raise ParamError("b = 1 is a singular branch of the closed form")
    if p.b == p.c:
        raise ParamError("b = c makes the closed form singular (exponent b-c vanishes)")


def _check_lh_branch(p: LogLinearParams) -> None:
    """Branch restrictions of the wage closed form: b not in {0, 1}, b + c != 1."""
    _require_type(p, LogLinearParams)
    if p.b == 0.0 or p.b == 1.0:
        raise ParamError("the wage-relation closed form needs b outside {0, 1}, "
                         f"got b = {_quote(p.b)}")
    if p.b + p.c == 1.0:
        raise ParamError("b + c = 1 is excluded: the integration step divides by b + c - 1")


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


class _Overflowed:
    """Stands in for a per-spec constant whose power overflowed, so that
    construction could not set it on the spec: reading it raises
    OverflowError, at the point where a closed form reads the constant."""

    def __get__(self, spec, owner=None):
        if spec is None:
            return self
        raise OverflowError("the per-spec constant overflows")


class _Family:
    """Base of the six family specs.

    Each family states its closed forms once, as methods of a capital-labor
    ratio ``k`` (or of factor inputs ``K, L``) already checked to be positive
    and finite:

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

    def _non_positive(self, k: float, base: float) -> NoReturn:
        """Raise for a bracketed base that is not positive at k.  The forms
        that need a positive base test it inline, ``if not (base :=
        self._bracket(k)) > 0.0``, so that the test costs no Python frame."""
        raise DomainError(
            f"{type(self).__name__}: bracketed base is non-positive at k = {k:.12g} "
            f"(base = {base:.6g}); the closed form is not defined there")


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

    _dsnum = _Overflowed()  # -lam mu (theta-1)^2, which sigma' reads first

    def __post_init__(self) -> None:
        _require_finite(self, "lam")
        _require_finite(self, "mu")
        _require_finite(self, "theta")
        _require_positive(self, "psi")
        if self.lam == -1.0:
            raise ParamError("lam = -1 is excluded (exponent 1/((1+lam)(1-theta)) undefined)")
        if self.mu == 0.0:
            raise ParamError("mu = 0 degenerates R(k) to lam*k; use a Cobb-Douglas spec instead")
        if self.theta == 1.0:
            raise ParamError("theta = 1 degenerates R(k) to a linear function; "
                             "use a Cobb-Douglas spec instead")
        lam1, eb = 1.0 + self.lam, 1.0 - self.theta
        _setattr(self, "_lam1", lam1)
        _setattr(self, "_eb", eb)
        _setattr(self, "_expo", 1.0 / (lam1 * eb))
        _setattr(self, "_e", self.theta - 1.0)
        _setattr(self, "_eds", self.theta - 2.0)
        _setattr(self, "_tm", self.theta * self.mu)
        try:
            _setattr(self, "_dsnum", -self.lam * self.mu * (self.theta - 1.0) ** 2)
        except OverflowError:
            pass

    def _bracket(self, k: float) -> float:
        return self._lam1 * k ** self._eb + self.mu

    def _y(self, k: float) -> float:
        if not (base := self._bracket(k)) > 0.0:
            self._non_positive(k, base)
        return self.psi * base ** self._expo

    def _F(self, K: float, L: float) -> float:
        lam1, eb = self._lam1, self._eb
        base = lam1 * K ** eb * L ** (self.lam * eb) + self.mu * L ** (lam1 * eb)
        if not base > 0.0:
            raise DomainError(
                f"VESParams: bracketed base is non-positive at K/L = {K / L:.12g}")
        return self.psi * base ** self._expo

    def _dy(self, k: float) -> float:
        if not (base := self._bracket(k)) > 0.0:
            self._non_positive(k, base)
        return self.psi * k ** (-self.theta) * base ** (self._expo - 1.0)

    def _d2y(self, k: float) -> float:
        if not (base := self._bracket(k)) > 0.0:
            self._non_positive(k, base)
        return (-self.psi * k ** (-self.theta - 1.0) * base ** (self._expo - 2.0)
                * (self.lam * k ** self._eb + self._tm))

    def _R(self, k: float) -> float:
        return self.lam * k + self.mu * k ** self.theta

    def _dR(self, k: float) -> float:
        return self.lam + self._tm * k ** self._e

    def _sigma(self, k: float) -> float:
        lam = self.lam
        x = k ** self._e
        return (lam + self.mu * x) / (lam + self._tm * x)

    def _dsigma(self, k: float) -> float:
        lam, th = self.lam, self.theta
        if lam == 0.0 and th != 0.0:  # sigma = 1/theta: the formula's signed zero
            return -lam * self.mu
        den = lam + self._tm * k ** self._e
        return self._dsnum * k ** self._eds / den / den

    def _sign_changes(self) -> list[float]:
        # with x = k^(theta-1): bracket k^(1-theta) ((1+lam) + mu x), R = k (lam + mu x),
        # R' = lam + theta mu x and sigma = (lam + mu x) / (lam + theta mu x)
        lam, mu, lam1 = self.lam, self.mu, self._lam1
        e, tm = self._e, self._tm
        return [*_root(e, lam1, mu), *_root(e, lam, mu), *_root(e, lam, tm),
                *_magnitude(self._eb, lam1), *_magnitude(1.0, lam),
                *_magnitude(self.theta, mu), *_magnitude(e, mu, tm)]


@dataclass(frozen=True)
class CobbDouglasParams(_Family):
    """y = A k^beta with capital share beta in (0, 1)."""

    A: float
    beta: float

    def __post_init__(self) -> None:
        _require_positive(self, "A")
        _require_finite(self, "beta")
        if not 0.0 < self.beta < 1.0:
            raise ParamError(f"beta must lie in (0, 1), got {_quote(self.beta)}")
        _setattr(self, "_r", (1.0 - self.beta) / self.beta)

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
        return self._r * k

    def _dR(self, k: float) -> float:
        return self._r

    def _sigma(self, k: float) -> float:
        return 1.0

    def _dsigma(self, k: float) -> float:
        return 0.0

    def _sign_changes(self) -> list[float]:
        return _magnitude(1.0, self._r)


@dataclass(frozen=True)
class CESParams(_Family):
    """Constant elasticity of substitution ``sigma`` (sigma = 1 excluded:
    that limit is Cobb-Douglas and has its own spec)."""

    gamma: float
    delta: float
    sigma: float

    def __post_init__(self) -> None:
        _require_positive(self, "gamma")
        _require_finite(self, "delta")
        if not 0.0 < self.delta < 1.0:
            raise ParamError(f"delta must lie in (0, 1), got {_quote(self.delta)}")
        _require_positive(self, "sigma")
        if self.sigma == 1.0:
            raise ParamError("sigma = 1 is the Cobb-Douglas limit; use CobbDouglasParams")
        _setattr(self, "_e", (self.sigma - 1.0) / self.sigma)
        _setattr(self, "_ey", self.sigma / (self.sigma - 1.0))
        _setattr(self, "_d1", 1.0 - self.delta)
        _setattr(self, "_dd", (1.0 - self.delta) / self.delta)
        _setattr(self, "_es", 1.0 / self.sigma)
        # (1-delta)/(delta sigma) stays in R': delta sigma can round to 0
        _setattr(self, "_edr", 1.0 / self.sigma - 1.0)

    def _bracket(self, k: float) -> float:
        return self.delta * k ** self._e + self._d1

    def _y(self, k: float) -> float:
        return self.gamma * self._bracket(k) ** self._ey

    def _F(self, K: float, L: float) -> float:
        e = self._e
        base = self.delta * K ** e + self._d1 * L ** e
        return self.gamma * base ** self._ey

    def _dy(self, k: float) -> float:
        s = self.sigma
        base = self._bracket(k)
        return self.gamma * self.delta * k ** (-1.0 / s) * base ** (1.0 / (s - 1.0))

    def _d2y(self, k: float) -> float:
        s = self.sigma
        base = self._bracket(k)
        return (-self.gamma * self.delta * self._d1 / s
                * k ** (-1.0 / s - 1.0) * base ** ((2.0 - s) / (s - 1.0)))

    def _R(self, k: float) -> float:
        return self._dd * k ** self._es

    def _dR(self, k: float) -> float:
        return self._d1 / (self.delta * self.sigma) * k ** self._edr

    def _sigma(self, k: float) -> float:
        return self.sigma

    def _dsigma(self, k: float) -> float:
        return 0.0

    def _sign_changes(self) -> list[float]:
        s, d = self.sigma, self.delta
        cuts = [*_magnitude(self._e, d), *_magnitude(self._es, self._dd)]
        if d * s != 0.0:  # else R' divides by zero at every k
            cuts += _magnitude(self._edr, self._d1 / (d * s))
        return cuts


class _WageForm(_Family):
    """Closed forms of the wage-relation function,
    y = A [m k^((b-1)/b) + n k^(-c/b)]^(b/(b-1)) with n = (b-1)/(b+c-1) and
    A = a^(1/(1-b)), and its R, R', sigma' as rational functions of
    k^((b+c-1)/b) in the Liu-Hildebrand constant xi.

    Construction stores n, A, the exponents and the products of b and c, and
    subclasses m, xi and the products of xi from their own integration
    constant; A and the numerator of sigma' (through s^2) may overflow where the
    bracket is finite.
    """

    _A = _dsnum = _Overflowed()

    def __post_init__(self) -> None:
        _require_positive(self, "a")
        _require_positive(self, "b")
        if self.b == 1.0:
            raise ParamError("b = 1 is a singular branch of the wage closed form")
        _require_finite(self, "c")
        if self.c < 0.0:
            raise ParamError(f"c must be non-negative, got {_quote(self.c)}")
        if self.b + self.c == 1.0:
            raise ParamError("b + c = 1 is excluded: the integration step divides by b + c - 1")
        b, c = self.b, self.c
        _setattr(self, "_n", (b - 1.0) / (b + c - 1.0))
        _setattr(self, "_e", (b + c - 1.0) / b)
        _setattr(self, "_eb", (b - 1.0) / b)
        _setattr(self, "_ec", -c / b)
        _setattr(self, "_ed", -(c + 1.0) / b)
        _setattr(self, "_ey", b / (b - 1.0))
        _setattr(self, "_bc", b * c)
        _setattr(self, "_bbc", b * b * c)
        _setattr(self, "_nbs", -b * (b + c - 1.0))
        _setattr(self, "_ns", -(b + c - 1.0))
        try:
            _setattr(self, "_A", self.a ** (1.0 / (1.0 - b)))
        except OverflowError:
            pass

    def _set_xi(self, m: float, xi: float) -> None:
        """Store m, xi and the products of xi that R, R', sigma and sigma' read,
        each in the order its formula multiplies: with s = b+c-1, c1 = xi(1-b)s,
        c2 = xi(1-b)(1-c)s for R', c1 (1-c) for sigma and c1 b c s^2 for sigma'."""
        b, c = self.b, self.c
        s = b + c - 1.0
        c1 = xi * (1.0 - b) * s
        _setattr(self, "_m", m)
        _setattr(self, "_xi", xi)
        _setattr(self, "_c1", c1)
        _setattr(self, "_c2", xi * (1.0 - b) * (1.0 - c) * s)
        _setattr(self, "_c2_sigma", c1 * (1.0 - c))
        try:
            _setattr(self, "_dsnum", c1 * b * c * s ** 2)
        except OverflowError:
            pass

    def _bracket(self, k: float) -> float:
        return self._m * k ** self._eb + self._n * k ** self._ec

    def _y(self, k: float) -> float:
        if not (base := self._bracket(k)) > 0.0:
            self._non_positive(k, base)
        return self._A * base ** self._ey

    def _F(self, K: float, L: float) -> float:
        m, n, A = self._m, self._n, self._A
        base = m * K ** self._eb + n * K ** self._ec * L ** self._e
        if not base > 0.0:
            raise DomainError(
                f"{type(self).__name__}: bracketed base is non-positive at K/L = {K / L:.12g}")
        return A * base ** self._ey

    def _dS(self, k: float) -> float:
        """S', the derivative of the bracket S = m k^((b-1)/b) + n k^(-c/b)."""
        m, n, b, c = self._m, self._n, self.b, self.c
        return m * (b - 1.0) / b * k ** (-1.0 / b) - n * c / b * k ** (-(b + c) / b)

    def _dy(self, k: float) -> float:
        if not (base := self._bracket(k)) > 0.0:
            self._non_positive(k, base)
        A, b, Sp = self._A, self.b, self._dS(k)
        return A * b / (b - 1.0) * base ** (1.0 / (b - 1.0)) * Sp

    def _d2y(self, k: float) -> float:
        if not (base := self._bracket(k)) > 0.0:
            self._non_positive(k, base)
        A, b, Sp = self._A, self.b, self._dS(k)
        m, n, c = self._m, self._n, self.c
        Spp = (-m * (b - 1.0) / b ** 2 * k ** (-(1.0 + b) / b)
               + n * c * (b + c) / b ** 2 * k ** (-(2.0 * b + c) / b))
        return A * b / (b - 1.0) * (base ** ((2.0 - b) / (b - 1.0)) * Sp ** 2 / (b - 1.0)
                                    + base ** (1.0 / (b - 1.0)) * Spp)

    def _R(self, k: float) -> float:
        den = self._c1 * k ** self._e + self._bc
        return self._nbs * k / den

    def _dR(self, k: float) -> float:
        x = k ** self._e
        den = self._c1 * x + self._bc
        num = self._c2 * x + self._bbc
        return self._ns * num / den / den

    def _sigma(self, k: float) -> float:
        x = k ** self._e
        den = self._c2_sigma * x + self._bbc
        num = self._c1 * x + self._bc
        return self.b * num / den

    def _dsigma(self, k: float) -> float:
        if self._xi == 0.0 and self.c > 0.0:  # sigma = 1: the formula's signed zero
            return self._c1 * self.b * self.c
        den = self._c2_sigma * k ** self._eb + self._bbc * k ** self._ec
        return self._dsnum * k ** self._ed / den / den

    def _sign_changes(self) -> list[float]:
        # with x = k^((b+c-1)/b) and s = b+c-1: bracket k^(-c/b) (m x + n),
        # R = -b s k / D1, R' = -s D2 / D1^2 and sigma = b D1 / D2, where
        # D1 = c1 x + bc and D2 = c2 x + b^2 c
        b, c = self.b, self.c
        try:
            m, c1, c2 = self._m, self._c1, self._c2
        except OverflowError:  # then every condition fails at every k
            return []
        s = b + c - 1.0
        e, n, bc, bbc = self._e, self._n, self._bc, self._bbc
        cuts = [*_root(e, n, m), *_root(e, bc, c1), *_root(e, bbc, c2),
                *_magnitude(self._eb, m), *_magnitude(self._ec, n),
                *_magnitude(e, c1, c2, b * c1), *_magnitude(1.0, b * s)]
        # a quotient overflows or rounds to 0 where the ratio of its leading
        # terms does: every numerator term over every denominator term
        numerators = ((self._nbs, 1.0), (-s * c2, e), (-s * b * b * c, 0.0), (b * c1, e),
                      (bbc, 0.0))
        denominators = ((bc, 0.0), (c1, e), (bbc, 0.0), (c2, e))
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
        _require_finite(self, "xi")
        self._set_xi(self.xi * (self.b - 1.0) / self.b, self.xi)


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

    _m = _xi = _c1 = _c2 = _c2_sigma = _bca = _Overflowed()

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_finite(self, "zeta")
        a, b, c, zeta = self.a, self.b, self.c, self.zeta
        _setattr(self, "_zc", zeta * (1.0 - c) * (1.0 - b - c))
        _setattr(self, "_zb", zeta * b * (1.0 - b - c))
        try:  # sigma reads no xi: it stays finite where a^(1/b) overflows
            _setattr(self, "_bca", b * c * a ** (-1.0 / b))
        except OverflowError:
            pass
        try:
            a_1b = a ** (1.0 / b)
        except OverflowError:
            return
        self._set_xi(zeta * a_1b, zeta * b * a_1b / (b - 1.0))

    def _sigma(self, k: float) -> float:
        u = k ** self._eb
        v = self._bca * k ** self._ec
        den = self._zc * u + v
        num = self._zb * u + v
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
        _require_positive(self, "gamma")
        _require_finite(self, "delta")
        if not 0.0 < self.delta < 1.0:
            raise ParamError(f"delta must lie in (0, 1), got {_quote(self.delta)}")
        _require_finite(self, "rho")
        dr = self.delta * self.rho
        if not 0.0 <= dr <= 1.0:
            raise ParamError(f"delta*rho must lie in [0, 1], got {_quote(dr)}")
        _require_positive(self, "alpha")
        r1, dr1 = self.rho - 1.0, 1.0 - dr
        _setattr(self, "_dr", dr)
        _setattr(self, "_r1", r1)
        # (rho-1)/(1-delta rho) stays in sigma and sigma': delta rho can be 1
        _setattr(self, "_dr1", dr1)
        _setattr(self, "_bound", math.inf if self.rho >= 1.0 else dr1 / (1.0 - self.rho))
        _setattr(self, "_a1", self.alpha * dr1)
        _setattr(self, "_adr", self.alpha * dr)

    def k_upper_bound(self) -> float:
        """Upper end of the admissible k range (inf when rho >= 1)."""
        return self._bound

    def _check_domain(self, k: float, degree_one: bool = False) -> None:
        """Reject k outside the admissible range; with ``degree_one`` (the
        substitution formulas R, R', sigma, sigma') first require alpha = 1."""
        if degree_one and self.alpha != 1.0:
            raise ParamError("substitution formulas assume degree one; "
                             f"alpha = {_quote(self.alpha)} is not supported here")
        bound = self._bound
        if k >= bound:
            raise DomainError(
                f"SatoHoffmanParams: k = {k:.12g} is outside the admissible range "
                f"k < {bound:.12g} for rho = {self.rho:.12g}")

    def _bracket(self, k: float) -> float:
        # (1 - delta*rho) + (rho - 1) k: positive exactly on the admissible
        # k range for rho < 1, and everywhere for rho >= 1.
        return self._dr1 + self._r1 * k

    def _y(self, k: float) -> float:
        self._check_domain(k)
        G = 1.0 + self._r1 * k
        return self.gamma * k ** self._a1 * G ** self._adr

    def _F(self, K: float, L: float) -> float:
        self._check_domain(K / L)
        inner = L + self._r1 * K
        return self.gamma * K ** self._a1 * inner ** self._adr

    def _log_slope(self, k: float) -> tuple[float, float]:
        """G = 1 + (rho-1) k and the log-slope g = y'/y."""
        dr = self._dr
        G = 1.0 + self._r1 * k
        return G, self.alpha * (self._dr1 / k + dr * self._r1 / G)

    def _dy(self, k: float) -> float:
        return self._y(k) * self._log_slope(k)[1]

    def _d2y(self, k: float) -> float:
        y = self._y(k)
        dr = self._dr
        G, g = self._log_slope(k)
        gp = self.alpha * (-self._dr1 / k ** 2 - dr * self._r1 ** 2 / G ** 2)
        return y * (g * g + gp)

    def _R(self, k: float) -> float:
        self._check_domain(k, degree_one=True)
        return self._dr * k / self._bracket(k)

    def _dR(self, k: float) -> float:
        self._check_domain(k, degree_one=True)
        D = self._bracket(k)
        return self._dr * self._dr1 / (D * D)

    def _sigma(self, k: float) -> float:
        self._check_domain(k, degree_one=True)
        return 1.0 + self._r1 / self._dr1 * k

    def _dsigma(self, k: float) -> float:
        self._check_domain(k, degree_one=True)
        return self._r1 / self._dr1

    def _sign_changes(self) -> list[float]:
        # the domain bound (1 - delta rho)/(1 - rho), where the bracket and sigma
        # vanish; R = dr k / D and R' = dr (1 - dr) / D^2 with D the bracket
        dr, r = self._dr, self._r1
        cuts = [*_root(1.0, self._dr1, r), *_magnitude(1.0, dr)]
        if r * r != 0.0:  # else D^2 < (1.5e-162 k)^2 stays inside the double range
            cuts += _magnitude(2.0, r * r, dr * self._dr1 / (r * r))
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
    is given: the public kernels' one error boundary.  The five kernels a
    trajectory row calls return the finite value at a positive finite float
    k on a family spec from one call, and hand every other input here to
    recompute; the others call it directly.

    Rejects a non-family spec with TypeError and admits k (or K and L)
    once, as the float nearest it.  It is the one place that says what a
    floating-point failure in a closed form means: an overflowing power
    raises DomainError; a division by zero (a pole, or a term that rounded
    to 0) and a result that is not finite raise SingularError.  Only
    ``_bracket``, of which just the sign matters, may return +-inf
    (Cobb-Douglas has none: inf).
    """
    if not isinstance(spec, _Family):
        raise TypeError(f"unsupported family spec: {type(spec).__name__}")
    try:
        if L is None:
            k = _require_in_domain("capital-labor ratio", k)
            value = getattr(spec, method)(k)
        else:
            k = _require_in_domain("capital input", k)
            L = _require_in_domain("labor input", L)
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


class _GridFailed(Exception):
    """A grid of k whose points take both sides of a branch, or give a value that is not finite."""


@functools.cache
def _grid_type() -> type:
    """The grid-of-k type, built on first use so that importing families loads
    no numpy: one float64 ndarray of the points, ``a``, whose every operator a
    closed form uses applies its ufunc to plain arrays and wraps the result,
    so that no ufunc pays for an ndarray subclass.  Its ``**`` is
    ``np.float_power`` (libm's ``pow``, as Python's float ``**`` is;
    ``np.power`` is not) and its six comparisons are pointwise; numpy defers
    every operator to it (``__array_ufunc__ = None``), so a ufunc applied to
    the grid itself raises TypeError.  Its truth value is the common truth of
    its points (mixed truth raises :class:`_GridFailed`), and it formats as
    its points do, so that an error message about it builds."""
    import numpy as np

    class _Grid:
        __slots__ = ("a",)
        __array_ufunc__ = None
        __hash__ = None  # its == is pointwise

        def __init__(self, a) -> None:
            self.a = a

        def __neg__(self) -> "_Grid":
            return _Grid(np.negative(self.a))

        def __abs__(self) -> "_Grid":
            return _Grid(np.absolute(self.a))

        def __bool__(self) -> bool:
            true_points = np.count_nonzero(self.a)
            if true_points == self.a.size:
                return True
            if true_points:
                raise _GridFailed
            return False

        def __format__(self, spec: str) -> str:
            return ", ".join(format(k, spec) for k in self.a.tolist())

    def forward(ufunc):
        def apply(grid, other):
            return _Grid(ufunc(grid.a, other.a if type(other) is _Grid else other))
        return apply

    def reflected(ufunc):
        def apply(grid, other):  # never a grid: a grid on the left takes forward
            return _Grid(ufunc(other, grid.a))
        return apply

    for name, ufunc in (("add", np.add), ("sub", np.subtract), ("mul", np.multiply),
                        ("truediv", np.divide)):
        setattr(_Grid, f"__{name}__", forward(ufunc))
        setattr(_Grid, f"__r{name}__", reflected(ufunc))
    # no __rpow__: no closed form raises a number to a power of k
    for name, ufunc in (("pow", np.float_power), ("lt", np.less), ("le", np.less_equal),
                        ("eq", np.equal), ("ne", np.not_equal), ("gt", np.greater),
                        ("ge", np.greater_equal)):
        setattr(_Grid, f"__{name}__", forward(ufunc))
    return _Grid


def _on_grid(spec: FamilySpec, method: str, *arrays):
    """``spec.<method>`` at every point of the float64 arrays of k ``arrays``
    (the grid pass's k, or arithmetic on it; all of one length) from one call
    of the unchanged method over one grid of them all: one row of values per
    array, in order, each the kernel's value at each point, bit for bit.  It
    raises where the kernel could fail at a point: under :func:`_grid_pass`'s
    errstate, the method's ArithmeticError (FloatingPointError where an
    operation overflowed, divided by zero or was invalid) or VesprodError, and
    :class:`_GridFailed` for a branch that the points do not all take or a
    value that is not finite (for the bracket: NaN)."""
    import numpy as np
    grid = _grid_type()
    ks = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    value = getattr(spec, method)(grid(ks))
    # a constant method (Cobb-Douglas sigma, say) returns one float for all points
    values = value.a if type(value) is grid else np.full(ks.shape, value)
    if (np.count_nonzero(np.isnan(values)) if method == "_bracket"
            else np.count_nonzero(np.isfinite(values)) != values.size):
        raise _GridFailed
    return (values,) if len(arrays) == 1 else values.reshape(len(arrays), -1)


def _grid_pass(run: Callable, points: list[float], *specs: FamilySpec):
    """The grid pass: ``run(k, _on_grid)``, k the float64 array of the points,
    under ``np.errstate(over/divide/invalid="raise")``.  None where numpy is
    not loaded (a one-shot check would pay its import for nothing), a spec is
    no family spec (which the kernels reject), or ``run`` raises ArithmeticError,
    VesprodError or :class:`_GridFailed`: then the caller's scalar loop, which
    names the failure, runs.  Any other exception goes through."""
    if "numpy" not in sys.modules or not all(isinstance(spec, _Family) for spec in specs):
        return None
    import numpy as np
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return run(np.array(points, dtype=float), _on_grid)
    except (ArithmeticError, VesprodError, _GridFailed):
        return None


def bracket_base(spec: FamilySpec, k: float) -> float:
    """Bracketed base of the closed form at k.  Its positivity is the
    evaluability condition; validity analysis intersects it with R > 0,
    R' > 0 and sigma > 0.  Cobb-Douglas has none and returns inf."""
    return _evaluate(spec, "_bracket", k)


def eval_intensive(spec: FamilySpec, k: float) -> float:
    """Output per worker y(k) at capital-labor ratio k."""
    if type(k) is float and 0.0 < k < inf and isinstance(spec, _Family):
        try:
            if isfinite(value := spec._y(k)):
                return value
        except ArithmeticError:
            pass
    return _evaluate(spec, "_y", k)


def mrs_closed(spec: FamilySpec, k: float) -> float:
    """R(k) = y/y' - k from the family's closed form."""
    if type(k) is float and 0.0 < k < inf and isinstance(spec, _Family):
        try:
            if isfinite(value := spec._R(k)):
                return value
        except ArithmeticError:
            pass
    return _evaluate(spec, "_R", k)


def mrs_derivative_closed(spec: FamilySpec, k: float) -> float:
    """dR/dk from the family's closed form."""
    if type(k) is float and 0.0 < k < inf and isinstance(spec, _Family):
        try:
            if isfinite(value := spec._dR(k)):
                return value
        except ArithmeticError:
            pass
    return _evaluate(spec, "_dR", k)


def sigma_closed(spec: FamilySpec, k: float) -> float:
    """sigma(k) from the family's closed form."""
    if type(k) is float and 0.0 < k < inf and isinstance(spec, _Family):
        try:
            if isfinite(value := spec._sigma(k)):
                return value
        except ArithmeticError:
            pass
    return _evaluate(spec, "_sigma", k)


def sigma_derivative_closed(spec: FamilySpec, k: float) -> float:
    """d sigma / dk from the family's closed form."""
    if type(k) is float and 0.0 < k < inf and isinstance(spec, _Family):
        try:
            if isfinite(value := spec._dsigma(k)):
                return value
        except ArithmeticError:
            pass
    return _evaluate(spec, "_dsigma", k)


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
    """Whether value, or every float in a tuple of them, is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    return not isinstance(value, tuple) or all(map(_finite, value))


def _parameter_space(fn):
    """The error boundary of the parameter-space functions: an overflow, a division by zero or a
    non-finite float (a result, tuple item or _construct value) is SingularError naming the call."""
    @functools.wraps(fn)
    def bounded(*args, **kwargs):
        try:
            result = fn(*args, **kwargs)
            if not _finite(result):
                raise FloatingPointError
            return result
        except FloatingPointError:  # also from _construct
            what = "the result is not finite"
        except OverflowError:
            what = "a power overflows, so it has no finite value"
        except ZeroDivisionError:
            what = "a term divides by zero"
        given = [*map(_quote, args), *(f"{name}={_quote(v)}" for name, v in kwargs.items())]
        raise SingularError(f"{fn.__name__}({', '.join(given)}): {what}")
    return bounded


def _construct(make, **values):
    """``make(**values)``, or FloatingPointError (a result not finite) where a value is not:
    a parameter map names no field its caller never gave."""
    if not _finite(tuple(values.values())):
        raise FloatingPointError
    return make(**values)


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
    # a > 0 and xi != 0, so a zero is an underflow
    if psi == 0.0:
        raise SingularError(f"a = {_quote(p.a)}, b = {_quote(b)}: a^(1/(1-b)) underflows to 0, "
                            "so psi has no positive value")
    if mu == 0.0:
        raise SingularError(f"a = {_quote(p.a)}, b = {_quote(b)}, xi = {_quote(xi)}: "
                            "xi (b-1) a^(1/b) / b underflows to 0, so mu has no nonzero value")
    lam = (c - 1.0) / (b - c)
    try:
        return _construct(VESParams, lam=lam, mu=mu, theta=c / b, psi=psi)
    except ParamError:
        if lam != -1.0:
            raise
    # b != 1, so lam = -1 only by rounding, which a c far above b does
    raise SingularError(f"b = {_quote(b)}, c = {_quote(c)}: (c-1)/(b-c) rounds to -1, "
                        "so lam has no admissible value")


@_parameter_space
def loglinear_from_ves(v: VESParams) -> LogLinearParams:
    """Invert :func:`ves_from_loglinear`.  Requires lam*(theta-1) + theta != 0,
    and the image must satisfy the regression-space sign restrictions
    (a > 0, b > 0, c > 0); structural parameters outside that image raise
    :class:`ParamError`.  A power of psi or a past the double range (or
    psi^(1-b) rounding to 0), and b rounding to 1, raise
    :class:`SingularError`."""
    _require_type(v, VESParams)
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
        raise SingularError(f"psi = {_quote(v.psi)}, b = {_quote(b)}: psi^(1-b) underflows "
                            "to 0, so it has no positive value")
    p = _construct(LogLinearParams, a=a, b=b, c=c)
    return _construct(p.with_xi, xi=v.mu * b * a ** (-1.0 / b) / (b - 1.0))


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
    return _construct(LuFletcherParams, a=p.a, b=p.b, c=p.c, zeta=zeta)


def _gamma_delta(p: LogLinearParams, q: float) -> tuple[float, float]:
    """(gamma, delta) of :func:`symmetric_form` from the first term q of the
    defining base q + xi (b-1)/b = gamma^((b-1)/b), with delta = q / base."""
    b = p.b
    base = q + p.require_xi() * (b - 1.0) / b
    if not base > 0.0:
        raise DomainError(f"symmetric form undefined: the defining base is {base:.6g} <= 0")
    gamma = base ** (b / (b - 1.0))
    if gamma == 0.0:
        raise SingularError(f"symmetric form: gamma = base^(b/(b-1)) underflows to 0 "
                            f"(base = {base:.6g}, b = {_quote(b)})")
    return gamma, q / base


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
    _require_type(p, LogLinearParams)
    tolerance = _nearest_float(tol)
    if not tolerance >= 0.0:
        raise ParamError(f"tol must be a non-negative float, got {_quote(tol)}")
    if abs(p.b) <= tolerance:
        if 0.0 < p.c < 1.0:
            return CobbDouglasParams(A=p.a, beta=p.c)
        return p
    if abs(p.c - 1.0) <= tolerance:
        try:
            gamma, delta = _gamma_delta(p, p.a ** (-1.0 / p.b))
            return CESParams(gamma=gamma, delta=delta, sigma=p.b)
        except (VesprodError, ArithmeticError):
            return p
    return p
