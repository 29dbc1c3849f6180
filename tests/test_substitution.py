import contextlib
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    fd_derivative,
    fd_mrs,
    fd_sigma,
    relerr,
    rental_mrs,
)
import vesprod.substitution as substitution
from vesprod import (
    CESParams,
    CobbDouglasParams,
    DomainError,
    LiuHildebrandParams,
    LogLinearParams,
    LuFletcherParams,
    Monotonicity,
    ParamError,
    RegimeCase,
    RegimeReport,
    SatoHoffmanParams,
    ShareError,
    SingularError,
    VESParams,
    VesprodError,
    bracket_base,
    classify_regime,
    eval_intensive,
    intensive_derivative,
    lf_from_lh,
    lh_from_loglinear,
    loglinear_from_ves,
    mrs_closed,
    mrs_derivative_closed,
    reduce_special_case,
    regression_closed_form,
    sigma_closed,
    sigma_derivative_closed,
    sigma_from_mrs,
    sigma_from_shares,
    trajectory,
    validity_range,
    ves_from_loglinear,
    violated_constraints,
)
from vesprod.substitution import (
    BOUNDARY_TOL,
    _CONSTRAINTS,
    ValidityInterval,
    _bisect_boundary,
    _grid_point,
    _log_grid,
)
from test_families import _NEAR_FLOATS, _OUT_OF_RANGE
from test_families import _outcome as _call_outcome
from test_grid import _ANY, _EXAMPLES, _POSITIVE, _UNIT, _cases

# displayed coefficients the closed forms must reproduce at the reference fit
PRINTED = {
    "exponent": 1.275675,
    "mrs_k_coef": -0.745203,
    "mrs_pow_coef_per_xi": -0.160728,
    "mrs_prime_pow_coef_per_xi": -0.205039,
    "sigma_num_k_coef": 0.179353,
    "sigma_num_pow_coef_per_xi": 0.038683,
    "sigma_den_k_coef": 0.167582,
    "sigma_den_pow_coef_per_xi": 0.046109,
    "sigma_prime_num_coef_per_xi": -0.000460,
}


# ---------------------------------------------------------------------------
# Display coefficients
# ---------------------------------------------------------------------------

def test_regression_closed_form_reference_coefficients(reference_fit):
    cf = regression_closed_form(reference_fit)
    for name, printed in PRINTED.items():
        assert getattr(cf, name) == pytest.approx(printed, abs=5e-6), name


def test_display_form_is_consistent_with_closed_functions(reference_fit, reference_fit_ves):
    cf = regression_closed_form(reference_fit)
    xi = reference_fit.xi
    for k in (2.5, 7.0, 30.0):
        R_display = cf.mrs_k_coef * k + cf.mrs_pow_coef_per_xi * xi * k ** cf.exponent
        assert relerr(R_display, mrs_closed(reference_fit_ves, k)) < 1e-12
        Rp_display = cf.mrs_k_coef \
            + cf.mrs_prime_pow_coef_per_xi * xi * k ** (cf.exponent - 1.0)
        assert relerr(Rp_display, mrs_derivative_closed(reference_fit_ves, k)) < 1e-12
        num = cf.sigma_num_k_coef * k + cf.sigma_num_pow_coef_per_xi * xi * k ** cf.exponent
        den = cf.sigma_den_k_coef * k + cf.sigma_den_pow_coef_per_xi * xi * k ** cf.exponent
        assert relerr(reference_fit.b * num / den, sigma_closed(reference_fit_ves, k)) < 1e-12
        sp_display = cf.sigma_prime_num_coef_per_xi * xi * k ** cf.exponent / den ** 2
        assert relerr(sp_display, sigma_derivative_closed(reference_fit_ves, k)) < 1e-12


def test_regression_closed_form_needs_valid_branch():
    with pytest.raises(ParamError):
        regression_closed_form(LogLinearParams(a=1.0, b=0.7, c=0.7))


def test_regression_closed_form_overflow_is_singular():
    # a^(1/b) = 2^10000 has no double value
    with pytest.raises(SingularError, match="overflows"):
        regression_closed_form(LogLinearParams(a=2.0, b=1e-4, c=0.5))


# ---------------------------------------------------------------------------
# Closed forms vs hand values and the finite-difference oracles
# ---------------------------------------------------------------------------

def test_cobb_douglas_mrs_is_linear():
    cd = CobbDouglasParams(A=1.0, beta=0.25)
    for k in (0.5, 1.0, 10.0):
        assert mrs_closed(cd, k) == pytest.approx(3.0 * k, rel=1e-15)
        assert mrs_derivative_closed(cd, k) == pytest.approx(3.0, rel=1e-15)
    assert sigma_closed(cd, 2.0) == 1.0
    assert sigma_derivative_closed(cd, 2.0) == 0.0


def test_ces_mrs_and_sigma():
    ces = CESParams(gamma=1.0, delta=0.5, sigma=0.5)
    assert mrs_closed(ces, 1.0) == pytest.approx(1.0, rel=1e-15)
    for k in (0.5, 1.0, 4.0):
        assert relerr(mrs_closed(ces, k), fd_mrs(lambda t: eval_intensive(ces, t), k)) < 1e-8
        assert relerr(mrs_derivative_closed(ces, k),
                      fd_derivative(lambda t: mrs_closed(ces, t), k)) < 1e-9
        assert sigma_closed(ces, k) == 0.5
        assert sigma_derivative_closed(ces, k) == 0.0


def test_reference_fit_mrs_matches_eq7(reference_fit, reference_fit_ves):
    y = lambda k: eval_intensive(reference_fit_ves, k)
    for k in (2.5, 5.0, 15.0, 50.0):
        assert relerr(mrs_closed(reference_fit_ves, k), fd_mrs(y, k)) < 1e-8
        # independent regression-space form of R
        assert relerr(mrs_closed(reference_fit_ves, k), rental_mrs(reference_fit, k)) < 1e-12
        # and against the closed-form derivative route (tighter)
        R_exact = y(k) / intensive_derivative(reference_fit_ves, k) - k
        assert relerr(mrs_closed(reference_fit_ves, k), R_exact) < 1e-12


def test_reference_fit_sigma_matches_eq8_oracle(reference_fit_ves):
    y = lambda k: eval_intensive(reference_fit_ves, k)
    for k in (2.5, 4.0, 10.0):
        assert relerr(sigma_closed(reference_fit_ves, k), fd_sigma(y, k)) < 1e-6
    # frozen spot value, derived from the closed form
    assert sigma_closed(reference_fit_ves, 2.5) == pytest.approx(0.1530, abs=2e-4)


def test_constant_sigma_when_c_is_one():
    v = ves_from_loglinear(LogLinearParams(a=1.3, b=0.6, c=1.0, xi=-1.0))
    for k in np.geomspace(0.05, 50.0, 30):
        assert abs(sigma_closed(v, k) - 0.6) < 1e-12
        assert sigma_derivative_closed(v, k) == pytest.approx(0.0, abs=1e-18)


def test_sato_hoffman_affine_sigma():
    sh = SatoHoffmanParams(gamma=1.0, delta=0.5, rho=0.5)
    for k in (0.2, 0.9, 1.4):
        assert sigma_closed(sh, k) == pytest.approx(1.0 - (2.0 / 3.0) * k, rel=1e-14)
        assert sigma_derivative_closed(sh, k) == pytest.approx(-2.0 / 3.0, rel=1e-14)
    with pytest.raises(DomainError):
        sigma_closed(sh, 1.5)
    with pytest.raises(ParamError):
        sigma_closed(SatoHoffmanParams(gamma=1.0, delta=0.5, rho=0.5, alpha=2.0), 1.0)


def test_sato_hoffman_sigma_second_differences_vanish():
    sh = SatoHoffmanParams(gamma=1.2, delta=0.4, rho=0.7)
    ks = np.linspace(0.1, 1.1, 41)
    sig = np.array([sigma_closed(sh, k) for k in ks])
    second = np.diff(sig, 2)
    assert np.max(np.abs(second)) < 1e-9


def test_lh_closed_forms_match_oracles():
    lh = LiuHildebrandParams(a=1.3, b=0.5, c=0.3, xi=-1.0)
    y = lambda k: eval_intensive(lh, k)
    for k in (0.3, 1.0, 5.0):
        assert relerr(mrs_closed(lh, k), fd_mrs(y, k)) < 1e-8
        assert relerr(sigma_closed(lh, k), fd_sigma(y, k)) < 1e-6
        assert relerr(mrs_derivative_closed(lh, k),
                      fd_derivative(lambda t: mrs_closed(lh, t), k)) < 1e-8
        assert relerr(sigma_derivative_closed(lh, k),
                      fd_derivative(lambda t: sigma_closed(lh, t), k)) < 1e-6


def test_lf_closed_forms_match_lh():
    p = LogLinearParams(a=1.3, b=0.5, c=0.3, xi=-1.0)
    lh = LiuHildebrandParams(a=p.a, b=p.b, c=p.c, xi=p.xi)
    lf = lf_from_lh(p)
    for k in (0.3, 1.0, 5.0):
        assert relerr(mrs_closed(lf, k), mrs_closed(lh, k)) < 1e-12
        assert relerr(sigma_closed(lf, k), sigma_closed(lh, k)) < 1e-12
        assert relerr(sigma_derivative_closed(lf, k), sigma_derivative_closed(lh, k)) < 1e-12


def test_sigma_pole_raises_singular():
    # lam*k + theta*mu*k^theta = -2k + 2k^2 vanishes exactly at k = 1
    v = VESParams(lam=-2.0, mu=1.0, theta=2.0, psi=1.0)
    with pytest.raises(SingularError):
        sigma_closed(v, 1.0)
    with pytest.raises(SingularError):
        sigma_derivative_closed(v, 1.0)


# ---------------------------------------------------------------------------
# Share and correction-term forms of sigma
# ---------------------------------------------------------------------------

def test_sigma_from_shares_equals_b_when_c_is_one():
    p = LogLinearParams(a=1.0, b=0.73, c=1.0, xi=-1.0)
    assert sigma_from_shares(p, k=2.0, y=3.0, y_prime=0.5) == pytest.approx(0.73, rel=1e-15)


def test_sigma_from_shares_matches_closed_form(reference_fit, reference_fit_ves):
    for k in (3.0, 8.0, 25.0):
        y = eval_intensive(reference_fit_ves, k)
        yp = intensive_derivative(reference_fit_ves, k)
        assert relerr(sigma_from_shares(reference_fit, k, y, yp),
                      sigma_closed(reference_fit_ves, k)) < 1e-10


def test_sigma_from_shares_violation():
    p = LogLinearParams(a=1.0, b=0.5, c=0.3, xi=-1.0)
    with pytest.raises(ShareError, match="capital share"):
        sigma_from_shares(p, k=2.0, y=1.0, y_prime=0.4)  # c*y - k*y' = -0.5
    with pytest.raises(ShareError):
        sigma_from_shares(p, k=2.0, y=1.0, y_prime=0.6)  # wage share negative


def test_sigma_from_mrs_matches_closed_form(reference_fit, reference_fit_ves):
    for k in (2.5, 6.0, 40.0):
        assert relerr(sigma_from_mrs(reference_fit, k), sigma_closed(reference_fit_ves, k)) < 1e-10


def test_sigma_from_mrs_limits(reference_fit):
    # c > b: correction factor tends to 1/c, sigma to b/c
    sig = sigma_from_mrs(reference_fit, 1e6)
    correction = sig / reference_fit.b
    assert relerr(correction, 1.0 / reference_fit.c) < 0.01
    assert abs(sig - reference_fit.b / reference_fit.c) < 0.005
    # c <= b: sigma tends to 1
    p2 = LogLinearParams(a=1.0, b=0.9, c=0.5, xi=-1.0)
    assert abs(sigma_from_mrs(p2, 1e6) - 1.0) < 0.01


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------

def test_regime_reference_fit(reference_fit_ves):
    report = classify_regime(reference_fit_ves)
    assert report.case_label is RegimeCase.VES_CASE_III
    assert report.sigma_limit == pytest.approx(0.934369 / 1.191951, rel=1e-12)
    assert report.monotonicity is Monotonicity.INCREASING


def test_regime_case_i():
    v = ves_from_loglinear(LogLinearParams(a=1.0, b=0.9, c=0.95, xi=-1.0))
    report = classify_regime(v)
    assert report.case_label is RegimeCase.VES_CASE_I
    assert report.sigma_limit == pytest.approx(0.9 / 0.95, rel=1e-12)
    assert report.monotonicity is Monotonicity.DECREASING


def test_regime_case_ii():
    v = ves_from_loglinear(LogLinearParams(a=1.0, b=0.9, c=0.5, xi=-1.0))
    report = classify_regime(v)
    assert report.case_label is RegimeCase.VES_CASE_II
    assert report.sigma_limit == 1.0
    assert report.monotonicity is Monotonicity.INCREASING


def test_regime_trivial_families():
    r = classify_regime(CESParams(gamma=1.0, delta=0.4, sigma=0.7))
    assert (r.case_label, r.sigma_limit, r.monotonicity) \
        == (RegimeCase.CONSTANT_SIGMA, 0.7, Monotonicity.CONSTANT)
    r = classify_regime(CobbDouglasParams(A=2.0, beta=0.3))
    assert (r.case_label, r.sigma_limit, r.monotonicity) \
        == (RegimeCase.UNIT_SIGMA, 1.0, Monotonicity.CONSTANT)
    r = classify_regime(SatoHoffmanParams(gamma=1.0, delta=0.5, rho=1.0))
    assert (r.case_label, r.sigma_limit) == (RegimeCase.UNIT_SIGMA, 1.0)
    with pytest.raises(ParamError):
        classify_regime(SatoHoffmanParams(gamma=1.0, delta=0.5, rho=0.5))


def test_regime_lh_cases():
    ces_side = classify_regime(LiuHildebrandParams(a=1.3, b=0.5, c=0.7, xi=-1.0))
    assert ces_side.case_label is RegimeCase.LH_CES_LIMIT
    assert ces_side.sigma_limit == pytest.approx(0.5 / 0.3, rel=1e-12)
    assert ces_side.monotonicity is Monotonicity.DECREASING
    cd_side = classify_regime(LiuHildebrandParams(a=1.3, b=0.5, c=0.3, xi=-1.0))
    assert cd_side.case_label is RegimeCase.LH_CD_LIMIT
    assert cd_side.sigma_limit == 1.0
    assert cd_side.monotonicity is Monotonicity.INCREASING
    # c = 0 boundary: constant sigma = b
    const = classify_regime(LiuHildebrandParams(a=1.3, b=0.7, c=0.0, xi=-1.0))
    assert (const.case_label, const.sigma_limit) == (RegimeCase.CONSTANT_SIGMA, 0.7)


def test_regime_lf_matches_lh():
    p = LogLinearParams(a=1.3, b=0.5, c=0.7, xi=-1.0)
    lh = LiuHildebrandParams(a=p.a, b=p.b, c=p.c, xi=p.xi)
    assert classify_regime(lf_from_lh(p)) == classify_regime(lh)


def test_regime_xi_independent_for_lh():
    reports = [classify_regime(LiuHildebrandParams(a=1.3, b=0.5, c=0.7, xi=xi))
               for xi in (-0.5, -4.0)]
    assert reports[0].case_label == reports[1].case_label
    assert reports[0].sigma_limit == reports[1].sigma_limit


def test_regime_of_extreme_parameters():
    # sigma' of these specs nears the ends of the double range (the wage form
    # near k = 1e-3, the VES from k ~ 1 on, where its denominator squared is
    # past it); the regime follows from the parameters alone
    r = classify_regime(LiuHildebrandParams(a=1.0, b=0.01, c=0.5, xi=-1.0))
    assert (r.case_label, r.sigma_limit, r.monotonicity) \
        == (RegimeCase.LH_CD_LIMIT, 1.0, Monotonicity.INCREASING)
    r = classify_regime(VESParams(lam=-0.5, mu=1.0, theta=200.0, psi=1.0))
    assert (r.case_label, r.monotonicity) == (RegimeCase.VES_CASE_III, Monotonicity.INCREASING)
    assert r.sigma_limit == pytest.approx(0.005, rel=1e-12)


def test_regime_of_overflowing_lu_fletcher_constant_is_singular():
    # xi = zeta b a^(1/b) / (b-1) needs 2.39^(1.2e206)
    spec = LuFletcherParams(a=2.387225697911483, b=8.314849275752976e-207,
                            c=1.0858932576444476, zeta=9.668955631133263e-235)
    with pytest.raises(SingularError, match="xi overflows"):
        classify_regime(spec)


def test_regime_of_underflowing_lu_fletcher_constant_is_singular():
    # xi = zeta b a^(1/b) / (b-1) needs (1e-300)^100, which rounds to 0; a zeta of 0
    # is the caller's xi of 0
    with pytest.raises(SingularError, match="LuFletcherParams: the constant xi underflows to 0"):
        classify_regime(LuFletcherParams(a=1e-300, b=0.01, c=0.2, zeta=1.0))
    with pytest.raises(ParamError, match="assumes xi < 0"):
        classify_regime(LuFletcherParams(a=1e-300, b=0.01, c=0.2, zeta=0.0))


def test_loglinear_from_ves_of_an_underflowing_xi_is_singular():
    # xi = mu b a^(-1/b) / (b-1) with a = psi^(1/3) is about -1e-450
    v = VESParams(-0.5, 1e-300, 2.0, 1e300)
    for call in (loglinear_from_ves, classify_regime):
        with pytest.raises(SingularError, match="underflows to 0, so xi has no nonzero value"):
            call(v)


def test_lf_from_lh_of_an_underflowing_zeta_is_singular():
    # zeta = xi (b-1) a^(-1/b) / b is about 1e-330; xi = 0 still gives zeta = 0
    p = LogLinearParams(a=1e150, b=0.5, c=0.2, xi=-1e-30)
    with pytest.raises(SingularError, match="underflows to 0, so zeta has no nonzero value"):
        lf_from_lh(p)
    assert lf_from_lh(p.with_xi(0.0)).zeta == 0.0


#: log-uniform across the positive doubles, subnormals included
_LOG_UNIFORM = st.floats(-745.0, 709.78).map(math.exp).filter(lambda x: x > 0.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=_LOG_UNIFORM, b=st.one_of(st.floats(0.01, 3.0), _LOG_UNIFORM), c=st.floats(0.01, 3.0),
       xi=_LOG_UNIFORM, lam=st.floats(-3.0, 3.0), mu=_LOG_UNIFORM, theta=st.floats(-3.0, 3.0),
       psi=_LOG_UNIFORM, sign=st.sampled_from([-1.0, 1.0]))
@example(a=1e150, b=0.5, c=0.2, xi=1e-30, lam=-0.5, mu=1e-300, theta=2.0, psi=1e300, sign=-1.0)
def test_the_parameter_maps_keep_a_nonzero_constant_nonzero(a, b, c, xi, lam, mu, theta, psi,
                                                            sign):
    # mu, xi and zeta are never 0 in truth: a map gives them a nonzero value or raises
    with contextlib.suppress(VesprodError):
        assert lf_from_lh(LogLinearParams(a, b, c, sign * xi)).zeta != 0.0
    with contextlib.suppress(VesprodError):
        p = loglinear_from_ves(VESParams(lam, sign * mu, theta, psi))
        assert p.xi != 0.0
        try:
            ves_from_loglinear(p)
        except SingularError as exc:
            assert "xi = 0 gives mu = 0" not in str(exc)


def _dispatched_by_type(spec):
    """classify_regime as the type dispatch stated it before each family stated
    its own regime: an isinstance chain over the six families and two
    regression-space helpers, the VES one reading the library's loglinear_from_ves."""

    def rental(b, c, xi):
        if xi >= 0.0:
            raise ParamError("regime analysis assumes xi < 0 (required for R to be "
                             f"positive and increasing on some range); got xi = {xi!r}")
        if b >= 1.0:
            raise ParamError(f"the regime taxonomy assumes b < 1, got b = {b!r}")
        if abs(c - 1.0) <= BOUNDARY_TOL:
            raise ParamError("c = 1 is a case boundary (constant elasticity sigma = b); "
                             "use reduce_special_case(loglinear_from_ves(spec)) first")
        if abs(b - c) <= BOUNDARY_TOL:
            raise ParamError("b = c is a case boundary")
        if b < c < 1.0:
            return RegimeReport(RegimeCase.VES_CASE_I, b / c, Monotonicity.DECREASING)
        if c < b:
            return RegimeReport(RegimeCase.VES_CASE_II, 1.0, Monotonicity.INCREASING)
        return RegimeReport(RegimeCase.VES_CASE_III, b / c, Monotonicity.INCREASING)

    def wage(b, c, xi):
        if xi >= 0.0:
            raise ParamError(f"regime analysis assumes xi < 0; got xi = {xi!r}")
        if not 0.0 < b < 1.0:
            raise ParamError(f"wage-relation regimes are stated for b in (0, 1), got {b!r}")
        if c == 0.0:
            return RegimeReport(RegimeCase.CONSTANT_SIGMA, b, Monotonicity.CONSTANT)
        if c >= 1.0:
            raise ParamError(f"wage-relation regimes are stated for c in (0, 1), got {c!r}")
        if abs(b + c - 1.0) <= BOUNDARY_TOL:
            raise ParamError("b + c = 1 is a case boundary (the marginal rate of "
                             "substitution degenerates)")
        if b + c > 1.0:
            return RegimeReport(RegimeCase.LH_CES_LIMIT, b / (1.0 - c), Monotonicity.DECREASING)
        return RegimeReport(RegimeCase.LH_CD_LIMIT, 1.0, Monotonicity.INCREASING)

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
        return rental(p.b, p.c, p.xi)
    if isinstance(spec, (LiuHildebrandParams, LuFletcherParams)):
        try:
            xi = spec._xi
        except OverflowError as exc:
            raise SingularError(f"{type(spec).__name__}: the constant xi overflows, so it "
                                "has no sign to classify by") from exc
        return wage(spec.b, spec.c, xi)
    raise TypeError(f"unsupported family spec: {type(spec).__name__}")


_ACROSS_TOL = st.floats(-2.0 * BOUNDARY_TOL, 2.0 * BOUNDARY_TOL)


@st.composite
def _regime_inputs(draw):
    """A spec of one of the six families, near the case boundaries b = c, c = 1
    and b + c = 1, with b >= 1, c = 0 or xi >= 0, a Sato-Hoffman rho off 1, a
    Lu-Fletcher constant whose power overflows or rounds to 0; or no spec."""
    kind = draw(st.sampled_from(["ves", "rental", "wage", "cd", "ces", "sh", "none"]))
    try:
        if kind == "ves":
            return VESParams(draw(_ANY), draw(_ANY), draw(_ANY), draw(_POSITIVE))
        if kind == "cd":
            return CobbDouglasParams(draw(_POSITIVE), draw(_UNIT))
        if kind == "ces":
            return CESParams(draw(_POSITIVE), draw(_UNIT), draw(_POSITIVE))
        if kind == "sh":
            delta = draw(st.sampled_from([0.5, 0.25]))
            return SatoHoffmanParams(draw(_POSITIVE), delta,
                                     draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0 / delta))))
        if kind == "none":
            return draw(st.sampled_from([None, 1.0, "ves", LogLinearParams(1.0, 0.5, 0.3, -1.0),
                                         VESParams, object()]))
        a = draw(st.one_of(st.floats(0.05, 3.0), _LOG_UNIFORM))
        b = draw(st.one_of(st.floats(0.01, 0.99), st.floats(1.0, 3.0), st.floats(1e-3, 0.05)))
        c = draw(st.sampled_from([b, 1.0, 1.0 - b, 0.0, None]))
        c = draw(st.floats(0.0, 3.0)) if c is None else c + (c != 0.0) * draw(_ACROSS_TOL)
        xi = draw(st.one_of(st.floats(-5.0, -0.01), st.floats(-5.0, 5.0), _ANY))
        if kind == "rental":
            return ves_from_loglinear(LogLinearParams(a, b, c, xi))
        return draw(st.sampled_from([LiuHildebrandParams, LuFletcherParams]))(a, b, c, xi)
    except VesprodError:
        return CobbDouglasParams(1.0, 0.5)


def _xi_underflowed(spec):
    """Whether a Lu-Fletcher spec's xi rounded to 0 from a nonzero zeta."""
    try:
        return isinstance(spec, LuFletcherParams) and spec._xi == 0.0 != spec.zeta
    except OverflowError:
        return False


@settings(max_examples=400, deadline=None, derandomize=True)
@given(spec=_regime_inputs())
@example(spec=LuFletcherParams(a=2.387225697911483, b=8.314849275752976e-207,
                               c=1.0858932576444476, zeta=9.668955631133263e-235))
@example(spec=LuFletcherParams(a=1e-300, b=0.01, c=0.2, zeta=1.0))
@example(spec=LuFletcherParams(a=1e-300, b=0.01, c=0.2, zeta=0.0))
@example(spec=VESParams(-0.5, 1e-300, 2.0, 1e300))
@example(spec=ves_from_loglinear(LogLinearParams(a=1.0, b=0.5, c=0.5 + 1e-10, xi=-1.0)))
@example(spec=ves_from_loglinear(LogLinearParams(a=1.0, b=0.5, c=1.3, xi=-1.0)))
@example(spec=SatoHoffmanParams(1.0, 0.5, 0.5))
@example(spec=LiuHildebrandParams(a=1.0, b=0.5, c=0.5 + 1e-10, xi=-1.0))
@example(spec=LiuHildebrandParams(a=1.3, b=0.7, c=0.0, xi=-1.0))
@example(spec=VESParams)
def test_classify_regime_equals_the_type_dispatch(spec):
    # each family's _regime says what the isinstance chain said, report for report
    # and error for error, except where a Lu-Fletcher xi rounded to 0
    got = _call_outcome(classify_regime, spec)
    want = _call_outcome(_dispatched_by_type, spec)
    if _xi_underflowed(spec):
        assert got[0] is SingularError and "xi underflows to 0" in got[1], got
        assert want[0] is ParamError, want
    else:
        assert got == want


def test_regime_boundary_and_sign_errors():
    with pytest.raises(ParamError, match="reduce"):
        classify_regime(ves_from_loglinear(LogLinearParams(a=1.0, b=0.6, c=1.0, xi=-1.0)))
    with pytest.raises(ParamError, match="xi"):
        classify_regime(ves_from_loglinear(LogLinearParams(a=1.0, b=0.6, c=1.3, xi=2.0)))
    with pytest.raises(ParamError):
        classify_regime(LiuHildebrandParams(a=1.0, b=0.5, c=0.3, xi=1.0))
    with pytest.raises(ParamError, match="assumes b < 1, got b = 1.4999999999999998"):
        classify_regime(ves_from_loglinear(LogLinearParams(a=1.0, b=1.5, c=0.5, xi=-1.0)))
    with pytest.raises(ParamError, match="b = c is a case boundary"):
        classify_regime(ves_from_loglinear(LogLinearParams(a=1.0, b=0.5, c=0.5 + 1e-10, xi=-1.0)))
    with pytest.raises(ParamError, match=r"stated for b in \(0, 1\), got 1.5"):
        classify_regime(LiuHildebrandParams(a=1.0, b=1.5, c=0.2, xi=-1.0))
    with pytest.raises(ParamError, match=r"stated for c in \(0, 1\), got 1.2"):
        classify_regime(LiuHildebrandParams(a=1.0, b=0.5, c=1.2, xi=-1.0))
    with pytest.raises(ParamError, match=r"b \+ c = 1 is a case boundary"):
        classify_regime(LiuHildebrandParams(a=1.0, b=0.5, c=0.5 + 1e-10, xi=-1.0))


@pytest.mark.parametrize("p, family", [
    (LogLinearParams(a=1.0, b=0.6, c=1.0 + 1e-10, xi=-1.0), ves_from_loglinear),  # c = 1
    (LogLinearParams(a=1.0, b=0.5, c=0.5000000004, xi=-1.0), ves_from_loglinear),  # b = c
    (LogLinearParams(a=1.0, b=0.6, c=0.40000000030000005, xi=-1.0), lh_from_loglinear),
], ids=["c=1", "b=c", "b+c=1"])
def test_a_boundary_error_names_reduce_special_case_only_where_it_collapses(p, family):
    with pytest.raises(ParamError, match="case boundary") as info:
        classify_regime(family(p))
    assert ("reduce_special_case" in str(info.value)) == (reduce_special_case(p) != p)


def test_the_c_equal_1_boundary_names_a_route_a_ves_spec_can_follow():
    # reduce_special_case takes a LogLinearParams, so a VES spec goes there through
    # loglinear_from_ves, and the message says so
    spec = ves_from_loglinear(LogLinearParams(a=1.0, b=0.6, c=1.0, xi=-1.0))
    with pytest.raises(ParamError, match=r"^c = 1 is a case boundary") as info:
        classify_regime(spec)
    assert "reduce_special_case(loglinear_from_ves(spec))" in str(info.value)
    with pytest.raises(TypeError, match="expected LogLinearParams, got VESParams"):
        reduce_special_case(spec)
    assert isinstance(reduce_special_case(loglinear_from_ves(spec)), CESParams)


# ---------------------------------------------------------------------------
# Validity range
# ---------------------------------------------------------------------------

def test_validity_range_reference_fit(reference_fit_ves):
    interval = validity_range(reference_fit_ves, 0.1, 100.0)
    # independent closed root of R(k) = 0: k = (-lam/mu)^(1/(theta-1))
    v = reference_fit_ves
    k_root = (-v.lam / v.mu) ** (1.0 / (v.theta - 1.0))
    assert not interval.is_empty
    assert interval.k_low == pytest.approx(k_root, rel=1e-8)
    assert interval.k_low == pytest.approx(2.078, abs=3e-3)
    assert interval.k_high == 100.0
    assert "R>0" in interval.constraints_active


def test_validity_range_cobb_douglas_is_full_probe():
    interval = validity_range(CobbDouglasParams(A=2.0, beta=0.3), 0.5, 40.0)
    assert (interval.k_low, interval.k_high) == (0.5, 40.0)
    assert interval.constraints_active == ()


def test_validity_range_positive_xi_is_empty(reference_fit):
    v = ves_from_loglinear(reference_fit.with_xi(+3.79))
    interval = validity_range(v, 0.1, 100.0)
    assert interval.is_empty


def test_validity_range_constraints_hold_inside(reference_fit_ves):
    interval = validity_range(reference_fit_ves, 0.1, 100.0)
    lo = interval.k_low * 1.000001
    hi = interval.k_high
    for k in np.geomspace(lo, hi, 64):
        assert mrs_closed(reference_fit_ves, k) > 0.0
        assert mrs_derivative_closed(reference_fit_ves, k) > 0.0
        assert sigma_closed(reference_fit_ves, k) > 0.0


def test_validity_range_case_ii_upper_bound():
    # c < b < 1, xi < 0: R > 0 below its zero, R' > 0 on a smaller prefix
    p = LogLinearParams(a=1.0, b=0.8, c=0.3, xi=-1.0)
    v = ves_from_loglinear(p)
    interval = validity_range(v, 1e-3, 1e3)
    assert not interval.is_empty
    assert interval.k_low == 1e-3
    assert interval.k_high < 1e3
    # R' vanishes at the refined upper endpoint
    assert abs(mrs_derivative_closed(v, interval.k_high)) < 1e-6
    assert "R_prime>0" in interval.constraints_active


def test_mrs_overflow_is_domain_error(reference_fit_ves):
    with pytest.raises(DomainError, match="overflows"):
        mrs_closed(reference_fit_ves, 1e300)


def test_validity_range_treats_overflow_as_violated(reference_fit_ves):
    interval = validity_range(reference_fit_ves, 0.1, 1e300)
    assert interval.k_low == pytest.approx(2.0776000111, rel=1e-10)
    assert interval.k_high < 1e300
    assert "R>0" in interval.constraints_active


def test_validity_range_window_wider_than_double_range(reference_fit_ves):
    # 1e200 / 1e-200 overflows: the probe grid must be built in log space
    narrow = validity_range(reference_fit_ves, 0.1, 1e200)
    wide = validity_range(reference_fit_ves, 1e-200, 1e200)
    assert wide.k_low == pytest.approx(2.0776000111, rel=1e-10)
    assert abs(wide.k_low - narrow.k_low) < 1e-10
    assert wide.k_high == 1e200
    assert wide.constraints_active == ("R>0", "sigma>0")


def _scan_validity_range(spec, k_probe_low, k_probe_high, samples=512):
    """The validity scan as it was before the cut points: every condition at
    every point of the log grid, the longest valid run (the first of equal
    ones), and its ends bisected.  The grid stays inside the window: spaced in
    log space, its ends are the window's own, and a point of the ratio's power
    that rounds past the top end is that end."""
    ratio = k_probe_high / k_probe_low
    if math.isinf(ratio):
        ln_lo = math.log(k_probe_low)
        step = (math.log(k_probe_high) - ln_lo) / (samples - 1)
        grid = [k_probe_low, *(math.exp(ln_lo + i * step) for i in range(1, samples - 1)),
                k_probe_high]
    else:
        grid = [min(k_probe_low * ratio ** (i / (samples - 1)), k_probe_high)
                for i in range(samples)]
    runs = []
    for i, k in enumerate(grid):
        if violated_constraints(spec, k):
            continue
        if runs and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    if not runs:
        return ValidityInterval.empty()
    first, last = max(runs, key=lambda run: run[1] - run[0])
    ends, active = [k_probe_low, k_probe_high], set()
    for side, bad, good in ((0, first - 1, first), (1, last + 1, last)):
        if 0 <= bad < samples:
            ends[side], bad_point = _bisect_boundary(spec, grid[bad], grid[good])
            active.update(violated_constraints(spec, bad_point))
    return ValidityInterval(k_low=ends[0], k_high=ends[1], constraints_active=tuple(
        label for label, _ in _CONSTRAINTS if label in active))


def _outcome(f, spec, lo, hi, samples):
    """The interval as comparable values (NaN endpoints as 'empty'), or the
    type and message of what the call raised."""
    try:
        r = f(spec, lo, hi, samples=samples)
    except Exception as exc:  # both versions must raise the same
        return type(exc), str(exc)
    if r.is_empty:
        return "empty", math.isnan(r.k_low), math.isnan(r.k_high), r.constraints_active
    return r.k_low, r.k_high, r.constraints_active


def _around(draw, k):
    """A window reaching up to 8 decades either side of k > 0."""
    lo = k / 10.0 ** draw(st.floats(0.0, 8.0))
    hi = k * 10.0 ** draw(st.floats(0.0, 8.0))
    return (lo, hi) if 0.0 < lo < hi < math.inf else (1e-3, 1e3)


def _pole(coef_x, const, e):
    """k where coef_x * k^e + const = 0, or 1 when there is none in 1e-300..1e300."""
    if coef_x == 0.0 or const == 0.0 or (coef_x > 0.0) == (const > 0.0):
        return 1.0
    ln_k = (math.log(abs(const)) - math.log(abs(coef_x))) / e
    return math.exp(ln_k) if abs(ln_k) < 690.0 else 1.0


#: the largest double and the one below it
_TOP = st.sampled_from([sys.float_info.max, math.nextafter(sys.float_info.max, 0.0)])


@st.composite
def _validity_cases(draw):
    """(spec, k_probe_low, k_probe_high, samples) over all six families:
    windows anywhere in 1e-300..1e300 (also wider than a double's ratio), up to
    the largest double or the one below it, or around a pole of the wage form or
    the Sato-Hoffman domain bound."""
    family = draw(st.sampled_from(["ves", "lh", "lf", "cd", "ces", "sh"]))
    window = None
    if family == "ves":
        lam = draw(st.one_of(st.just(0.0), st.floats(-5.0, 5.0).filter(lambda x: x != -1.0)))
        mu = draw(st.floats(-5.0, 5.0).filter(lambda x: abs(x) > 1e-6))
        theta = draw(st.one_of(st.floats(-5.0, 5.0), st.floats(-1e4, 1e4))
                     .filter(lambda x: x != 1.0))
        spec = VESParams(lam=lam, mu=mu, theta=theta, psi=draw(st.floats(1e-3, 2.0)))
    elif family in ("lh", "lf"):
        a, b = draw(st.floats(0.1, 10.0)), draw(st.floats(0.01, 3.0).filter(lambda x: x != 1.0))
        c = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)).filter(lambda x: b + x != 1.0))
        const = draw(st.floats(-100.0, 100.0))
        if family == "lh":
            spec, xi = LiuHildebrandParams(a=a, b=b, c=c, xi=const), const
        else:
            spec = LuFletcherParams(a=a, b=b, c=c, zeta=const)
            xi = const * b * a ** (1.0 / b) / (b - 1.0)
        s = b + c - 1.0
        if draw(st.booleans()) and xi != 0.0:
            # next to the pole of R (c1 x + bc = 0) or of sigma (c1 (1-c) x + b^2 c = 0)
            c1 = xi * (1.0 - b) * s
            pole = draw(st.sampled_from([_pole(c1, b * c, s / b),
                                         _pole(c1 * (1.0 - c), b * b * c, s / b)]))
            window = _around(draw, pole)
    elif family == "cd":
        spec = CobbDouglasParams(A=draw(st.floats(1e-3, 1e3)),
                                 beta=draw(st.floats(1e-6, 1.0 - 1e-6)))
    elif family == "ces":
        spec = CESParams(gamma=draw(st.floats(1e-3, 1e3)), delta=draw(st.floats(1e-6, 1.0 - 1e-6)),
                         sigma=draw(st.floats(1e-3, 1e3).filter(lambda x: x != 1.0)))
    else:
        delta = draw(st.floats(0.01, 0.99))
        spec = SatoHoffmanParams(gamma=draw(st.floats(0.1, 10.0)), delta=delta,
                                 rho=draw(st.floats(0.0, 1.0 / delta)))
        if spec.rho < 1.0 and draw(st.booleans()):
            window = _around(draw, spec.k_upper_bound())
    if window is None:
        lo_exp = draw(st.floats(-300.0, 299.0))
        hi_exp = draw(st.floats(lo_exp, 300.0).filter(lambda x: x > lo_exp + 1e-6))
        window = (10.0 ** lo_exp, draw(st.one_of(st.just(10.0 ** hi_exp), _TOP)))
    samples = draw(st.one_of(st.sampled_from([2, 3, 192, 512]), st.integers(2, 600)))
    return spec, *window, samples


_CD = CobbDouglasParams(2.0, 0.4)
_MAX = sys.float_info.max
_REFERENCE_VES = ves_from_loglinear(
    LogLinearParams(a=math.exp(0.773454), b=0.934369, c=1.191951, xi=-3.79))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_validity_cases())
@example(case=(_REFERENCE_VES, 0.1, 1e300, 512))                 # R overflows
@example(case=(VESParams(0.0, 1.0, 2.0, 1.0), 1e-300, 1e3, 512))  # R = k^2 rounds to 0
@example(case=(ves_from_loglinear(LogLinearParams(a=1.0, b=0.8, c=0.3, xi=-1.0)),
               1e-3, 1e3, 512))                                  # R' = 0
@example(case=(VESParams(0.0, 1.0, 2.0, 1.0), 1e-300, 1e300, 192))  # log-space grid
@example(case=(CobbDouglasParams(1.0, 0.5), 1e10, math.nextafter(1e10, math.inf), 512))
@example(case=(VESParams(0.0, 1.0, 1.0001, 1.0), 1e306, 1.79e308, 512))  # top grid bracket
@example(case=(CESParams(1.0, 0.5, 0.999), 1e300, 1.79e308, 512))
@example(case=(_CD, 1e-100, _MAX, 512))  # the log-space grid's last point overflowed
@example(case=(_CD, 7.626391809615954e-161, 5.738776463775494e+269, 3))  # its first fell below lo
@example(case=(_CD, 2.837032942773598, _MAX, 512))  # lo * (hi/lo) rounded to inf
def test_validity_range_equals_the_full_scan(case):
    spec, lo, hi, samples = case
    outcome = _outcome(validity_range, spec, lo, hi, samples)
    assert outcome == _outcome(_scan_validity_range, spec, lo, hi, samples)
    if isinstance(outcome[0], float):
        assert lo <= outcome[0] < outcome[1] <= hi, outcome


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_validity_cases())
@example(case=(_CD, 1e-76, _MAX, 3))
@example(case=(_CD, 7.626391809615954e-161, 5.738776463775494e+269, 3))
@example(case=(_CD, 2.837032942773598, _MAX, 3))
def test_trajectory_rows_lie_inside_the_window(case):
    spec, lo, hi, points = case
    try:
        rows = trajectory(spec, lo, hi, points)
    except VesprodError:
        return
    assert len(rows) == points
    assert all(lo <= row[0] <= hi for row in rows), [row[0] for row in rows]


@pytest.mark.parametrize("lo, hi, k_high", [
    # the last point of the log-space grid, exp(ln hi), overflowed
    (1e-100, _MAX, 1.1984620898837755e+308),
    # lo * (hi/lo) rounded to inf, so the window's top end read as invalid in the bracket
    (2.837032942773598, _MAX, 1.1984620899169617e+308),
])
def test_validity_range_reaches_the_largest_double(lo, hi, k_high):
    # R = 1.5 k overflows from k = _MAX / 1.5 on
    assert validity_range(_CD, lo, hi) == ValidityInterval(lo, k_high, ("R>0",))


def test_an_inner_grid_point_that_leaves_the_window_is_its_end():
    # in 10**300 points from 1e-100 up, exp rounds point 1 below lo and overflows at n - 2
    n = 10 ** 300
    assert [_grid_point(1e-100, _MAX, n, i) for i in (0, 1, n - 2, n - 1)] == [
        1e-100, 1e-100, _MAX, _MAX]


@pytest.mark.parametrize("lo, hi", [
    (7.626391809615954e-161, 5.738776463775494e+269),  # exp(ln lo) rounded below lo
    (1e-76, _MAX),  # exp(ln hi) overflowed
    (2.837032942773598, _MAX),  # k = inf was a DomainError
])
def test_trajectory_ends_are_the_window_or_inside_it(lo, hi):
    ks = [row[0] for row in trajectory(_CD, lo, hi, 3)]
    assert lo == ks[0] < ks[1] < ks[2] <= hi


@pytest.mark.parametrize("spec, lo, hi", [
    (VESParams(0.0, 1.0, 1.0001, 1.0), 1e306, 1.79e308),
    (CESParams(1.0, 0.5, 0.999), 1e300, 1.79e308),
])
def test_validity_range_bisects_the_top_grid_bracket(spec, lo, hi):
    # R overflows between the last two grid points, whose sum is past the double range
    r = validity_range(spec, lo, hi)
    assert r.k_low == lo and lo < r.k_high < hi
    assert r.constraints_active == ("R>0",)


def test_validity_range_counts_infinite_values_as_violated():
    # R = (1-beta)/beta k overflows to +inf from k ~ 1.8e298 on
    spec = CobbDouglasParams(A=1.0, beta=1e-10)
    assert violated_constraints(spec, 1e300) == ("R>0",)
    r = validity_range(spec, 1e290, 1e300)
    assert r.k_high < 1.8e298 and r.constraints_active == ("R>0",)


def test_validity_range_checks_only_next_to_cuts(monkeypatch, reference_fit_ves):
    # the grid points checked are the window's ends and the two around each cut
    # inside it (for the reference fit on [0.1, 100]: two of 512 points each)
    cuts = [c for c in reference_fit_ves._sign_changes() if math.log(0.1) < c < math.log(100.0)]
    assert len(cuts) == 2
    grid = set(substitution._log_grid(0.1, 100.0, 512))
    checked = []

    def counted(spec, k):
        checked.append(k)
        return violated_constraints(spec, k)

    monkeypatch.setattr(substitution, "violated_constraints", counted)
    validity_range(reference_fit_ves, 0.1, 100.0)
    assert len([k for k in checked if k in grid]) == 2 + 2 * len(cuts)


def test_validity_range_without_cuts_bisects_the_grid_index(monkeypatch, reference_fit_ves):
    # with no cut points only the window's ends are checked; they disagree, so
    # bisecting the grid index alone finds where the conditions change
    expected = validity_range(reference_fit_ves, 0.1, 10.0)
    monkeypatch.setattr(VESParams, "_sign_changes", lambda self: [])
    assert validity_range(reference_fit_ves, 0.1, 10.0) == expected
    assert expected.k_low == 2.077600011084373


#: the validity conditions as the public kernels state them
_KERNEL_CONSTRAINTS = (("bracket>0", bracket_base), ("R>0", mrs_closed),
                       ("R_prime>0", mrs_derivative_closed), ("sigma>0", sigma_closed))


def _violated_through_kernels(spec, k):
    """violated_constraints written over the public kernels, whose error boundary
    turns a floating-point failure into DomainError or SingularError."""
    bad = []
    for label, kernel in _KERNEL_CONSTRAINTS:
        try:
            holds = kernel(spec, k) > 0.0
        except (DomainError, SingularError):
            holds = False
        if not holds:
            bad.append(label)
            if kernel is bracket_base:
                break
    return tuple(bad)


def _repr_or_exception(function, spec, k):
    try:
        return repr(function(spec, k))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_cases())
def test_violated_constraints_is_what_the_public_kernels_say(case):
    # for all six families across the double range and around their cut points
    spec, grid = case
    for k in grid:
        assert _repr_or_exception(violated_constraints, spec, k) == _repr_or_exception(
            _violated_through_kernels, spec, k), k


@pytest.mark.parametrize("spec", [
    *dict.fromkeys(spec for spec, _ in _EXAMPLES),
    SatoHoffmanParams(1.0, 0.5, 0.5, alpha=2.0),  # R raises ParamError where the bracket holds
    LogLinearParams(a=1.0, b=0.5, c=0.3, xi=-1.0),  # no family spec
    None,
], ids=repr)
def test_violated_constraints_admits_k_as_the_public_kernels_do(spec):
    # every kind of number, out of range or next to a float, and what is no number
    ks = (*_OUT_OF_RANGE, *_NEAR_FLOATS, 0.5, 1.5, 3.0, -1.5, 0.0, -0.0, 5e-324, 1e308,
          np.float64(1.5), np.float32(0.5), np.int64(2), True, False, "1.5", b"1.5", None)
    for k in ks:
        assert _repr_or_exception(violated_constraints, spec, k) == _repr_or_exception(
            _violated_through_kernels, spec, k), k


def test_clip_outside_the_validity_range_raises():
    message = r"^\[3, 4\] does not intersect the validity range \[1, 2\]$"
    with pytest.raises(DomainError, match=message):
        ValidityInterval(1.0, 2.0, ()).clip(3.0, 4.0)


def test_validity_range_bad_probe():
    with pytest.raises(ParamError):
        validity_range(CobbDouglasParams(A=1.0, beta=0.5), 2.0, 1.0)
    for samples in (2.5, 1):
        with pytest.raises(ParamError, match="samples must be an integer >= 2"):
            validity_range(CobbDouglasParams(A=1.0, beta=0.5), 0.1, 10.0, samples=samples)


# ---------------------------------------------------------------------------
# Trajectory
# ---------------------------------------------------------------------------

def test_trajectory_rows_are_the_kernels_inside_a_binding_end(reference_fit_ves):
    v = reference_fit_ves
    interval = validity_range(v, 0.1, 50.0)
    assert 0.1 < interval.k_low and interval.k_high == 50.0  # R > 0 binds the low end
    grid = _log_grid(interval.k_low * (1.0 + 1e-9), 50.0, 16)
    assert trajectory(v, 0.1, 50.0, 16) == [
        (k, eval_intensive(v, k), mrs_closed(v, k), mrs_derivative_closed(v, k),
         sigma_closed(v, k), sigma_derivative_closed(v, k)) for k in grid]


_POINTS = r"points must be an integer in \[2, 10\*\*6\], got "
_CD_HUGE_A = CobbDouglasParams(A=1e300, beta=0.5)


@pytest.mark.parametrize("args, error, match", [
    ((_CD_HUGE_A, 0.1, 10.0, 1), ParamError, _POINTS + "1"),
    ((_CD_HUGE_A, 0.1, 10.0, 10 ** 6 + 1), ParamError, _POINTS + "1000001"),
    ((_CD_HUGE_A, 0.1, 10.0, 2.0), ParamError, _POINTS + "2.0"),
    # y = 1e300 k^0.5 is finite at k = 1e10 and 1e15, not at 1e20
    ((_CD_HUGE_A, 1e10, 1e30, 5), SingularError, r"y is not finite at k = 1e\+20"),
    # R = k^2 - 2k is positive only from k = 2
    ((VESParams(lam=-2.0, mu=1.0, theta=2.0, psi=1.0), 0.1, 1.0, 8), DomainError,
     "validity interval is empty"),
    # the range ends at 1.50000000004, closer to k_from than the 1e-9 inward step
    ((SatoHoffmanParams(1.0, 0.5, 0.5), 1.49999999925, 3.0, 3), DomainError,
     r"\[1.49999999925, 1.50000000004\] over less than the 1e-9 step"),
])
def test_trajectory_raises_rather_than_return_part_of_the_rows(args, error, match):
    with pytest.raises(error, match=match):
        trajectory(*args)


# ---------------------------------------------------------------------------
# Sign laws and limits
# ---------------------------------------------------------------------------

_MONOTONICITY = {1.0: Monotonicity.INCREASING, -1.0: Monotonicity.DECREASING}


def test_sigma_prime_sign_law_rental(rng):
    checked = 0
    for _ in range(200):
        b = rng.uniform(0.1, 0.9)
        c = rng.uniform(0.1, 2.2)
        if abs(b - c) < 0.02 or abs(c - 1.0) < 0.02:
            continue
        xi = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.3, 4.0)
        p = LogLinearParams(a=math.exp(rng.uniform(-0.7, 0.7)), b=b, c=c, xi=xi)
        v = ves_from_loglinear(p)
        expected = math.copysign(1.0, xi * (1.0 - b) * (1.0 - c) * (c - b))
        for k in np.geomspace(0.2, 20.0, 9):
            try:
                sp = sigma_derivative_closed(v, k)
            except SingularError:
                continue
            assert math.copysign(1.0, sp) == expected
            checked += 1
        if xi < 0.0:
            assert classify_regime(v).monotonicity is _MONOTONICITY[expected]
    assert checked > 1000


def test_sigma_prime_sign_law_wage(rng):
    checked = 0
    for _ in range(200):
        b = rng.uniform(0.1, 0.9)
        c = rng.uniform(0.05, 0.9)
        if abs(b + c - 1.0) < 0.02:
            continue
        xi = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.3, 4.0)
        lh = LiuHildebrandParams(a=math.exp(rng.uniform(-0.7, 0.7)), b=b, c=c, xi=xi)
        expected = math.copysign(1.0, xi * (1.0 - b) * (b + c - 1.0))
        for k in np.geomspace(0.2, 20.0, 9):
            try:
                sp = sigma_derivative_closed(lh, k)
            except SingularError:
                continue
            assert math.copysign(1.0, sp) == expected
            checked += 1
        if xi < 0.0:
            assert classify_regime(lh).monotonicity is _MONOTONICITY[expected]
    assert checked > 1000


def test_sigma_prime_does_not_round_to_zero():
    # den = lam + theta*mu*k^(theta-1) squared is past the double range at k = 10;
    # the 50-digit value is 4.950125e-201
    v = VESParams(lam=-0.5, mu=1.0, theta=200.0, psi=1.0)
    assert sigma_derivative_closed(v, 10.0) == pytest.approx(4.950125e-201, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("spec, k, expected", [
    # sigma = 1/theta with lam = 0; (theta-1)^2 overflows
    (VESParams(lam=0.0, mu=1.0, theta=3e154, psi=1.0), 2.0, -0.0),
    # sigma = 1 with xi = 0; (b+c-1)^2 overflows
    (LiuHildebrandParams(a=1.0, b=0.5, c=2e154, xi=0.0), 2.0, 0.0),
    # where the full formula is finite, the same bits as it
    (VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0), 2.0, -0.0),
    # an int parameter is held as its float: the same -0.0 as the row above
    (VESParams(lam=0, mu=1, theta=2, psi=1), 2.0, -0.0),
    (VESParams(lam=0.0, mu=-1.0, theta=2.0, psi=1.0), 0.5, 0.0),
    (LiuHildebrandParams(a=1.0, b=2.0, c=0.2, xi=0.0), 2.0, -0.0),
])
def test_sigma_prime_of_a_constant_sigma_is_a_signed_zero(spec, k, expected):
    assert struct.pack("<d", sigma_derivative_closed(spec, k)) == struct.pack("<d", expected)


def test_wage_bracket_does_not_use_the_scale_constant():
    # A = a^(1/(1-b)) overflows at a = 1e300; the bracket, R, R' and sigma do not use it
    big = LiuHildebrandParams(a=1e300, b=0.5, c=0.2, xi=-1.0)
    unit = LiuHildebrandParams(a=1.0, b=0.5, c=0.2, xi=-1.0)
    assert bracket_base(big, 1.0) == bracket_base(unit, 1.0) == pytest.approx(8.0 / 3.0)
    assert violated_constraints(big, 1.0) == ()
    assert validity_range(big, 0.1, 10.0) == validity_range(unit, 0.1, 10.0) \
        == ValidityInterval(k_low=0.1, k_high=10.0, constraints_active=())
    with pytest.raises(DomainError, match="overflows"):
        eval_intensive(big, 1.0)


def test_sigma_limits_at_large_k():
    # representatives with fast convergence so k = 1e8 sits at the limit
    cases = [
        (ves_from_loglinear(LogLinearParams(a=1.0, b=0.3, c=0.95, xi=-2.0)), 0.3 / 0.95),
        (ves_from_loglinear(LogLinearParams(a=1.0, b=0.8, c=0.2, xi=-1.0)), 1.0),
        (ves_from_loglinear(LogLinearParams(a=1.0, b=0.5, c=2.0, xi=-1.0)), 0.25),
        (LiuHildebrandParams(a=1.0, b=0.3, c=0.9, xi=-1.0), 0.3 / 0.1),
        (LiuHildebrandParams(a=1.0, b=0.3, c=0.3, xi=-1.0), 1.0),
        (CESParams(gamma=1.0, delta=0.4, sigma=0.7), 0.7),
        (CobbDouglasParams(A=1.0, beta=0.4), 1.0),
    ]
    for spec, limit in cases:
        assert abs(sigma_closed(spec, 1e8) - limit) < 1e-3
        if not isinstance(spec, (CESParams, CobbDouglasParams)):
            report = classify_regime(spec)
            assert report.sigma_limit == pytest.approx(limit, rel=1e-12)


def test_sign_law_consistent_with_finite_differences(rng):
    # spot-check the closed sigma' against a finite difference of sigma
    lh = LiuHildebrandParams(a=1.0, b=0.5, c=0.3, xi=-1.0)
    for k in (0.5, 2.0, 8.0):
        fd = fd_derivative(lambda t: sigma_closed(lh, t), k)
        cl = sigma_derivative_closed(lh, k)
        assert relerr(cl, fd) < 1e-6
        assert cl > 0.0  # xi(1-b)(b+c-1) = (-1)(0.5)(-0.2) > 0
