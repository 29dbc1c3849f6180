import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import (
    fd_derivative,
    fd_second,
    relerr,
    rental_closed_form,
)
from vesprod import (
    CESParams,
    CobbDouglasParams,
    DomainError,
    LiuHildebrandParams,
    LogLinearParams,
    LuFletcherParams,
    ParamError,
    SatoHoffmanParams,
    SingularError,
    VESParams,
    VesprodError,
    bracket_base,
    calibrate_xi,
    eval_extensive,
    eval_intensive,
    intensive_derivative,
    intensive_second_derivative,
    lf_from_lh,
    lh_from_loglinear,
    loglinear_from_ves,
    reduce_special_case,
    regression_closed_form,
    sigma_from_mrs,
    sigma_from_shares,
    symmetric_form,
    ves_from_loglinear,
)
from vesprod.substitution import (
    classify_regime,
    mrs_closed,
    mrs_derivative_closed,
    sigma_closed,
    sigma_derivative_closed,
)

REFERENCE = LogLinearParams(a=math.exp(0.773454), b=0.934369, c=1.191951, xi=-3.79)


# ---------------------------------------------------------------------------
# Intensive form
# ---------------------------------------------------------------------------

def test_ves_intensive_hand_value():
    # psi=1, lam=0, theta=2, mu=1 collapses to y = k/(1+k)
    v = VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0)
    assert eval_intensive(v, 1.0) == pytest.approx(0.5, abs=1e-15)
    for k in (0.25, 1.0, 3.0, 10.0):
        assert relerr(eval_intensive(v, k), k / (1.0 + k)) < 1e-14


def test_ves_intensive_psi_scales_linearly():
    v1 = VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0)
    v2 = VESParams(lam=0.0, mu=1.0, theta=2.0, psi=2.0)
    assert eval_intensive(v2, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert eval_intensive(v2, 3.7) == pytest.approx(2.0 * eval_intensive(v1, 3.7))


@pytest.mark.parametrize("k,expected", [(1.0, 1.0), (4.0, 1.6)])
def test_ces_intensive_hand_values(k, expected):
    # gamma=1, delta=0.5, sigma=0.5: y = [0.5 k^-1 + 0.5]^-1
    ces = CESParams(gamma=1.0, delta=0.5, sigma=0.5)
    assert eval_intensive(ces, k) == pytest.approx(expected, rel=1e-14)


def test_cobb_douglas_intensive():
    cd = CobbDouglasParams(A=2.0, beta=0.4)
    assert eval_intensive(cd, 1.0) == pytest.approx(2.0)
    assert eval_intensive(cd, 8.0) == pytest.approx(2.0 * 8.0 ** 0.4, rel=1e-15)


def test_sato_hoffman_intensive_and_domain():
    sh = SatoHoffmanParams(gamma=1.0, delta=0.5, rho=0.5)
    # bound = (1 - 0.25)/(1 - 0.5) = 1.5
    assert sh.k_upper_bound() == pytest.approx(1.5)
    y = eval_intensive(sh, 1.0)
    assert y == pytest.approx(1.0 ** 0.75 * 0.5 ** 0.25, rel=1e-15)
    with pytest.raises(DomainError):
        eval_intensive(sh, 1.6)
    # unbounded for rho >= 1
    sh2 = SatoHoffmanParams(gamma=1.0, delta=0.4, rho=1.5)
    assert math.isinf(sh2.k_upper_bound())
    assert eval_intensive(sh2, 1e6) > 0.0


def test_ves_bracket_domain_error():
    v = VESParams(lam=0.0, mu=-0.5, theta=2.0, psi=1.0)
    # base = k^-1 - 0.5 <= 0 for k >= 2
    assert eval_intensive(v, 1.0) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        eval_intensive(v, 2.0)
    with pytest.raises(DomainError):
        eval_intensive(v, 3.0)


@pytest.mark.parametrize("bad_k", [0.0, -1.0, math.nan, math.inf])
def test_nonpositive_k_rejected(bad_k):
    with pytest.raises(DomainError):
        eval_intensive(CobbDouglasParams(A=1.0, beta=0.5), bad_k)


@pytest.mark.parametrize("call", [
    lambda s: bracket_base(s, 1.0),
    lambda s: eval_intensive(s, 1.0),
    lambda s: eval_extensive(s, 1.0, 1.0),
    lambda s: intensive_derivative(s, 1.0),
    lambda s: intensive_second_derivative(s, 1.0),
    lambda s: mrs_closed(s, 1.0),
    lambda s: mrs_derivative_closed(s, 1.0),
    lambda s: sigma_closed(s, 1.0),
    lambda s: sigma_derivative_closed(s, 1.0),
    classify_regime,
], ids=["bracket_base", "eval_intensive", "eval_extensive", "intensive_derivative",
        "intensive_second_derivative", "mrs_closed", "mrs_derivative_closed",
        "sigma_closed", "sigma_derivative_closed", "classify_regime"])
def test_kernels_reject_non_family_spec(call):
    with pytest.raises(TypeError, match="unsupported family spec"):
        call(REFERENCE)


_ANY = st.floats(-1e300, 1e300)
_POSITIVE = st.floats(1e-300, 1e300)
_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_RATIO = st.floats(5e-324, 1.79e308)


@st.composite
def _kernel_cases(draw):
    """(spec, k, L): the six families with parameters up to 1e+-300,
    Sato-Hoffman also at delta*rho = 1, and k and L anywhere in the double
    range."""
    family = draw(st.sampled_from(["ves", "cd", "ces", "lh", "lf", "sh"]))
    try:
        if family == "ves":
            spec = VESParams(draw(_ANY), draw(_ANY), draw(_ANY), draw(_POSITIVE))
        elif family == "cd":
            spec = CobbDouglasParams(draw(_POSITIVE), draw(_UNIT))
        elif family == "ces":
            spec = CESParams(draw(_POSITIVE), draw(_UNIT), draw(_POSITIVE))
        elif family in ("lh", "lf"):
            wage_form = LiuHildebrandParams if family == "lh" else LuFletcherParams
            spec = wage_form(draw(_POSITIVE), draw(_POSITIVE), draw(st.floats(0.0, 1e300)),
                             draw(_ANY))
        else:
            delta = draw(st.one_of(_UNIT, st.sampled_from([0.5, 0.25, 0.125])))
            rho = draw(st.one_of(st.floats(0.0, 1.0).map(lambda t: t / delta),
                                 st.just(1.0 / delta)))
            spec = SatoHoffmanParams(draw(_POSITIVE), delta, rho)
    except ParamError:
        reject()
    return spec, draw(_RATIO), draw(_RATIO)


_KERNELS = (bracket_base, eval_intensive, intensive_derivative, intensive_second_derivative,
            mrs_closed, mrs_derivative_closed, sigma_closed, sigma_derivative_closed)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_kernel_cases())
@example(case=(CobbDouglasParams(1e300, 0.5), 1e300, 1.0))             # y overflows to inf
@example(case=(CobbDouglasParams(1e272, 0.3548), 1.38e-118, 1.0))      # y' overflows to inf
@example(case=(SatoHoffmanParams(1.0, 0.5, 2.0), 1.0, 1.0))            # delta*rho = 1
@example(case=(SatoHoffmanParams(1.0, 0.5, 1.5), 2.9e-280, 1.0))       # k**2 rounds to 0 in y''
def test_kernels_return_a_finite_float_or_raise(case):
    spec, k, L = case
    calls = [(kernel, (spec, k)) for kernel in _KERNELS] + [(eval_extensive, (spec, k, L))]
    for kernel, args in calls:
        try:
            value = kernel(*args)
        except VesprodError:
            continue
        assert isinstance(value, float), kernel.__name__
        if kernel is bracket_base:  # only its sign matters: +-inf, but not NaN
            assert not math.isnan(value), kernel.__name__
        else:
            assert math.isfinite(value), kernel.__name__


# ---------------------------------------------------------------------------
# Extensive form and homogeneity
# ---------------------------------------------------------------------------

def _sample_specs():
    return [
        CobbDouglasParams(A=2.0, beta=0.4),
        CESParams(gamma=1.3, delta=0.35, sigma=0.6),
        VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0),
        ves_from_loglinear(REFERENCE),
        LiuHildebrandParams(a=1.3, b=0.5, c=0.3, xi=-1.0),
        lf_from_lh(LogLinearParams(a=1.3, b=0.5, c=0.3, xi=-1.0)),
        SatoHoffmanParams(gamma=1.0, delta=0.5, rho=0.5),
    ]


def test_ves_extensive_hand_value():
    v = VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0)
    assert eval_extensive(v, 2.0, 2.0) == pytest.approx(1.0, rel=1e-14)


def test_extensive_equals_scaled_intensive():
    for spec in _sample_specs():
        for K, L in [(2.0, 2.0), (0.7, 1.9), (1.1, 4.0)]:
            k = K / L
            if isinstance(spec, SatoHoffmanParams) and k >= spec.k_upper_bound():
                continue
            if isinstance(spec, VESParams) and spec.psi > 1000:  # reference-fit scale
                pass
            F = eval_extensive(spec, K, L)
            assert relerr(F, L * eval_intensive(spec, k)) < 1e-12


def test_extensive_at_unit_labor_is_intensive():
    for spec in _sample_specs():
        for k in (0.4, 1.0, 1.3):
            assert relerr(eval_extensive(spec, k, 1.0), eval_intensive(spec, k)) < 1e-12


def test_reference_fit_homogeneity_at_t7(reference_fit_ves):
    t = 7.0
    base = eval_extensive(reference_fit_ves, 2.0799, 1.0)
    assert relerr(eval_extensive(reference_fit_ves, t * 2.0799, t), t * base) < 1e-12


@settings(max_examples=80, deadline=None)
@given(
    t=st.floats(min_value=0.05, max_value=50.0),
    K=st.floats(min_value=0.2, max_value=5.0),
    L=st.floats(min_value=0.2, max_value=5.0),
)
def test_homogeneity_property(t, K, L):
    for spec in _sample_specs():
        if isinstance(spec, SatoHoffmanParams) and K / L >= spec.k_upper_bound():
            continue
        F = eval_extensive(spec, K, L)
        Ft = eval_extensive(spec, t * K, t * L)
        assert abs(Ft - t * F) / (t * F) < 1e-12


def test_sh_alpha_not_one_is_degree_alpha():
    sh = SatoHoffmanParams(gamma=1.0, delta=0.5, rho=0.5, alpha=1.4)
    F = eval_extensive(sh, 0.8, 1.0)
    Ft = eval_extensive(sh, 2.4, 3.0)
    assert relerr(Ft, 3.0 ** 1.4 * F) < 1e-12
    # degree-one identity does not apply
    assert relerr(Ft, 3.0 * F) > 0.1


# ---------------------------------------------------------------------------
# Closed-form derivatives against finite differences
# ---------------------------------------------------------------------------

def test_intensive_derivatives_match_finite_differences():
    cases = [
        (CobbDouglasParams(A=2.0, beta=0.4), [0.5, 1.0, 4.0]),
        (CESParams(gamma=1.3, delta=0.35, sigma=0.6), [0.5, 1.0, 4.0]),
        (ves_from_loglinear(REFERENCE), [2.5, 5.0, 20.0]),
        (LiuHildebrandParams(a=1.3, b=0.5, c=0.3, xi=-1.0), [0.3, 1.0, 5.0]),
        (lf_from_lh(LogLinearParams(a=1.3, b=0.5, c=0.3, xi=-1.0)), [0.3, 1.0, 5.0]),
        (SatoHoffmanParams(gamma=1.0, delta=0.5, rho=0.5), [0.2, 0.7, 1.2]),
        (SatoHoffmanParams(gamma=1.0, delta=0.5, rho=0.5, alpha=1.4), [0.2, 0.7]),
    ]
    for spec, grid in cases:
        y = lambda k: eval_intensive(spec, k)
        for k in grid:
            assert relerr(intensive_derivative(spec, k), fd_derivative(y, k)) < 1e-8
            assert relerr(intensive_second_derivative(spec, k), fd_second(y, k)) < 1e-5


# ---------------------------------------------------------------------------
# Defining-relation residuals: the closed forms satisfy the log-linear
# relations they were integrated from
# ---------------------------------------------------------------------------

def test_wage_relation_residual_is_zero():
    for a, b, c, xi, grid in [
        (1.3, 0.5, 0.3, -1.0, [0.3, 1.0, 5.0]),
        (1.3, 0.5, 0.7, -1.0, [11.0, 15.0, 20.0]),
        (math.exp(0.337698), 0.942627, 0.057061, -1.0, [0.5, 2.0, 8.0]),
    ]:
        lh = LiuHildebrandParams(a=a, b=b, c=c, xi=xi)
        for k in grid:
            y = eval_intensive(lh, k)
            w = y - k * intensive_derivative(lh, k)
            resid = math.log(y) - (math.log(a) + b * math.log(w) + c * math.log(k))
            assert abs(resid) < 1e-8


def test_rental_relation_residual_is_zero(reference_fit, reference_fit_ves):
    for k in (2.5, 4.0, 11.0, 40.0):
        y = eval_intensive(reference_fit_ves, k)
        r = intensive_derivative(reference_fit_ves, k)
        resid = math.log(y) - (math.log(reference_fit.a) + reference_fit.b * math.log(r)
                               + reference_fit.c * math.log(k))
        assert abs(resid) < 1e-8


# ---------------------------------------------------------------------------
# Parameter-space conversions
# ---------------------------------------------------------------------------

def test_ves_from_loglinear_reference_values(reference_fit):
    v = ves_from_loglinear(reference_fit)
    assert v.theta == pytest.approx(1.275675, abs=5e-6)
    assert v.lam == pytest.approx(-0.745203, abs=5e-6)
    # mu = -0.160728 * xi with xi = -3.79
    assert v.mu == pytest.approx(0.609159, abs=5e-6)
    assert v.psi == pytest.approx(reference_fit.a ** (1.0 / (1.0 - reference_fit.b)), rel=1e-14)


def test_ves_from_loglinear_constant_sigma_case():
    p = LogLinearParams(a=1.7, b=0.5, c=1.0, xi=-2.0)
    v = ves_from_loglinear(p)
    assert v.lam == pytest.approx(0.0, abs=1e-15)
    assert v.theta == pytest.approx(2.0, rel=1e-15)


def test_ves_from_loglinear_branch_errors():
    with pytest.raises(ParamError):
        ves_from_loglinear(LogLinearParams(a=1.0, b=0.7, c=0.7, xi=-1.0))
    with pytest.raises(ParamError):
        ves_from_loglinear(LogLinearParams(a=1.0, b=1.0, c=0.5, xi=-1.0))
    with pytest.raises(ParamError):
        ves_from_loglinear(LogLinearParams(a=1.0, b=0.0, c=0.5, xi=-1.0))
    with pytest.raises(ParamError):  # xi unset
        ves_from_loglinear(LogLinearParams(a=1.0, b=0.5, c=0.8))
    with pytest.raises(SingularError):  # xi = 0 degenerates
        ves_from_loglinear(LogLinearParams(a=1.0, b=0.5, c=0.8, xi=0.0))


def test_ves_from_loglinear_overflow_is_singular():
    # a^(1/b) = 2^10000 has no double value
    with pytest.raises(SingularError, match="overflows"):
        ves_from_loglinear(LogLinearParams(a=2.0, b=1e-4, c=0.5, xi=-1.0))


@pytest.mark.parametrize("v", [
    VESParams(lam=0.0, mu=1.0, theta=1e4, psi=0.5),     # b = 1e-4: a^(-1/b)
    VESParams(lam=0.9998, mu=1.0, theta=0.5, psi=0.5),  # b = 1e4: psi^(1-b)
])
def test_loglinear_from_ves_overflow_is_singular(v):
    with pytest.raises(SingularError, match="overflows"):
        loglinear_from_ves(v)


def test_loglinear_from_ves_underflow_is_singular():
    # b = 1e4: psi^(1-b) = 2^-9999 rounds to 0, which is no value of a
    with pytest.raises(SingularError, match=r"psi\^\(1-b\) underflows"):
        loglinear_from_ves(VESParams(lam=0.9998, mu=1.0, theta=0.5, psi=2.0))


def test_loglinear_from_ves_b_rounding_to_one_is_singular():
    # lam*(theta-1) + theta = 1 + (1+lam)(theta-1) rounds to 1
    with pytest.raises(SingularError, match="b = 1"):
        loglinear_from_ves(VESParams(lam=-0.5, mu=1.0, theta=1.0 + 2.0 ** -52, psi=1.0))


def test_loglinear_from_ves_roundtrip_reference(reference_fit):
    back = loglinear_from_ves(ves_from_loglinear(reference_fit))
    assert relerr(back.b, 0.934369) < 1e-10
    assert relerr(back.c, 1.191951) < 1e-10
    assert relerr(back.a, reference_fit.a) < 1e-10
    assert relerr(back.xi, -3.79) < 1e-10


def test_loglinear_from_ves_case_ii_inversion():
    v = VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0)
    p = loglinear_from_ves(v)
    assert p.b == pytest.approx(0.5, rel=1e-14)
    assert p.c == pytest.approx(1.0, rel=1e-14)
    # theta = 1/b for lam = 0 gives c = 1 for any b
    v2 = VESParams(lam=0.0, mu=0.7, theta=1.0 / 0.8, psi=2.0)
    p2 = loglinear_from_ves(v2)
    assert p2.b == pytest.approx(0.8, rel=1e-12)
    assert p2.c == pytest.approx(1.0, rel=1e-12)


def test_loglinear_from_ves_singular():
    # lam*(theta-1) + theta = 0 at lam = 1, theta = 0.5
    with pytest.raises(SingularError):
        loglinear_from_ves(VESParams(lam=1.0, mu=1.0, theta=0.5, psi=1.0))


@settings(max_examples=100, deadline=None)
@given(
    b=st.floats(min_value=0.1, max_value=0.9),
    c=st.floats(min_value=0.1, max_value=2.2),
    ln_a=st.floats(min_value=-1.0, max_value=1.0),
    xi=st.floats(min_value=-4.0, max_value=4.0),
)
def test_conversion_roundtrip_property(b, c, ln_a, xi):
    if abs(b - c) < 1e-3 or abs(xi) < 1e-3:
        return
    p = LogLinearParams(a=math.exp(ln_a), b=b, c=c, xi=xi)
    back = loglinear_from_ves(ves_from_loglinear(p))
    assert relerr(back.a, p.a) < 1e-10
    assert relerr(back.b, p.b) < 1e-10
    assert relerr(back.c, p.c) < 1e-10
    assert relerr(back.xi, p.xi) < 1e-10


def test_lf_from_lh_hand_value():
    p = LogLinearParams(a=1.0, b=0.5, c=0.2, xi=-1.0)
    lf = lf_from_lh(p)
    assert lf.zeta == pytest.approx(1.0, rel=1e-14)
    assert (lf.a, lf.b, lf.c) == (1.0, 0.5, 0.2)


def test_lf_from_lh_zero_maps_to_zero():
    lf = lf_from_lh(LogLinearParams(a=2.0, b=0.5, c=0.2, xi=0.0))
    assert lf.zeta == 0.0


def test_lf_from_lh_wage_fit_pointwise():
    p = LogLinearParams(a=math.exp(0.337698), b=0.942627, c=0.057061, xi=-1.0)
    lh = lh_from_loglinear(p)
    lf = lf_from_lh(p)
    for k in np.geomspace(0.2, 20.0, 25):
        assert relerr(eval_intensive(lh, k), eval_intensive(lf, k)) < 1e-12


def test_lf_from_lh_excluded_branch():
    with pytest.raises(ParamError):
        lf_from_lh(LogLinearParams(a=1.0, b=0.5, c=0.5, xi=-1.0))


# ---------------------------------------------------------------------------
# Symmetric form
# ---------------------------------------------------------------------------

def test_symmetric_form_matches_closed_form(reference_fit):
    gamma, delta = symmetric_form(reference_fit)
    assert delta + (1.0 - delta) == 1.0
    b, c = reference_fit.b, reference_fit.c
    worst = 0.0
    for k in np.geomspace(2.2, 60.0, 100):
        direct = rental_closed_form(reference_fit, k)
        sym = gamma * (delta * k ** ((b - 1.0) / b) * k ** ((1.0 - c) / b)
                       + (1.0 - delta)) ** (b / (b - 1.0))
        worst = max(worst, relerr(direct, sym))
    assert worst < 1e-12


def test_symmetric_form_c1_matches_ces_identification():
    p = LogLinearParams(a=1.0, b=0.6, c=1.0, xi=-1.0)
    gamma, delta = symmetric_form(p)
    reduced = reduce_special_case(p)
    assert isinstance(reduced, CESParams)
    assert gamma == pytest.approx(reduced.gamma, rel=1e-14)
    assert delta == pytest.approx(reduced.delta, rel=1e-14)


@pytest.mark.parametrize("convert", [lf_from_lh, symmetric_form])
def test_scale_power_overflow_is_singular(convert):
    # a^(-1/b) = 0.5^(-10000) has no double value
    with pytest.raises(SingularError, match="overflows"):
        convert(LogLinearParams(a=0.5, b=1e-4, c=0.5, xi=-1.0))


def test_symmetric_form_nonpositive_base():
    # q + m = 0.5 - 1 < 0 for a=1, b=0.5, c=1.5, xi=1
    with pytest.raises(DomainError):
        symmetric_form(LogLinearParams(a=1.0, b=0.5, c=1.5, xi=1.0))


# ---------------------------------------------------------------------------
# Special-case reduction
# ---------------------------------------------------------------------------

def test_reduce_b_zero_gives_cobb_douglas():
    reduced = reduce_special_case(LogLinearParams(a=2.0, b=0.0, c=0.4, xi=-1.0))
    assert isinstance(reduced, CobbDouglasParams)
    assert reduced.A == 2.0 and reduced.beta == 0.4
    # exact power law y = a k^c
    for k in (0.3, 1.0, 7.0):
        assert eval_intensive(reduced, k) == pytest.approx(2.0 * k ** 0.4, rel=1e-15)


def test_reduce_c_one_gives_ces():
    p = LogLinearParams(a=1.0, b=0.6, c=1.0, xi=-1.0)
    reduced = reduce_special_case(p)
    assert isinstance(reduced, CESParams)
    assert reduced.sigma == pytest.approx(0.6)
    # the reduction evaluates identically to the general closed form
    for k in np.geomspace(0.1, 10.0, 40):
        assert relerr(eval_intensive(reduced, k), rental_closed_form(p, k)) < 1e-12


def test_reduce_c_one_with_overflowing_scale_returns_input():
    # c = 1 meets the CES threshold, but a^(-1/b) = 0.5^(-10000) overflows
    p = LogLinearParams(a=0.5, b=1e-4, c=1.0, xi=-1.0)
    assert reduce_special_case(p) is p


def test_reduce_no_threshold_returns_input(reference_fit):
    assert reduce_special_case(reference_fit) is reference_fit


def test_reduce_tolerance_behaviour():
    near_zero_b = LogLinearParams(a=2.0, b=1e-10, c=0.4, xi=-1.0)
    assert isinstance(reduce_special_case(near_zero_b), CobbDouglasParams)
    off_tol = LogLinearParams(a=2.0, b=1e-8, c=0.4, xi=-1.0)
    assert reduce_special_case(off_tol) is off_tol
    assert isinstance(reduce_special_case(off_tol, tol=1e-7), CobbDouglasParams)


def test_reduce_is_total_on_degenerate_targets():
    # b ~ 0 but c >= 1: no valid Cobb-Douglas, input returned
    p1 = LogLinearParams(a=2.0, b=0.0, c=1.4, xi=-1.0)
    assert reduce_special_case(p1) is p1
    # c ~ 1 but xi unset: CES identification impossible
    p2 = LogLinearParams(a=1.0, b=0.6, c=1.0)
    assert reduce_special_case(p2) is p2
    # c ~ 1 but defining base non-positive
    p3 = LogLinearParams(a=1.0, b=0.5, c=1.0, xi=3.0)
    assert reduce_special_case(p3) is p3


@pytest.mark.parametrize("p", [
    LogLinearParams(a=2.0, b=1.0001, c=1.0, xi=1.0),  # gamma = base^10001 rounds to 0
    LogLinearParams(a=2.0, b=1.9657695262926573, c=1.0, xi=4.906446850327949e+170),  # overflows
])
def test_reduce_c_one_without_a_ces_gamma_returns_input(p):
    assert reduce_special_case(p) is p


# ---------------------------------------------------------------------------
# Error model of the parameter-space functions
# ---------------------------------------------------------------------------

_SCALE = st.one_of(st.floats(1e-300, 1e300), st.floats(0.01, 3.0),
                   st.sampled_from([5e-324, 1e-300, 0.5, 1.0, 2.0, 1e300]))
_SIGNED = st.one_of(_ANY, st.floats(-3.0, 3.0), st.sampled_from([0.0, 5e-324, -5e-324]))


@st.composite
def _parameter_space_cases(draw):
    """(p, v, k, y, y', k0, tol): regression-space parameters up to 1e+-300 and
    5e-324, also on the branches b in {0, 1}, b = c and c = 1; VES parameters
    (None where they are not admissible); and the other arguments."""
    b = draw(st.one_of(_SCALE, st.sampled_from([0.0, 1.0])))
    c = draw(st.one_of(_SCALE, st.sampled_from([1.0, b])))
    try:
        p = LogLinearParams(draw(_SCALE), b, c, draw(st.one_of(st.none(), _SIGNED)))
    except ParamError:
        reject()
    try:
        v = VESParams(draw(_SIGNED), draw(_SIGNED), draw(_SIGNED), draw(_SCALE))
    except ParamError:
        v = None
    return (p, v, draw(_RATIO), draw(_SIGNED), draw(_SIGNED), draw(_RATIO),
            draw(st.one_of(st.just(1e-9), st.floats(0.0, 10.0))))


_AT = (None, 1.0, 2.0, 0.5, 1.0, 1e-9)  # v, k, y, y', k0, tol


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_parameter_space_cases())
@example(case=(LogLinearParams(a=2.09, b=5.8e192, c=0.497, xi=2.0), *_AT))  # (c - b)^3 overflows
@example(case=(LogLinearParams(a=0.5, b=2.9e-242, c=0.497, xi=2.0), *_AT))  # b*b rounds to 0
@example(case=(LogLinearParams(a=5.7e-130, b=1.0119, c=0.23, xi=-2.3), *_AT))
@example(case=(LogLinearParams(a=0.5, b=5e-324, c=0.23, xi=-2.3), *_AT))  # delta = inf/inf
@example(case=(LogLinearParams(a=2.0, b=0.5, c=5e-324, xi=-1.0), None, 7.6e-189, 1.51,
               3.3e-225, 1.0, 1e-9))  # c y - k y' is subnormal
@example(case=(LogLinearParams(a=2.0, b=1.9657695262926573, c=1.0, xi=4.906446850327949e+170),
               *_AT))  # the CES gamma overflows
def test_parameter_space_returns_finite_values_or_raises(case):
    p, v, k, y, y_prime, k0, tol = case
    calls = {
        "ves_from_loglinear": lambda: ves_from_loglinear(p),
        "loglinear_from_ves": lambda: loglinear_from_ves(v) if v else None,
        "lh_from_loglinear": lambda: lh_from_loglinear(p),
        "lf_from_lh": lambda: lf_from_lh(p),
        "symmetric_form": lambda: symmetric_form(p),
        "regression_closed_form": lambda: regression_closed_form(p),
        "sigma_from_mrs": lambda: sigma_from_mrs(p, k),
        "sigma_from_shares": lambda: sigma_from_shares(p, k, y, y_prime),
        "calibrate_xi": lambda: calibrate_xi(p, k0),
    }
    results = {"reduce_special_case": reduce_special_case(p, tol)}  # total: never raises
    for name, call in calls.items():
        try:
            results[name] = call()
        except VesprodError:
            pass
    for name, value in results.items():
        if dataclasses.is_dataclass(value):
            value = dataclasses.astuple(value)
        values = value if isinstance(value, tuple) else (value,)
        assert all(math.isfinite(x) for x in values if isinstance(x, float)), (name, value)


# ---------------------------------------------------------------------------
# Type invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(a=0.0, b=0.5, c=0.5),
    dict(a=-1.0, b=0.5, c=0.5),
    dict(a=1.0, b=-0.1, c=0.5),
    dict(a=1.0, b=0.5, c=0.0),
    dict(a=1.0, b=0.5, c=0.5, xi=math.nan),
    dict(a=math.nan, b=0.5, c=0.5),
])
def test_loglinear_invariants(kwargs):
    with pytest.raises(ParamError):
        LogLinearParams(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(lam=-1.0, mu=1.0, theta=2.0, psi=1.0),
    dict(lam=0.0, mu=0.0, theta=2.0, psi=1.0),
    dict(lam=0.0, mu=1.0, theta=1.0, psi=1.0),
    dict(lam=0.0, mu=1.0, theta=2.0, psi=0.0),
])
def test_ves_invariants(kwargs):
    with pytest.raises(ParamError):
        VESParams(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(A=0.0, beta=0.5),
    dict(A=1.0, beta=0.0),
    dict(A=1.0, beta=1.0),
])
def test_cd_invariants(kwargs):
    with pytest.raises(ParamError):
        CobbDouglasParams(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(gamma=1.0, delta=0.0, sigma=0.5),
    dict(gamma=1.0, delta=1.0, sigma=0.5),
    dict(gamma=1.0, delta=0.5, sigma=0.0),
    dict(gamma=1.0, delta=0.5, sigma=1.0),
])
def test_ces_invariants(kwargs):
    with pytest.raises(ParamError):
        CESParams(**kwargs)


def test_lh_invariants():
    with pytest.raises(ParamError):
        LiuHildebrandParams(a=1.0, b=0.5, c=0.5, xi=-1.0)  # b + c = 1
    with pytest.raises(ParamError):
        LiuHildebrandParams(a=1.0, b=1.0, c=0.3, xi=-1.0)
    # c = 0 is the admitted CES boundary
    LiuHildebrandParams(a=1.0, b=0.7, c=0.0, xi=-1.0)


def test_lf_invariants():
    with pytest.raises(ParamError):
        LuFletcherParams(a=1.0, b=0.5, c=0.5, zeta=1.0)  # b + c = 1
    with pytest.raises(ParamError):
        LuFletcherParams(a=1.0, b=1.0, c=0.3, zeta=1.0)
    with pytest.raises(ParamError):
        LuFletcherParams(a=0.0, b=0.5, c=0.3, zeta=1.0)
    LuFletcherParams(a=1.0, b=0.7, c=0.0, zeta=0.5)  # c = 0 admitted


def test_sh_invariants():
    with pytest.raises(ParamError):
        SatoHoffmanParams(gamma=1.0, delta=0.5, rho=2.5)  # delta*rho > 1
    with pytest.raises(ParamError):
        SatoHoffmanParams(gamma=1.0, delta=0.5, rho=-0.5)  # delta*rho < 0
    with pytest.raises(ParamError):
        SatoHoffmanParams(gamma=1.0, delta=1.2, rho=0.5)


def test_with_xi_returns_new_value():
    p = LogLinearParams(a=1.0, b=0.5, c=0.8)
    q = p.with_xi(-2.5)
    assert p.xi is None and q.xi == -2.5 and q.b == p.b
