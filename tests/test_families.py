import dataclasses
import math
import pydoc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import (
    FAMILIES,
    draw_trusted_case,
    fd_derivative,
    fd_second,
    jet_derivatives,
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
    diagnose_fit,
    eval_extensive,
    eval_intensive,
    fit_loglinear,
    intensive_derivative,
    intensive_second_derivative,
    lf_from_lh,
    lh_from_loglinear,
    load_dataset,
    loglinear_from_ves,
    ode_integrate_theorem,
    reduce_special_case,
    regression_closed_form,
    sigma_from_mrs,
    sigma_from_shares,
    symmetric_form,
    trajectory,
    validity_range,
    verify_equivalence_lh_lf,
    verify_family,
    verify_ode,
    verify_reduction,
    verify_sato_hoffman,
    ves_from_loglinear,
    violated_constraints,
)
from vesprod.families import _evaluate, _magnitude, _NoValue, _root
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
    lambda s: validity_range(s, 0.5, 2.0),
], ids=["bracket_base", "eval_intensive", "eval_extensive", "intensive_derivative",
        "intensive_second_derivative", "mrs_closed", "mrs_derivative_closed",
        "sigma_closed", "sigma_derivative_closed", "classify_regime", "validity_range"])
def test_kernels_reject_non_family_spec(call):
    for spec in (REFERENCE, None, "ves"):
        with pytest.raises(TypeError, match=f"unsupported family spec: {type(spec).__name__}$"):
            call(spec)


_VES = VESParams(lam=-2.0, mu=1.0, theta=2.0, psi=1.0)
_CD = CobbDouglasParams(A=1.0, beta=0.5)
_LH = LiuHildebrandParams(a=1.0, b=0.5, c=0.2, xi=-1.0)  # the fields of a LogLinearParams
_DATA = load_dataset("period,y,k,r\na,1,1,1\nb,1,2,1\nc,1,1,2\nd,1,2,2\n")
_FIT = fit_loglinear(_DATA, "rental")


@pytest.mark.parametrize("call, others", [
    (ves_from_loglinear, [_VES, _LH]),
    (loglinear_from_ves, [REFERENCE, _CD]),
    (lh_from_loglinear, [_VES, _LH]),
    (lf_from_lh, [_VES, _LH]),
    (symmetric_form, [_VES, _LH]),
    (reduce_special_case, [_VES, _LH]),
    (lambda s: calibrate_xi(s, 1.0), [_VES, _LH]),
    (lambda s: sigma_from_shares(s, 1.0, 1.0, 0.5), [_VES, _LH]),
    (lambda s: sigma_from_mrs(s, 1.0), [_VES, _LH]),
    (regression_closed_form, [_VES, _LH]),
    (lambda s: verify_equivalence_lh_lf(s, [1.0]), [_VES, _LH]),
    (lambda s: verify_sato_hoffman(s, [1.0]), [_VES, _CD]),
    (lambda s: ode_integrate_theorem(s, 1.0, 1.0, 2.0, 10), [_CD, REFERENCE]),
    (lambda s: verify_ode(s, 1.0, 2.0, 10), [_CD]),
    (lambda s: fit_loglinear(s, "rental"), [_FIT, REFERENCE]),
    (lambda s: diagnose_fit(s, _FIT), [_FIT, REFERENCE]),
    (lambda s: diagnose_fit(_DATA, s), [_DATA, REFERENCE]),
], ids=["ves_from_loglinear", "loglinear_from_ves", "lh_from_loglinear", "lf_from_lh",
        "symmetric_form", "reduce_special_case", "calibrate_xi", "sigma_from_shares",
        "sigma_from_mrs", "regression_closed_form", "verify_equivalence_lh_lf",
        "verify_sato_hoffman", "ode_integrate_theorem", "verify_ode", "fit_loglinear",
        "diagnose_fit-dataset", "diagnose_fit-fit"])
def test_a_spec_of_the_wrong_type_is_a_type_error(call, others):
    # also through the parameter-space error boundary, which lets TypeError through
    for spec in (None, "ves", *others):
        with pytest.raises(TypeError, match=f"{type(spec).__name__}$"):
            call(spec)


def test_load_dataset_takes_only_text():
    # beside the test above, whose "ves" is a str, which load_dataset admits
    for source in (None, b"period,y,k\na,1,2\n"):
        with pytest.raises(TypeError, match=f"^expected str, got {type(source).__name__}$"):
            load_dataset(source)


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


def _outcome(call, *args):
    """A call's value (a float by its bits), or its exception's type and message."""
    try:
        value = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value.hex() if isinstance(value, float) else repr(value)


_METHODS = ("_bracket", "_y", "_dy", "_d2y", "_R", "_dR", "_sigma", "_dsigma")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_kernel_cases(), kind=st.sampled_from([float, float, int, np.float64]))
@example(case=(CobbDouglasParams(1e300, 0.5), 1e300, 1.0), kind=float)
@example(case=(SatoHoffmanParams(1.0, 0.5, 2.0), 1.0, 1.0), kind=float)
@example(case=(REFERENCE, 1.0, 1.0), kind=float)  # not a family spec
@example(case=(CobbDouglasParams(2.0, 0.4), 2.0, 1.0), kind=str)  # k that is no number
def test_kernels_equal_their_error_boundary(case, kind):
    # a public kernel returns a finite value at a positive float k from one
    # method call; everything else it hands to _evaluate, so both agree on
    # every input, bit for bit or in the exception's type and message
    spec, k, _ = case
    k = kind(min(k, 1e300)) if kind is int else kind(k)
    for kernel, method in zip(_KERNELS, _METHODS):
        assert _outcome(kernel, spec, k) == _outcome(_evaluate, spec, method, k), kernel.__name__


def test_the_kernels_of_r_and_sigma_are_defined_in_families_and_re_exported():
    # imported here from substitution: the same function object under every public path
    import vesprod
    import vesprod.families
    import vesprod.substitution
    for kernel in (mrs_closed, mrs_derivative_closed, sigma_closed, sigma_derivative_closed):
        name = kernel.__name__
        assert kernel.__module__ == "vesprod.families", name
        assert name in vesprod.families.__all__ and name in vesprod.substitution.__all__
        assert getattr(vesprod, name) is getattr(vesprod.families, name) is kernel


def test_the_validity_test_is_defined_in_families_and_re_exported():
    # beside the cut points it must agree with; substitution re-exports it
    import vesprod
    import vesprod.families
    import vesprod.substitution
    assert violated_constraints.__module__ == "vesprod.families"
    assert "violated_constraints" in vesprod.families.__all__
    assert "violated_constraints" in vesprod.substitution.__all__
    assert vesprod.substitution.violated_constraints is vesprod.families.violated_constraints \
        is violated_constraints


def test_the_regime_types_are_defined_in_families_and_re_exported():
    # each family states its regime beside its cut points; substitution only asks for it
    import vesprod
    import vesprod.families
    import vesprod.substitution
    for name in ("RegimeCase", "Monotonicity", "RegimeReport"):
        assert getattr(vesprod.families, name).__module__ == "vesprod.families", name
        assert name in vesprod.families.__all__ and name in vesprod.substitution.__all__
        assert getattr(vesprod, name) is getattr(vesprod.substitution, name) \
            is getattr(vesprod.families, name)
    assert vesprod.substitution.BOUNDARY_TOL is vesprod.families.BOUNDARY_TOL == 1e-9


def test_substitution_knows_no_family_type():
    # classify_regime dispatches to the spec's _regime: substitution names no
    # family class and not the map the VES regime reads
    import vesprod.families
    import vesprod.substitution
    for name, value in vars(vesprod.substitution).items():
        if isinstance(value, type):
            assert not issubclass(value, vesprod.families._Family), name
        assert value is not vesprod.families.loglinear_from_ves, name


def test_the_package_republishes_each_modules_all_and_nothing_else():
    # each module's __all__ is the one list of its public names: a module
    # without one would leak its imports (annotations, say) into vesprod
    import vesprod
    submodules = ("errors", "families", "substitution", "estimation", "oracles")
    exported = set()
    for name in submodules:
        module = getattr(vesprod, name)
        for public in module.__all__:
            assert getattr(vesprod, public) is getattr(module, public), public
        exported.update(module.__all__)
    # vesprod.cli is bound on the package once something imports it
    names = {name for name in dir(vesprod) if not name.startswith("__")} - {"cli"}
    assert names == exported | set(submodules)
    assert vesprod.__version__ == "0.1.0"


def test_cobb_douglas_bracket_is_inf():
    # it has no bracket: inf is the value, not a failure to evaluate
    spec = CobbDouglasParams(1.0, 0.3)
    assert [bracket_base(spec, k) for k in (0.5, 1.0, 2.0)] == [math.inf] * 3


def _overflows(spec, where="k = 1"):
    return DomainError, f"{type(spec).__name__}: the closed form overflows at {where}"


# xi = zeta b a^(1/b) / (b-1) and m = zeta a^(1/b) need 2.39^(1.2e206)
_LF_HUGE = LuFletcherParams(a=2.387225697911483, b=8.314849275752976e-207,
                            c=1.0858932576444476, zeta=9.668955631133263e-235)
# (b-1)/b = -1e170, and b**2 rounds to 0 in y''
_LH_TINY_B = LiuHildebrandParams(a=0.5, b=1e-170, c=0.5, xi=-1.0)
# A = 10^1000, with a positive and with a negative bracket at k = 1
_LH_HUGE_A = LiuHildebrandParams(a=10.0, b=0.999, c=0.5, xi=-10.0)
_LH_HUGE_A_NEGATIVE = LiuHildebrandParams(a=10.0, b=0.999, c=0.5, xi=1.0)
_NEGATIVE_BASE = (DomainError, "LiuHildebrandParams: bracketed base is non-positive at k = 1 "
                  "(base = -0.00300501); the closed form is not defined there")


@pytest.mark.parametrize("spec, expected", [
    (_LF_HUGE, [_overflows(_LF_HUGE)] * 6 + [0.0, _overflows(_LF_HUGE),
                                             _overflows(_LF_HUGE, "K = 1, L = 1")]),
    (_LH_TINY_B, [1e170, 0.5, (SingularError, "LiuHildebrandParams: y' is not finite at k = 1"),
                  (SingularError, "LiuHildebrandParams: y'' divides by zero at k = 1"),
                  1e-170, 0.5, 2e-170, 1e-170, 0.5]),
    (_LH_HUGE_A, [0.008006001993977954] + [_overflows(_LH_HUGE_A)] * 3
     + [-1.008070615356616, -1.0131516420931341, 0.9949849296734881, -0.0025176131712907096,
        _overflows(_LH_HUGE_A, "K = 1, L = 1")]),
    # F reads A before its bracket, so A's overflow is reported first there
    (_LH_HUGE_A_NEGATIVE, [-0.003005009017033067] + [_NEGATIVE_BASE] * 3
     + [-0.9970039940079881, -0.9965069860239582, 1.0004987501251879, 0.00024900093756257855,
        _overflows(_LH_HUGE_A_NEGATIVE, "K = 1, L = 1")]),
], ids=["lf-huge-m-and-xi", "lh-tiny-b", "lh-huge-a", "lh-huge-a-negative-base"])
def test_wage_specs_with_extreme_constants(spec, expected):
    # the constants are set at construction where they can be computed; a
    # constant that overflows raises where the closed form reads it
    calls = [(kernel, (spec, 1.0)) for kernel in _KERNELS] + [(eval_extensive, (spec, 1.0, 1.0))]
    for (kernel, args), want in zip(calls, expected, strict=True):
        got = kernel(*args) if isinstance(want, float) else _outcome(kernel, *args)
        assert got == want, kernel.__name__


class _Unformattable(float):
    """A float that cannot be formatted: a method that words its own failure fails on it."""

    def __format__(self, spec):
        raise AssertionError("a closed-form method formatted its argument")


def _no_base(family, where, base):
    return (f"{family}: bracketed base is non-positive at {where} (base = {base}); "
            "the closed form is not defined there")


def _past_bound(k):
    return f"SatoHoffmanParams: k = {k} is outside the admissible range k < 1.5 for rho = 0.5"


_KERNEL_OF = dict(zip(_METHODS, _KERNELS)) | {"_F": eval_extensive}


_NO_VALUE_CASES = [
    *((VESParams(-2.0, 1.0, 2.0, 1.0), method, (0.5,), _no_base("VESParams", "k = 0.5", "-1"))
      for method in ("_y", "_dy", "_d2y")),
    (VESParams(-2.0, 1.0, 2.0, 1.0), "_F", (1.0, 2.0),
     "VESParams: bracketed base is non-positive at K/L = 0.5"),
    *((family(1.0, 0.5, 0.2, xi), method, (0.3,), _no_base(family.__name__, "k = 0.3", "-0.635592"))
      for family, xi in ((LiuHildebrandParams, 1.0), (LuFletcherParams, -1.0))
      for method in ("_y", "_dy", "_d2y")),
    *((family(1.0, 0.5, 0.2, xi), "_F", (0.3, 1.0),
       f"{family.__name__}: bracketed base is non-positive at K/L = 0.3")
      for family, xi in ((LiuHildebrandParams, 1.0), (LuFletcherParams, -1.0))),
    *((SatoHoffmanParams(1.0, 0.5, 0.5), method, (2.0,), _past_bound(2))
      for method in ("_y", "_dy", "_d2y", "_R", "_dR", "_sigma", "_dsigma")),
    (SatoHoffmanParams(1.0, 0.5, 0.5), "_F", (3.0, 2.0), _past_bound(1.5)),
]


@pytest.mark.parametrize("spec, method, args, message", _NO_VALUE_CASES,
                         ids=[f"{type(case[0]).__name__}.{case[1]}" for case in _NO_VALUE_CASES])
def test_a_closed_form_with_no_value_raises_it_bare(spec, method, args, message):
    # the method only computes: it raises _NoValue and formats nothing, and
    # _evaluate alone words the failure
    with pytest.raises(_NoValue):
        getattr(spec, method)(*map(_Unformattable, args))
    with pytest.raises(DomainError) as info:
        _KERNEL_OF[method](spec, *map(_Unformattable, args))
    assert type(info.value) is DomainError and str(info.value) == message


@pytest.mark.parametrize("family", [VESParams, CobbDouglasParams, CESParams, LiuHildebrandParams,
                                    LuFletcherParams, SatoHoffmanParams],
                         ids=lambda family: family.__name__)
def test_family_types_render_their_help(family):
    # help() reads every class attribute, an unset per-spec constant included
    assert family.__name__ in pydoc.render_doc(family)


# The closed forms as they were written before their parameter-only factors
# were stored at construction, with every per-spec constant computed where it
# is read (wage forms, Lu-Fletcher's sigma, Sato-Hoffman, VES' R' and sigma),
# or as the methods read before the bracket was tested inline (CES,
# Cobb-Douglas, the VES and wage y, y', y'').  The stored factors are left
# prefixes of these products, so every value must keep its bits, and every
# error its type and message.

def _old_positive_bracket(s, k):
    base = s._bracket(k)
    if not base > 0.0:
        raise DomainError(
            f"{type(s).__name__}: bracketed base is non-positive at k = {k:.12g} "
            f"(base = {base:.6g}); the closed form is not defined there")
    return base


def _old_m_xi(s):
    if isinstance(s, LiuHildebrandParams):
        return s.xi * (s.b - 1.0) / s.b, s.xi
    a_1b = s.a ** (1.0 / s.b)
    return s.zeta * a_1b, s.zeta * s.b * a_1b / (s.b - 1.0)


def _old_wage_bracket(s, k):
    b, c = s.b, s.c
    return _old_m_xi(s)[0] * k ** ((b - 1.0) / b) + (b - 1.0) / (b + c - 1.0) * k ** (-c / b)


def _old_wage_y(s, k):
    base = _old_positive_bracket(s, k)
    return s.a ** (1.0 / (1.0 - s.b)) * base ** (s.b / (s.b - 1.0))


def _old_wage_dy(s, k):
    base = _old_positive_bracket(s, k)
    A, b, Sp = s._A, s.b, s._dS(k)
    return A * b / (b - 1.0) * base ** (1.0 / (b - 1.0)) * Sp


def _old_wage_d2y(s, k):
    base = _old_positive_bracket(s, k)
    A, b, Sp = s._A, s.b, s._dS(k)
    m, n, c = s._m, s._n, s.c
    Spp = (-m * (b - 1.0) / b ** 2 * k ** (-(1.0 + b) / b)
           + n * c * (b + c) / b ** 2 * k ** (-(2.0 * b + c) / b))
    return A * b / (b - 1.0) * (base ** ((2.0 - b) / (b - 1.0)) * Sp ** 2 / (b - 1.0)
                                + base ** (1.0 / (b - 1.0)) * Spp)


def _old_wage_R(s, k):
    b, c, xi = s.b, s.c, _old_m_xi(s)[1]
    den = xi * (1.0 - b) * (b + c - 1.0) * k ** ((b + c - 1.0) / b) + b * c
    return -b * (b + c - 1.0) * k / den


def _old_wage_dR(s, k):
    b, c, xi = s.b, s.c, _old_m_xi(s)[1]
    x = k ** ((b + c - 1.0) / b)
    den = xi * (1.0 - b) * (b + c - 1.0) * x + b * c
    num = xi * (1.0 - b) * (1.0 - c) * (b + c - 1.0) * x + b * b * c
    return -(b + c - 1.0) * num / den / den


def _old_wage_sigma(s, k):
    b, c, xi = s.b, s.c, _old_m_xi(s)[1]
    x = k ** ((b + c - 1.0) / b)
    den = xi * (1.0 - b) * (b + c - 1.0) * (1.0 - c) * x + b * b * c
    num = xi * (1.0 - b) * (b + c - 1.0) * x + b * c
    return b * num / den


def _old_wage_dsigma(s, k):
    b, c, xi = s.b, s.c, _old_m_xi(s)[1]
    t = b + c - 1.0
    if xi == 0.0 and c > 0.0:
        return xi * (1.0 - b) * t * b * c
    den = xi * (1.0 - b) * t * (1.0 - c) * k ** ((b - 1.0) / b) + b * b * c * k ** (-c / b)
    num = xi * (1.0 - b) * t * b * c * t ** 2 * k ** (-(c + 1.0) / b)
    return num / den / den


def _old_lf_sigma(s, k):
    a, b, c, zeta = s.a, s.b, s.c, s.zeta
    u = k ** ((b - 1.0) / b)
    v = b * c * a ** (-1.0 / b) * k ** (-c / b)
    den = zeta * (1.0 - c) * (1.0 - b - c) * u + v
    num = zeta * b * (1.0 - b - c) * u + v
    return num / den


def _old_sh_check_domain(s, k, degree_one=False):
    if degree_one and s.alpha != 1.0:
        raise ParamError("substitution formulas assume degree one; "
                         f"alpha = {s.alpha!r} is not supported here")
    bound = math.inf if s.rho >= 1.0 else (1.0 - s.delta * s.rho) / (1.0 - s.rho)
    if k >= bound:
        raise DomainError(f"SatoHoffmanParams: k = {k:.12g} is outside the admissible range "
                          f"k < {bound:.12g} for rho = {s.rho:.12g}")


def _old_sh_y(s, k):
    s._check_domain(k)
    dr = s.delta * s.rho
    G = 1.0 + (s.rho - 1.0) * k
    return s.gamma * k ** (s.alpha * (1.0 - dr)) * G ** (s.alpha * dr)


def _old_sh_F(s, K, L):
    s._check_domain(K / L)
    dr = s.delta * s.rho
    return s.gamma * K ** (s.alpha * (1.0 - dr)) * (L + (s.rho - 1.0) * K) ** (s.alpha * dr)


def _old_sh_log_slope(s, k):
    dr = s.delta * s.rho
    G = 1.0 + (s.rho - 1.0) * k
    return G, s.alpha * ((1.0 - dr) / k + dr * (s.rho - 1.0) / G)


def _old_sh_d2y(s, k):
    y = s._y(k)
    dr = s.delta * s.rho
    G, g = s._log_slope(k)
    gp = s.alpha * (-(1.0 - dr) / k ** 2 - dr * (s.rho - 1.0) ** 2 / G ** 2)
    return y * (g * g + gp)


def _old_sh_R(s, k):
    s._check_domain(k, degree_one=True)
    dr = s.delta * s.rho
    return dr * k / ((1.0 - dr) + (s.rho - 1.0) * k)


def _old_sh_dR(s, k):
    s._check_domain(k, degree_one=True)
    dr = s.delta * s.rho
    D = (1.0 - dr) + (s.rho - 1.0) * k
    return dr * (1.0 - dr) / (D * D)


def _old_sh_sigma(s, k):
    s._check_domain(k, degree_one=True)
    return 1.0 + (s.rho - 1.0) / (1.0 - s.delta * s.rho) * k


def _old_sh_dsigma(s, k):
    s._check_domain(k, degree_one=True)
    return (s.rho - 1.0) / (1.0 - s.delta * s.rho)


def _old_ves_bracket(s, k):
    return (1.0 + s.lam) * k ** (1.0 - s.theta) + s.mu


def _old_ves_y(s, k):
    base = _old_positive_bracket(s, k)
    return s.psi * base ** (1.0 / ((1.0 + s.lam) * (1.0 - s.theta)))


def _old_ves_F(s, K, L):
    lam, th = s.lam, s.theta
    base = (1.0 + lam) * K ** (1.0 - th) * L ** (lam * (1.0 - th)) \
        + s.mu * L ** ((1.0 + lam) * (1.0 - th))
    if not base > 0.0:
        raise DomainError(f"VESParams: bracketed base is non-positive at K/L = {K / L:.12g}")
    return s.psi * base ** (1.0 / ((1.0 + lam) * (1.0 - th)))


def _old_ves_dy(s, k):
    base = _old_positive_bracket(s, k)
    return s.psi * k ** (-s.theta) * base ** (1.0 / ((1.0 + s.lam) * (1.0 - s.theta)) - 1.0)


def _old_ves_d2y(s, k):
    base = _old_positive_bracket(s, k)
    lam, th = s.lam, s.theta
    return (-s.psi * k ** (-th - 1.0) * base ** (1.0 / ((1.0 + lam) * (1.0 - th)) - 2.0)
            * (lam * k ** (1.0 - th) + th * s.mu))


def _old_ves_sign_changes(s):
    lam, mu, th = s.lam, s.mu, s.theta
    e, tm = th - 1.0, th * mu
    return [*_root(e, 1.0 + lam, mu), *_root(e, lam, mu), *_root(e, lam, tm),
            *_magnitude(1.0 - th, 1.0 + lam), *_magnitude(1.0, lam),
            *_magnitude(th, mu), *_magnitude(e, mu, tm)]


def _old_ves_dR(s, k):
    return s.lam + s.theta * s.mu * k ** (s.theta - 1.0)


def _old_ves_sigma(s, k):
    lam, mu, th = s.lam, s.mu, s.theta
    x = k ** (th - 1.0)
    return (lam + mu * x) / (lam + th * mu * x)


def _old_ves_dsigma(s, k):
    lam, mu, th = s.lam, s.mu, s.theta
    if lam == 0.0 and th != 0.0:
        return float(-lam * mu)
    den = lam + th * mu * k ** (th - 1.0)
    return -lam * mu * (th - 1.0) ** 2 * k ** (th - 2.0) / den / den


def _old_ces_bracket(s, k):
    return s.delta * k ** ((s.sigma - 1.0) / s.sigma) + (1.0 - s.delta)


def _old_ces_y(s, k):
    base = _old_positive_bracket(s, k)
    return s.gamma * base ** (s.sigma / (s.sigma - 1.0))


def _old_ces_F(s, K, L):
    e = (s.sigma - 1.0) / s.sigma
    base = s.delta * K ** e + (1.0 - s.delta) * L ** e
    return s.gamma * base ** (s.sigma / (s.sigma - 1.0))


def _old_ces_dy(s, k):
    sg = s.sigma
    base = _old_positive_bracket(s, k)
    return s.gamma * s.delta * k ** (-1.0 / sg) * base ** (1.0 / (sg - 1.0))


def _old_ces_d2y(s, k):
    sg = s.sigma
    base = _old_positive_bracket(s, k)
    return (-s.gamma * s.delta * (1.0 - s.delta) / sg
            * k ** (-1.0 / sg - 1.0) * base ** ((2.0 - sg) / (sg - 1.0)))


def _old_ces_sign_changes(s):
    sg, d = s.sigma, s.delta
    cuts = [*_magnitude((sg - 1.0) / sg, d), *_magnitude(1.0 / sg, (1.0 - d) / d)]
    if d * sg != 0.0:
        cuts += _magnitude(1.0 / sg - 1.0, (1.0 - d) / (d * sg))
    return cuts


def _old_sh_sign_changes(s):
    dr, r = s.delta * s.rho, s.rho - 1.0
    cuts = [*_root(1.0, 1.0 - dr, r), *_magnitude(1.0, dr)]
    if r * r != 0.0:
        cuts += _magnitude(2.0, r * r, dr * (1.0 - dr) / (r * r))
    return cuts


def _old_ces_R(s, k):
    return (1.0 - s.delta) / s.delta * k ** (1.0 / s.sigma)


def _old_ces_dR(s, k):
    return (1.0 - s.delta) / (s.delta * s.sigma) * k ** (1.0 / s.sigma - 1.0)


_OLD_WAGE = {"_bracket": _old_wage_bracket, "_y": _old_wage_y, "_dy": _old_wage_dy,
             "_d2y": _old_wage_d2y, "_R": _old_wage_R, "_dR": _old_wage_dR,
             "_sigma": _old_wage_sigma, "_dsigma": _old_wage_dsigma}
# same-named subclasses, so that _evaluate's messages name the family as before
_OLD_TYPES = {cls: type(cls.__name__, (cls,), methods) for cls, methods in [
    (LiuHildebrandParams, _OLD_WAGE),
    (LuFletcherParams, {**_OLD_WAGE, "_sigma": _old_lf_sigma}),
    (SatoHoffmanParams, {"_check_domain": _old_sh_check_domain, "_y": _old_sh_y,
                         "_F": _old_sh_F, "_log_slope": _old_sh_log_slope, "_d2y": _old_sh_d2y,
                         "_R": _old_sh_R, "_dR": _old_sh_dR, "_sigma": _old_sh_sigma,
                         "_dsigma": _old_sh_dsigma, "_sign_changes": _old_sh_sign_changes,
                         "_bracket": lambda s, k: (1.0 - s.delta * s.rho) + (s.rho - 1.0) * k}),
    (VESParams, {"_bracket": _old_ves_bracket, "_y": _old_ves_y, "_F": _old_ves_F,
                 "_dy": _old_ves_dy, "_d2y": _old_ves_d2y, "_dR": _old_ves_dR,
                 "_sigma": _old_ves_sigma, "_dsigma": _old_ves_dsigma,
                 "_sign_changes": _old_ves_sign_changes}),
    (CESParams, {"_bracket": _old_ces_bracket, "_y": _old_ces_y, "_F": _old_ces_F,
                 "_dy": _old_ces_dy, "_d2y": _old_ces_d2y, "_R": _old_ces_R,
                 "_dR": _old_ces_dR, "_sign_changes": _old_ces_sign_changes}),
    (CobbDouglasParams, {"_R": lambda s, k: (1.0 - s.beta) / s.beta * k,
                         "_dR": lambda s, k: (1.0 - s.beta) / s.beta,
                         "_sign_changes": lambda s: _magnitude(1.0, (1.0 - s.beta) / s.beta)}),
]}

_HUGE = st.sampled_from([1e300, -1e300, 1e200, -1e200, 2.0 ** 600])


@st.composite
def _formula_cases(draw):
    """(spec, k) for the six families, with parameters and k anywhere in the
    double range: overflowing a, xi, zeta and b + c - 1, xi = 0, Lu-Fletcher b
    near 0, where a^(1/b) or a^(-1/b) overflows, and a CES delta sigma or a
    Cobb-Douglas beta that rounds a quotient to inf."""
    family = draw(st.sampled_from(["lh", "lf", "sh", "ves", "ces", "cd"]))
    try:
        if family == "ces":
            spec = CESParams(draw(_POSITIVE), draw(st.one_of(_UNIT, st.just(5e-324))),
                             draw(st.one_of(_POSITIVE, st.floats(0.05, 3.0), st.just(5e-324))))
        elif family == "cd":
            spec = CobbDouglasParams(draw(_POSITIVE), draw(st.one_of(_UNIT, st.just(5e-324))))
        elif family == "ves":
            spec = VESParams(draw(_ANY), draw(st.one_of(_ANY, _HUGE)),
                             draw(st.one_of(_ANY, _HUGE, st.floats(-3.0, 3.0))), draw(_POSITIVE))
        elif family == "sh":
            delta = draw(st.one_of(_UNIT, st.sampled_from([0.5, 0.25, 0.125])))
            rho = draw(st.one_of(st.floats(0.0, 1.0).map(lambda t: t / delta),
                                 st.just(1.0 / delta)))
            alpha = draw(st.one_of(st.just(1.0), _POSITIVE, st.floats(0.1, 10.0)))
            spec = SatoHoffmanParams(draw(_POSITIVE), delta, rho, alpha)
        else:
            wage_form = LiuHildebrandParams if family == "lh" else LuFletcherParams
            b = draw(st.one_of(_POSITIVE, st.floats(1e-300, 1e-2), st.floats(0.5, 1.5)))
            c = draw(st.one_of(st.floats(0.0, 1e300), st.floats(0.0, 3.0), st.just(0.0), _HUGE))
            spec = wage_form(draw(st.one_of(_POSITIVE, st.floats(0.01, 100.0))), b, c,
                             draw(st.one_of(_ANY, _HUGE, st.sampled_from([0.0, -0.0]))))
    except ParamError:
        reject()
    return spec, draw(st.one_of(_RATIO, st.floats(1e-3, 1e3)))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=_formula_cases())
@example(case=(_LH_HUGE_A, 1.0))                                           # A overflows
@example(case=(_LF_HUGE, 2.0))                                             # a^(1/b) overflows
@example(case=(LuFletcherParams(0.1, 1e-3, 0.5, 1.0), 2.0))                # a^(-1/b) overflows
@example(case=(LuFletcherParams(2.0, 0.5, 1e300, 1e300), 2.0))            # zeta products overflow
@example(case=(LiuHildebrandParams(2.0, 0.5, 1e200, -1.0), 1.0))          # (b+c-1)^2 overflows
@example(case=(LiuHildebrandParams(1e300, 0.5, 0.3, 1e300), 3.0))         # xi products overflow
@example(case=(LiuHildebrandParams(1.3, 0.5, 0.3, 0.0), 2.0))             # xi = 0
@example(case=(LiuHildebrandParams(1.3, 0.5, 0.3, -0.0), 2.0))
@example(case=(LuFletcherParams(1.3, 0.5, 0.3, 0.0), 2.0))
@example(case=(VESParams(0.5, 1.0, 1e200, 1.0), 0.5))                      # (theta-1)^2 overflows
@example(case=(VESParams(0.0, 1.0, 2.0, 1.0), 2.0))                        # sigma' = -0.0
@example(case=(SatoHoffmanParams(1.0, 0.5, 2.0), 1.0))                     # delta*rho = 1
@example(case=(SatoHoffmanParams(1.0, 0.5, 0.5), 2.0))                     # outside the range
@example(case=(SatoHoffmanParams(1.0, 0.5, 0.5, 2.0), 1.0))                # alpha != 1
@example(case=(CESParams(1.0, 0.5, 5e-324), 2.0))                          # delta sigma is 0
@example(case=(VESParams(-2.0, 1.0, 2.0, 1.0), 0.5))                       # bracket < 0
def test_closed_forms_keep_the_bits_of_the_formulas_they_replace(case):
    spec, k = case
    old = _OLD_TYPES[type(spec)](*(getattr(spec, f.name) for f in dataclasses.fields(spec)))
    for method in _METHODS:
        assert _outcome(_evaluate, spec, method, k) == _outcome(_evaluate, old, method, k), method
    assert _outcome(_evaluate, spec, "_F", k, 1.5) == _outcome(_evaluate, old, "_F", k, 1.5)
    assert repr(spec._sign_changes()) == repr(old._sign_changes())


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


def test_derivatives_satisfy_the_identities_of_r_and_sigma_to_rounding():
    # y' = y / (R + k) and y'' = y' (k y' - y) / (k y sigma) hold exactly, and
    # each side is a closed form of its own: to rounding they agree, where
    # finite differences at DERIVATIVE_TOL cannot see an error of 1e-9 in y'
    # or y''.  Computing k y' - y cancels by c = y / (y - k y') = (R + k) / R.
    rng = np.random.default_rng(515151)
    for family in FAMILIES:
        done = 0
        while done < 10:
            spec, grid = draw_trusted_case(rng, family)
            if grid is None:
                continue
            done += 1
            for k in grid:
                y, dy = eval_intensive(spec, k), intensive_derivative(spec, k)
                assert relerr(dy, y / (mrs_closed(spec, k) + k)) < 1e-12, (spec, k)
                c = y / (y - k * dy)
                d2y = dy * (k * dy - y) / (k * y * sigma_closed(spec, k))
                assert relerr(intensive_second_derivative(spec, k), d2y) < 1e-12 * max(1.0, c), \
                    (spec, k)


def test_r_prime_and_sigma_prime_match_complex_step_derivatives_to_rounding():
    # Im f(k + ih) / h with h = 1e-30 k is f'(k) to rounding, as no difference
    # cancels, where finite differences at DERIVATIVE_TOL cannot see an error of
    # 1e-9 in R' or sigma'.  The closed forms of R and sigma run unchanged on a
    # complex k, except Sato-Hoffman's, whose domain test compares k with its
    # bound: a complex number has no order.  The errors are scaled as
    # verify_family scales them, with the floors |R| / k and |sigma| / k.
    rng = np.random.default_rng(616161)
    for family in [family for family in FAMILIES if family != "sh"]:
        done = 0
        while done < 20:
            spec, grid = draw_trusted_case(rng, family)
            if grid is None:
                continue
            done += 1
            for k in grid:
                h = k * 1e-30
                for f, derivative in ((spec._R, mrs_derivative_closed),
                                      (spec._sigma, sigma_derivative_closed)):
                    closed, stepped = derivative(spec, k), f(complex(k, h)).imag / h
                    floor = abs(f(k)) / k
                    assert abs(closed - stepped) <= 1e-12 * max(abs(closed), abs(stepped), floor), \
                        (spec, k, f.__name__)


def test_every_derivative_matches_the_taylor_jet_of_y_to_rounding():
    # A Taylor jet of y (conftest.Jet) runs through each family's unchanged _y,
    # Sato-Hoffman's bound test included, and gives y', y'' and y''' with no
    # step and no hand-written derivative; R, R', sigma and sigma' follow from
    # their defining identities.  Finite differences at DERIVATIVE_TOL cannot
    # see an error of 1e-9; the jet can.  The errors are scaled as verify_family
    # scales them, with the floors |R| / k and |sigma| / k on R' and sigma'.
    # The reference VES fit at k = 1e7 to 1e9 is where verify_family's finite
    # differences read up to 3.46e-5.
    rng = np.random.default_rng(717171)
    cases = [(ves_from_loglinear(REFERENCE), [1e7, 1e8, 1e9])]
    for family in FAMILIES:
        done = 0
        while done < 20:
            spec, grid = draw_trusted_case(rng, family)
            if grid is None:
                continue
            done += 1
            cases.append((spec, grid))
    for spec, grid in cases:
        for k in grid:
            jet = jet_derivatives(spec, k)
            R, sigma = mrs_closed(spec, k), sigma_closed(spec, k)
            for quantity, closed, floor in (
                    ("y'", intensive_derivative(spec, k), 0.0),
                    ("y''", intensive_second_derivative(spec, k), 0.0),
                    ("R", R, 0.0), ("R'", mrs_derivative_closed(spec, k), abs(R) / k),
                    ("sigma", sigma, 0.0),
                    ("sigma'", sigma_derivative_closed(spec, k), abs(sigma) / k)):
                reference = jet[quantity]
                assert abs(closed - reference) <= \
                    1e-12 * max(abs(closed), abs(reference), floor), (spec, k, quantity)


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


@pytest.mark.parametrize("p, message", [
    (LogLinearParams(a=1e-300, b=0.5, c=0.3, xi=-1.0),  # psi = 1e-600
     "a = 1e-300, b = 0.5: a^(1/(1-b)) underflows to 0, so psi has no positive value"),
    (LogLinearParams(a=1e-200, b=0.3, c=0.2, xi=-1.0),  # a^(1/b) = 1e-667
     "a = 1e-200, b = 0.3, xi = -1.0: xi (b-1) a^(1/b) / b underflows to 0, "
     "so mu has no nonzero value"),
], ids=["psi", "mu"])
def test_ves_from_loglinear_underflow_is_singular(p, message):
    # not a ParamError about psi or mu, which the caller never gave
    with pytest.raises(SingularError) as caught:
        ves_from_loglinear(p)
    assert str(caught.value) == message


@pytest.mark.parametrize("c", [1e20, 1e16])
def test_ves_from_loglinear_lam_rounding_to_minus_one_is_singular(c):
    # (c-1)/(b-c) rounds to -1 for a c far above b: not a ParamError about lam
    with pytest.raises(SingularError) as caught:
        ves_from_loglinear(LogLinearParams(a=1.0, b=0.5, c=c, xi=-1.0))
    assert str(caught.value) == (f"b = 0.5, c = {c!r}: (c-1)/(b-c) rounds to -1, "
                                 "so lam has no admissible value")


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


@pytest.mark.parametrize("p", [
    LogLinearParams(a=1e100, b=1.055080915597846, c=0.6232419996980075,
                    xi=-5.598781748921628e-106),  # base^19.2 with base = 2.1e-96
    LogLinearParams(a=2.0, b=1.0001, c=1.0, xi=1.0),  # base^10001 with base = 0.5
])
def test_symmetric_form_underflowing_gamma_is_singular(p):
    with pytest.raises(SingularError, match=r"gamma = base\^\(b/\(b-1\)\) underflows"):
        symmetric_form(p)


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


# ---------------------------------------------------------------------------
# Numeric arguments
# ---------------------------------------------------------------------------

_V = VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0)
_RENTAL = LogLinearParams(a=1.0, b=0.5, c=1.2, xi=-1.0)

#: every public function that takes a number, with arguments it accepts; each
#: int or float among them (positional or keyword), and the point of each
#: one-point grid, is a numeric slot
_NUMERIC_CALLS = [
    (LogLinearParams, (1.0, 0.5, 0.3, -1.0), {}),
    (VESParams, (0.0, 1.0, 2.0, 1.0), {}),
    (CobbDouglasParams, (2.0, 0.4), {}),
    (CESParams, (1.0, 0.5, 2.0), {}),
    (LiuHildebrandParams, (1.0, 0.5, 0.2, -1.0), {}),
    (LuFletcherParams, (1.0, 0.5, 0.2, 1.0), {}),
    (SatoHoffmanParams, (1.0, 0.5, 1.5, 1.0), {}),
    *((kernel, (_V, 1.5), {}) for kernel in _KERNELS),
    (eval_extensive, (_V, 1.5, 1.0), {}),
    (violated_constraints, (_V, 1.5), {}),
    (validity_range, (_V, 0.5, 2.0), {"samples": 16}),
    (trajectory, (_V, 0.5, 2.0, 16), {}),
    (sigma_from_shares, (_RENTAL, 1.0, 2.0, 0.5), {}),
    (sigma_from_mrs, (_RENTAL, 2.0), {}),
    (calibrate_xi, (LogLinearParams(a=1, b=0.5, c=1.2), 2.0), {}),
    (reduce_special_case, (LogLinearParams(a=1, b=0.5, c=1.0, xi=-1),), {"tol": 1e-9}),
    (ode_integrate_theorem, (_V, 1.0, 0.5, 2.0, 100), {}),
    (verify_family, (_V, [1.5]), {"tolerance": 1e-6}),
    (verify_equivalence_lh_lf, (LogLinearParams(a=1.0, b=0.5, c=0.2, xi=-1.0), [1.5]),
     {"tolerance": 1e-10}),
    (verify_ode, (_V, 1.0, 2.0, 100), {"tolerance": 1e-9}),
    (verify_reduction, (_V, _V, [1.5]), {"tolerance": 1e-10}),
    (verify_sato_hoffman, (SatoHoffmanParams(1.0, 0.5, 1.5), [1.5]), {"tolerance": 1e-6}),
]

_OUT_OF_RANGE = (10 ** 400, -10 ** 400, 10 ** 5000, -10 ** 5000, math.nan, math.inf, -math.inf,
                 Fraction(10 ** 400), Fraction(-1, 10 ** 5000))


def _with(value, slot, args, kwargs):
    """args and kwargs with the number at ``slot`` (an index or a name) replaced by
    value, and a grid by the one-point grid [value]."""
    args, kwargs = list(args), dict(kwargs)
    where = kwargs if isinstance(slot, str) else args
    where[slot] = [value] if isinstance(where[slot], list) else value
    return args, kwargs


@pytest.mark.parametrize("function, args, kwargs", _NUMERIC_CALLS,
                         ids=[function.__name__ for function, _, _ in _NUMERIC_CALLS])
def test_a_number_out_of_range_returns_or_raises_a_vesprod_error(function, args, kwargs):
    # never OverflowError (from float() of a large int) or ValueError (from the
    # repr of an int with more than 4300 digits), whatever the slot
    function(*args, **kwargs)
    slots = [*(i for i, arg in enumerate(args) if isinstance(arg, (int, float, list))),
             *(name for name, arg in kwargs.items() if isinstance(arg, (int, float)))]
    assert slots
    for slot in slots:
        for value in _OUT_OF_RANGE:
            call_args, call_kwargs = _with(value, slot, args, kwargs)
            try:
                function(*call_args, **call_kwargs)
            except VesprodError:
                pass


#: numbers that are not floats, next to one: each is admitted as the float nearest it
_NEAR_FLOATS = (Fraction(1, 3), Fraction(10), Fraction(1, 10 ** 400), -Fraction(1, 10 ** 400),
                1 + Fraction(1, 10 ** 400), -1 + Fraction(1, 10 ** 400),
                Fraction(1, 2) + Fraction(1, 10 ** 400), 2, 0, -1,
                Decimal("0.1"), np.float32(0.1), np.float64(0.1), np.int64(2))


def _repr_or_error(function, args, kwargs):
    """The repr of the call's result, or the type of its VesprodError."""
    try:
        return repr(function(*args, **kwargs))
    except VesprodError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("function, args, kwargs", _NUMERIC_CALLS,
                         ids=[function.__name__ for function, _, _ in _NUMERIC_CALLS])
def test_a_number_gives_what_its_nearest_float_gives(function, args, kwargs):
    # every float slot (the int-only counts samples, points and steps are none)
    slots = [*(i for i, arg in enumerate(args) if isinstance(arg, (float, list))),
             *(name for name, arg in kwargs.items() if isinstance(arg, float))]
    assert slots
    for slot in slots:
        for value in _NEAR_FLOATS:
            assert _repr_or_error(function, *_with(value, slot, args, kwargs)) == \
                _repr_or_error(function, *_with(float(value), slot, args, kwargs)), (slot, value)


def test_validity_range_takes_fraction_and_int_bounds_as_the_nearest_floats():
    cd = CobbDouglasParams(2.0, 0.5)
    # a ratio of bounds past the double range is spaced in log space, as for floats
    wide = validity_range(cd, Fraction(1e-200), Fraction(1e200))
    assert wide == validity_range(cd, 1e-200, 1e200)
    assert validity_range(_V, Fraction(1, 2), 2) == validity_range(_V, 0.5, 2.0)
    ends = validity_range(cd, 1, 10)
    assert (ends.k_low, ends.k_high) == (1.0, 10.0)
    for interval in (wide, ends):
        assert type(interval.k_low) is float and type(interval.k_high) is float
    with pytest.raises(ParamError, match="probe bounds must satisfy 0 < low < high"):
        validity_range(cd, Fraction(1, 10 ** 400), 1.0)  # rounds to 0


@pytest.mark.parametrize("call, count, error, message", [
    (lambda n: trajectory(CobbDouglasParams(2.0, 0.4), 0.5, 2.0, n), 3, ParamError,
     "points must be an integer in [2, 10**6], got {!r}"),
    (lambda n: validity_range(_V, 0.5, 2.0, samples=n), 64, ParamError,
     "samples must be an integer >= 2"),
    (lambda n: ode_integrate_theorem(_V, 1.0, 0.5, 2.0, n), 100, DomainError,
     "steps must be an integer >= 2, got {!r}"),
    (lambda n: verify_ode(_V, 1.0, 2.0, n), 100, DomainError,
     "steps must be an integer >= 2, got {!r}"),
], ids=["trajectory", "validity_range", "ode_integrate_theorem", "verify_ode"])
def test_a_numpy_integer_count_gives_what_its_int_gives(call, count, error, message):
    assert repr(call(np.int64(count))) == repr(call(count))
    # no other type is a count, and a bool is the int it is (0 or 1)
    for value in (float(count), Fraction(count), str(count), True):
        with pytest.raises(error) as caught:
            call(value)
        assert type(caught.value) is error and str(caught.value) == message.format(value)


_BITS = "an int of 16610 bits"  # 10**5000


@pytest.mark.parametrize("call, error, message", [
    (lambda: VESParams(10 ** 400, 1, 2, 1), ParamError, f"lam must be finite, got {10 ** 400}"),
    (lambda: LogLinearParams(a=10 ** 400, b=0.5, c=0.3), ParamError,
     f"a must be finite, got {10 ** 400}"),
    (lambda: verify_ode(_V, 1.0, 2.0, 100, tolerance=10 ** 400), ParamError,
     f"tolerance must be a non-negative finite number, got {10 ** 400}"),
    (lambda: reduce_special_case(LogLinearParams(a=1, b=0.5, c=1.0, xi=-1), tol=10 ** 400),
     ParamError, f"tol must be a non-negative float, got {10 ** 400}"),
    (lambda: calibrate_xi(LogLinearParams(a=1, b=0.5, c=1.2), 10 ** 400), DomainError,
     f"k0 must be positive and finite, got {10 ** 400}"),
    (lambda: eval_intensive(_V, 10 ** 5000), DomainError,
     f"capital-labor ratio must be positive and finite, got {_BITS}"),
    (lambda: eval_intensive(_V, -10 ** 5000), DomainError,
     "capital-labor ratio must be positive and finite, got a negative int of 16610 bits"),
    (lambda: verify_family(_V, [10 ** 5000]), DomainError,
     f"grid point {_BITS} is not a positive finite number"),
    (lambda: validity_range(_V, 10 ** 5000, 10 ** 5001), ParamError,
     f"probe bounds must satisfy 0 < low < high, got ({_BITS}, an int of 16613 bits)"),
    (lambda: ode_integrate_theorem(_V, 1.0, 10 ** 5000, 2.0, 100), DomainError,
     f"y_start must be positive and finite, got {_BITS}"),
    (lambda: calibrate_xi(LogLinearParams(a=1, b=0.5, c=1.2), 10 ** 5000), DomainError,
     f"k0 must be positive and finite, got {_BITS}"),
    # a Fraction whose repr is too long: by the sizes of its numerator and denominator
    (lambda: eval_intensive(CobbDouglasParams(2.0, 0.5), Fraction(-1, 10 ** 5000)), DomainError,
     "capital-labor ratio must be positive and finite, got a negative Fraction of 1 bits over "
     "16610 bits"),
    (lambda: validity_range(CobbDouglasParams(2.0, 0.5), Fraction(-1, 10 ** 5000), 1.0),
     ParamError, "probe bounds must satisfy 0 < low < high, got (a negative Fraction of 1 bits "
     "over 16610 bits, 1.0)"),
], ids=["VESParams", "LogLinearParams", "verify_ode", "reduce_special_case", "calibrate_xi",
        "eval_intensive", "eval_intensive-negative", "verify_family", "validity_range",
        "ode_integrate_theorem", "calibrate_xi-long", "eval_intensive-fraction",
        "validity_range-fraction"])
def test_a_large_int_is_rejected_and_quoted_by_its_size(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


def _message(call):
    with pytest.raises(VesprodError) as caught:
        call()
    return f"{type(caught.value).__name__}: {caught.value}"


@pytest.mark.parametrize("value, text", [(0.0, "0.0"), (-1.0, "-1.0"), (math.nan, "nan"),
                                         (math.inf, "inf")])
def test_rejected_numbers_keep_their_messages(value, text):
    cd = CobbDouglasParams(2.0, 0.4)
    p = LogLinearParams(a=1.0, b=0.5, c=1.2)
    positive = f"must be {'positive' if math.isfinite(value) else 'finite'}, got {text}"
    checks = {
        "A": (lambda: CobbDouglasParams(value, 0.4), f"ParamError: A {positive}"),
        "capital-labor ratio": (lambda: eval_intensive(cd, value), None),
        "capital input": (lambda: eval_extensive(cd, value, 1.0), None),
        "labor input": (lambda: eval_extensive(cd, 1.0, value), None),
        "k0": (lambda: calibrate_xi(p, value), None),
        "k_start": (lambda: ode_integrate_theorem(_V, value, 0.5, 2.0, 100), None),
        "y_start": (lambda: ode_integrate_theorem(_V, 1.0, value, 2.0, 100), None),
        "k_end": (lambda: ode_integrate_theorem(_V, 1.0, 0.5, value, 100), None),
    }
    if value != 0.0:  # a zero tolerance is admitted
        checks["tol"] = (lambda: reduce_special_case(p, value),
                         f"ParamError: tol must be a non-negative float, got {text}")
        checks["tolerance"] = (lambda: verify_ode(_V, 1.0, 2.0, 100, value),
                               f"ParamError: tolerance must be a non-negative finite number, "
                               f"got {text}")
    for name, (call, expected) in checks.items():
        expected = expected or f"DomainError: {name} must be positive and finite, got {text}"
        assert _message(call) == expected, name


@pytest.mark.parametrize("call, given", [
    (lambda: ves_from_loglinear(LogLinearParams(a=2.0, b=0.5, c=0.3, xi=1e308)),  # mu = -inf
     "ves_from_loglinear(LogLinearParams(a=2.0, b=0.5, c=0.3, xi=1e+308))"),
    # lam rounds to -1 too, but mu = -1/5e-324 is not finite, which is reported first
    (lambda: ves_from_loglinear(LogLinearParams(a=1.0, b=5e-324, c=9007199254740996.0, xi=1.0)),
     "ves_from_loglinear(LogLinearParams(a=1.0, b=5e-324, c=9007199254740996.0, xi=1.0))"),
    (lambda: loglinear_from_ves(VESParams(0.5, 1e308, 0.5, 1.0)),  # xi = inf
     "loglinear_from_ves(VESParams(lam=0.5, mu=1e+308, theta=0.5, psi=1.0))"),
    (lambda: lf_from_lh(LogLinearParams(a=0.5, b=0.5, c=0.3, xi=-1e308)),  # zeta = inf
     "lf_from_lh(LogLinearParams(a=0.5, b=0.5, c=0.3, xi=-1e+308))"),
], ids=["ves_from_loglinear", "ves_from_loglinear-lam", "loglinear_from_ves", "lf_from_lh"])
def test_a_parameter_map_without_a_finite_result_is_singular(call, given):
    # not a ParamError about mu, xi or zeta, which the caller never gave
    with pytest.raises(SingularError) as caught:
        call()
    assert str(caught.value) == f"{given}: the result is not finite"
