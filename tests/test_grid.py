"""The grid pass of the verifiers against their scalar loop.

``families._grid_pass`` runs a caller's ``run(k, _on_grid)`` over the float64
array of a grid's points, and ``families._on_grid`` evaluates one closed-form
method over a whole grid of k in one call; the grid's ``**`` is
``np.float_power``, which calls libm's ``pow`` as Python's float ``**`` does.
Its values must equal the public kernels' bit for bit, or it must raise a
failure on which the grid pass falls back to the scalar loop.  Every
verifier must give the same report, or raise the same exception, with the
grid pass and without it.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import without_grid_pass
from vesprod import (
    CESParams,
    CobbDouglasParams,
    DomainError,
    LiuHildebrandParams,
    LogLinearParams,
    LuFletcherParams,
    ParamError,
    SatoHoffmanParams,
    VESParams,
    bracket_base,
    eval_intensive,
    intensive_derivative,
    intensive_second_derivative,
    mrs_closed,
    mrs_derivative_closed,
    reduce_special_case,
    sigma_closed,
    sigma_derivative_closed,
    verify_equivalence_lh_lf,
    verify_family,
    verify_reduction,
    verify_sato_hoffman,
    ves_from_loglinear,
)
from vesprod.families import _grid_pass, _grid_type, _NoValue, _on_grid
import vesprod.oracles as oracles_module

_KERNELS = {"_bracket": bracket_base, "_y": eval_intensive, "_dy": intensive_derivative,
            "_d2y": intensive_second_derivative, "_R": mrs_closed, "_dR": mrs_derivative_closed,
            "_sigma": sigma_closed, "_dsigma": sigma_derivative_closed}

_ANY = st.one_of(st.floats(-1e300, 1e300), st.floats(-3.0, 3.0))
_POSITIVE = st.one_of(st.floats(1e-300, 1e300), st.floats(0.05, 3.0))
_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def _specs(draw):
    """One of the six families, its parameters across the double range and
    near 1."""
    family = draw(st.sampled_from(["ves", "cd", "ces", "lh", "lf", "sh"]))
    try:
        if family == "ves":
            return VESParams(draw(_ANY), draw(_ANY), draw(_ANY), draw(_POSITIVE))
        if family == "cd":
            return CobbDouglasParams(draw(_POSITIVE), draw(_UNIT))
        if family == "ces":
            return CESParams(draw(_POSITIVE), draw(_UNIT), draw(_POSITIVE))
        if family in ("lh", "lf"):
            wage_form = LiuHildebrandParams if family == "lh" else LuFletcherParams
            return wage_form(draw(_POSITIVE), draw(_POSITIVE),
                             draw(st.one_of(st.floats(0.0, 1e300), st.floats(0.0, 2.0))), draw(_ANY))
        delta = draw(st.one_of(_UNIT, st.sampled_from([0.5, 0.25, 0.125])))
        rho = draw(st.one_of(st.floats(0.0, 1.0).map(lambda t: t / delta), st.just(1.0 / delta),
                             st.floats(1.0, 3.0)))
        return SatoHoffmanParams(draw(_POSITIVE), delta, rho)
    except ParamError:
        return CobbDouglasParams(1.0, 0.5)


@st.composite
def _cases(draw):
    """(spec, grid): a strictly increasing grid anywhere in the double range,
    a log-spaced one, or one around a point where the sign of the bracket,
    R, R' or sigma can change or a power overflows (a root, the Sato-Hoffman
    bound, a pole of sigma)."""
    spec = draw(_specs())
    kind = draw(st.sampled_from(["anywhere", "window", "cut"]))
    cuts = spec._sign_changes()
    if kind == "cut" and cuts:
        centre = math.exp(min(max(draw(st.sampled_from(cuts)), -744.0), 709.0))
        points = [centre * f for f in draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=6))]
    elif kind == "window":
        lo, ratio = draw(st.floats(1e-3, 1e3)), draw(st.floats(1.0, 1e3))
        points = np.geomspace(lo, lo * ratio, draw(st.integers(1, 16))).tolist()
    else:
        points = draw(st.lists(st.floats(5e-324, 1.79e308), min_size=1, max_size=6))
    grid = sorted({k for k in points if 0.0 < k < math.inf})
    return spec, grid or [1.0]


_VES = VESParams(lam=-2.0, mu=1.0, theta=2.0, psi=1.0)  # bracket 1 - 1/k: root at k = 1
_VES_POLE = VESParams(lam=-0.5, mu=1.0, theta=2.0, psi=1.0)  # R' = 2k - 0.5: sigma's pole at 0.25
_SH = SatoHoffmanParams(gamma=1.0, delta=0.5, rho=0.5)  # bound 1.5
# bound 3.2500000000000004, but the bracket 0.325 - 0.1 k rounds to 0 at k = 3.25
_SH_ROUNDED = SatoHoffmanParams(gamma=1.0, delta=0.75, rho=0.9)
_LH = LiuHildebrandParams(1.0, 0.5, 0.2, 1.0)  # bracket root between 0.3 and 1
_REFERENCE = VESParams(lam=0.1538, mu=-3.8236, theta=1.2757, psi=1.0815)
_EXAMPLES = [
    (_VES, [0.5, 2.0]),                            # straddles the bracket root
    (_VES, [0.2, 0.5]),                            # bracket negative at every point
    (_VES_POLE, [0.2, 0.25, 0.3]),                 # straddles a pole of sigma
    (_SH, [1.0, 1.4, 1.6]),                        # straddles the Sato-Hoffman bound
    (_SH, [2.0, 3.0]),                             # outside the bound at every point
    (CobbDouglasParams(1e300, 0.5), [1e10, 1e300]),  # y overflows at one point
    (CESParams(1.0, 0.5, 1e-3), [0.1, 0.2]),       # k^((s-1)/s) overflows at every point
    (_REFERENCE, np.geomspace(2.4, 80.0, 64).tolist()),
    (LiuHildebrandParams(1.0, 0.5, 0.2, -1.0), np.geomspace(0.1, 10.0, 16).tolist()),
    (LuFletcherParams(1.0, 0.5, 0.2, 1.0), np.geomspace(0.1, 10.0, 16).tolist()),
    (SatoHoffmanParams(1.0, 0.5, 1.5), [1e-200, 1.0]),  # a step that underflows
]


def _values_or_none(spec, method, *grids):
    """_on_grid's rows of values over the grids (all of one length), one call
    over them all in the grid pass, or None where the grid pass falls back to
    the scalar loop."""
    points = [k for grid in grids for k in grid]
    return _grid_pass(lambda k, at: at(spec, method, *k.reshape(len(grids), -1)), points)


def _hex(values):
    return [v.hex() for v in values.tolist()]


def _with_examples(**others):
    def decorate(test):
        for case in _EXAMPLES:
            test = example(case=case, **others)(test)
        return test
    return decorate


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_cases())
@_with_examples()
def test_on_grid_equals_the_kernels_bit_for_bit_or_returns_none(case):
    spec, grid = case
    # one call over several arrays (the grid pass's k and k +- h) gives, row by
    # row, the bits of one call per array, which are the scalar kernels'
    grids = (grid, grid[::-1], grid)
    for method, kernel in _KERNELS.items():
        rows = _values_or_none(spec, method, *grids)
        alone = [_values_or_none(spec, method, points) for points in grids]
        # the arrays hold the same points, so they fail together or not at all
        assert (rows is None) == (alone[0] is None) == (alone[1] is None), method
        if rows is None:
            continue
        assert len(rows) == len(grids) and all(len(row) == 1 for row in alone), method
        for points, row, (single,) in zip(grids, rows, alone):
            assert _hex(row) == _hex(single) == [kernel(spec, k).hex() for k in points], method


def _outcome(call, *args):
    try:
        return repr(call(*args))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_cases(), target=_specs(),
       tolerance=st.sampled_from([1e-6, 1e-10, 0.0, 1.0, math.nan]),
       p=st.builds(LogLinearParams, a=st.floats(0.2, 5.0), b=st.floats(0.1, 1.5),
                   c=st.floats(0.0, 1.5, exclude_min=True), xi=st.floats(-4.0, 4.0)))
@_with_examples(target=_REFERENCE, tolerance=1e-6, p=LogLinearParams(1.0, 0.5, 0.2, -1.0))
@example(case=(_REFERENCE, [1e7, 1e8, 1e9]), target=_REFERENCE, tolerance=1e-6,  # fails on sigma
         p=LogLinearParams(1.0, 0.5, 0.2, -1.0))
def test_verifiers_report_the_same_with_and_without_the_grid_pass(case, target, tolerance, p):
    spec, grid = case
    calls = [(verify_family, spec, grid, tolerance),
             (verify_reduction, spec, target, grid, tolerance),
             (verify_reduction, spec, spec, grid, tolerance),
             (verify_equivalence_lh_lf, p, grid, tolerance)]
    if isinstance(spec, SatoHoffmanParams):
        calls.append((verify_sato_hoffman, spec, grid, tolerance))
    with_grid = [_outcome(*call) for call in calls]
    with pytest.MonkeyPatch.context() as patch:
        without_grid_pass(patch)
        assert [_outcome(*call) for call in calls] == with_grid


@pytest.mark.parametrize("spec, grid, method", [
    (_VES, [0.2, 0.5], "_y"),          # the bracket test fails at every point
    (_SH, [2.0, 3.0], "_y"),           # _check_domain fails at every point
    (_SH, [2.0, 3.0], "_sigma"),
    (_VES, [0.5, 2.0], "_y"),          # a branch that the points do not all take
    (_SH, [1.0, 2.0], "_R"),
    (_LH, [0.3, 10.0], "_y"),
    (_SH_ROUNDED, [1.0, 3.25], "_R"),  # y is finite there; R divides by zero
])
def test_a_grid_that_fails_returns_none(spec, grid, method):
    # a method with no value at the points raises the bare _NoValue, which formats no k
    assert _values_or_none(spec, method, grid) is None
    # and so is the grid pass of a run that raises what it catches: an
    # ArithmeticError (_NoValue among them)
    for failure in (ZeroDivisionError, _NoValue):
        def run(k, at, failure=failure):
            raise failure
        assert _grid_pass(run, grid) is None

    def outside(k, at):
        raise DomainError("outside")
    with pytest.raises(DomainError, match="^outside$"):  # a VesprodError goes through
        _grid_pass(outside, grid)
    # or whose float64 operations overflow, divide by zero or are invalid:
    # the errstate holds inside the grid pass
    for operation in (lambda k: k * 1e308 * 1e308, lambda k: k / (k - k),
                      lambda k: (k - k) / (k - k)):
        assert _grid_pass(lambda k, at: operation(k), grid) is None


@pytest.mark.parametrize("spec, grid, first", [
    (_VES, [0.5, 3.0], 0.5),
    (_LH, [0.3, 10.0], 0.3),
    (_SH, [1.0, 1.5], 1.5),          # reaches the bound
    (_SH_ROUNDED, [1.0, 3.25], 3.25),  # below the bound
])
def test_a_grid_across_a_bracket_root_takes_the_scalar_loop(monkeypatch, spec, grid, first):
    # verify_family's grid pass tests no bracket: y or R has failed where one is not positive
    passes = []

    def recorded(*args, body=oracles_module._grid_pass):
        passes.append(body(*args))
        return passes[-1]
    monkeypatch.setattr(oracles_module, "_grid_pass", recorded)
    with pytest.raises(DomainError) as info:
        verify_family(spec, grid)
    assert passes == [None]
    assert str(info.value) == f"k = {first:.12g} is outside the validity range (violated: bracket>0)"


_CES_LIMIT = LogLinearParams(1.0, 0.6, 1.0, -1.0)  # c = 1: VES reduces to CES


@pytest.mark.parametrize("verify, args", [
    (verify_sato_hoffman, (_SH, np.geomspace(0.05, 1.4, 32).tolist())),
    (verify_equivalence_lh_lf, (LogLinearParams(1.0, 0.5, 0.2, -1.0),
                                np.geomspace(0.1, 10.0, 50).tolist())),
    (verify_reduction, (ves_from_loglinear(_CES_LIMIT), reduce_special_case(_CES_LIMIT),
                        np.geomspace(0.1, 10.0, 50).tolist())),
], ids=["sato-hoffman", "equivalence", "reduction"])
def test_the_other_verifiers_finish_in_the_grid_pass(monkeypatch, verify, args):
    # a grid pass that always failed would give the same reports from the
    # scalar loop, only slower: on a valid float grid no method sees a scalar k
    calls = []
    for cls in (VESParams, CESParams, LiuHildebrandParams, LuFletcherParams, SatoHoffmanParams):
        for method in _KERNELS:
            def counted(spec, k, body=getattr(cls, method)):
                calls.append(k)
                return body(spec, k)
            monkeypatch.setattr(cls, method, counted)
    assert verify(*args).passed
    assert calls and all(isinstance(k, _grid_type()) for k in calls)


def test_the_truth_of_a_grid_is_the_common_truth_of_its_points():
    grid = _grid_type()
    ks = grid(np.array([1.0, 2.0, 3.0]))
    assert bool(ks > 0.5) and bool(ks < 5.0)
    # a branch holds at every point or has no value
    for no_value in (ks > 1.5, ks > 5.0):
        with pytest.raises(_NoValue):
            bool(no_value)
    # > and < are pointwise
    plain = ks.a
    for compare in (lambda x, y: x > y, lambda x, y: x < y):
        for other in (2.0, np.float64(2.0), grid(np.array([3.0, 2.0, 1.0]))):
            truth = compare(ks, other)
            assert type(truth) is grid
            assert truth.a.tolist() == compare(plain, getattr(other, "a", other)).tolist()
    # every arithmetic operator both ways round gives the grid type with the
    # plain ndarray's bits
    for other in (0.3, np.float64(0.3), 7):
        for apply in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
                      lambda x, y: x / y):
            for result, want in ((apply(ks, other), apply(plain, other)),
                                 (apply(other, ks), apply(other, plain))):
                assert type(result) is grid
                assert _hex(result.a) == _hex(want)
        # ** is libm's pow, as a float's ** is
        assert _hex((ks ** other).a) == [(k ** float(other)).hex() for k in plain.tolist()]
    # numpy defers to the grid's own operators: a ufunc of the grid itself raises
    for ufunc in (np.add, np.exp, np.float_power):
        with pytest.raises(TypeError):
            ufunc(ks, 1.0) if ufunc.nin == 2 else ufunc(ks)


def test_the_degree_one_param_error_goes_through_the_grid_pass():
    # the one VesprodError a closed-form method raises: the grid pass raises it
    # with the message the scalar loop gives
    spec = SatoHoffmanParams(gamma=1.0, delta=0.5, rho=0.5, alpha=2.0)
    message = "^substitution formulas assume degree one; alpha = 2.0 is not supported here$"
    with pytest.raises(ParamError, match=message):
        _grid_pass(lambda k, at: at(spec, "_R", k), [0.5, 1.0])
    with pytest.raises(ParamError, match=message):
        mrs_closed(spec, 0.5)


def test_on_grid_lets_other_exceptions_through(monkeypatch):
    def broken(spec, k):
        raise TypeError("not a floating-point failure")
    monkeypatch.setattr(CobbDouglasParams, "_y", broken)
    spec = CobbDouglasParams(2.0, 0.4)
    with pytest.raises(TypeError, match="not a floating-point failure"):
        _on_grid(spec, "_y", np.array([1.0, 2.0]))


def test_the_grid_pass_needs_numpy_loaded_and_float_parameters(monkeypatch):
    # the grid pass's k is the plain float64 array of the points, and its at
    # _on_grid: no grid of k leaves families
    def run(k, at):
        return k, at
    points, at = _grid_pass(run, [1, 2.0])
    assert type(points) is np.ndarray and points.dtype == np.float64
    assert points.tolist() == [1.0, 2.0] and at is _on_grid
    # every spec holds float parameters: one given as an int or a numpy scalar
    # takes the grid pass and gives its float twin's report
    grid = [0.5, 1.0, 2.0]
    for spec, twin in ((CobbDouglasParams(2, 0.4), CobbDouglasParams(2.0, 0.4)),
                       (CobbDouglasParams(np.float64(2.0), 0.4), CobbDouglasParams(2.0, 0.4)),
                       (SatoHoffmanParams(1, np.float64(0.5), 1.5),
                        SatoHoffmanParams(1.0, 0.5, 1.5)),
                       (VESParams(0, 1, 2, 1), VESParams(0.0, 1.0, 2.0, 1.0))):
        assert _grid_pass(lambda k, at: at(spec, "_y", k), [1.0]) is not None
        assert repr(verify_family(spec, grid)) == repr(verify_family(twin, grid))
    # what is no family spec _on_grid rejects with the scalar kernels' TypeError
    spec = LogLinearParams(1.0, 0.5, 0.2, -1.0)
    with pytest.raises(TypeError, match="unsupported family spec: LogLinearParams"):
        _grid_pass(lambda k, at: at(spec, "_y", k), [1.0])
    calls = (lambda: verify_family(spec, [1.0]), lambda: verify_family("cd", [1.0]),
             lambda: verify_reduction(_SH, spec, [1.0]))
    for call in calls:
        with pytest.raises(TypeError, match="unsupported family spec"):
            call()
    # with the scalar loop's message
    with_grid = [_outcome(call) for call in calls]
    with pytest.MonkeyPatch.context() as patch:
        without_grid_pass(patch)
        assert [_outcome(call) for call in calls] == with_grid
    # the grid pass catches no TypeError
    def broken(k, at):
        raise TypeError("not a floating-point failure")
    with pytest.raises(TypeError, match="not a floating-point failure"):
        _grid_pass(broken, [1.0])
    monkeypatch.delitem(sys.modules, "numpy")
    assert _grid_pass(run, [1.0]) is None
