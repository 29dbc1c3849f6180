import contextlib
import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import draw_ves_structural, relerr, without_grid_pass
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
    eval_intensive,
    mrs_closed,
    mrs_derivative_closed,
    ode_integrate_theorem,
    reduce_special_case,
    sigma_closed,
    sigma_derivative_closed,
    validity_range,
    verify_equivalence_lh_lf,
    verify_family,
    verify_ode,
    verify_reduction,
    verify_sato_hoffman,
    ves_from_loglinear,
)
from vesprod.cli import main
from vesprod.families import _grid_type, _on_grid, _quote
import vesprod.families as families_module
import vesprod.oracles as oracles_module


# ---------------------------------------------------------------------------
# ODE integration
# ---------------------------------------------------------------------------

def test_ode_hand_case():
    # lam=0, mu=1, theta=2: y = k/(1+k); y(1) = 1/2, y(2) = 2/3
    v = VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0)
    y_end = ode_integrate_theorem(v, 1.0, 0.5, 2.0, 10000)
    assert relerr(y_end, 2.0 / 3.0) < 1e-10


def test_ode_zero_length_path_is_exact():
    v = VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0)
    assert ode_integrate_theorem(v, 1.3, 0.77, 1.3, 100) == 0.77


def test_ode_matches_closed_form_on_reference_fit(reference_fit_ves):
    y_start = eval_intensive(reference_fit_ves, 2.2)
    y_end = ode_integrate_theorem(reference_fit_ves, 2.2, y_start, 5.0, 10000)
    assert relerr(y_end, eval_intensive(reference_fit_ves, 5.0)) < 1e-6


def test_ode_backward_path():
    v = VESParams(lam=0.3, mu=0.8, theta=1.7, psi=1.2)
    y2 = eval_intensive(v, 2.0)
    y1 = ode_integrate_theorem(v, 2.0, y2, 0.7, 20000)
    assert relerr(y1, eval_intensive(v, 0.7)) < 1e-10


def _convergence_errors(v, k0, k1):
    """(n, err(n), err(2n)) with err(n) inside the truncation-dominated band."""
    y0 = eval_intensive(v, k0)
    y_ref = eval_intensive(v, k1)
    n = 8
    err = relerr(ode_integrate_theorem(v, k0, y0, k1, n), y_ref)
    while err > 1e-4 and n < 2 ** 14:
        n *= 2
        err = relerr(ode_integrate_theorem(v, k0, y0, k1, n), y_ref)
    err2 = relerr(ode_integrate_theorem(v, k0, y0, k1, 2 * n), y_ref)
    return n, err, err2


def test_ode_fourth_order_convergence(rng):
    shrunk = 0
    for _ in range(10):
        v = draw_ves_structural(rng)
        n, err, err2 = _convergence_errors(v, 0.4, 2.8)
        if err < 1e-11:
            continue  # already at the floating-point floor
        assert err / err2 >= 15.0, (v, n, err, err2)
        shrunk += 1
    assert shrunk >= 8


def test_ode_singular_denominator():
    # (1+lam) k + mu k^theta = -k + k^2 crosses zero at k = 1
    v = VESParams(lam=-2.0, mu=1.0, theta=2.0, psi=1.0)
    with pytest.raises(SingularError):
        ode_integrate_theorem(v, 0.5, 1.0, 2.0, 100)


def test_ode_passes_next_to_a_root_of_its_denominator(capsys):
    # (1+lam) k + mu k^theta = k (k - 1) vanishes a thousandth from the path:
    # steps uniform in k read 2.06e-7 at 10,000 steps and 1.41e-3 at 1,000
    v = VESParams(lam=-2.0, mu=1.0, theta=2.0, psi=1.0)
    for k_start, k_end, steps in [(1.001, 2.0, 10000), (1.001, 2.0, 1000), (2.0, 1.001, 10000)]:
        assert verify_ode(v, k_start, k_end, steps).passed
    argv = "verify --suite ode --lambda -2 --mu 1 --theta 2 --psi 1 --k-from 1.001 --k-to 2"
    assert main(argv.split()) == 0
    assert capsys.readouterr().out.endswith(": PASS\nworst: k = 2.00000000000, quantity = y\n")


@pytest.mark.parametrize("v, k_start, k_end", [
    (VESParams(lam=0.0, mu=1.0, theta=1e4, psi=0.5), 2.0, 3.0),           # k^theta
    (VESParams(lam=-1.0 + 1e-15, mu=1e-15, theta=2.0, psi=1.0), 1.0, 2.0),  # y: den ~ 1e-15 k (1+k)
    (VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0), 1e-310, 2e-310),    # 1/den, den subnormal
])
def test_ode_overflow_is_singular(v, k_start, k_end):
    with pytest.raises(SingularError, match="overflows"):
        ode_integrate_theorem(v, k_start, 1.0, k_end, 64)


def test_ode_node_rounding_below_zero_is_a_domain_error():
    # the last node k_start + (steps-1) h + h of a path down to 3.3e-157 rounds
    # below 0, where k^theta is complex; with a node exactly 0, 0^theta < 0 divides by zero
    v = ves_from_loglinear(LogLinearParams(a=2.6222489997406666, b=0.5, c=1.9981682408774857,
                                           xi=-2.2977550030302227))
    with pytest.raises(DomainError, match="k <= 0"):
        verify_ode(v, 2.4998678075824543, 3.2769317457538814e-157, 129)
    with pytest.raises(DomainError, match="k <= 0"):
        ode_integrate_theorem(VESParams(lam=0.0, mu=1.0, theta=-0.5, psi=1.0), 1.0, 1.0,
                              1e-20, 2)


def test_verify_ode_underflowing_y_is_singular():
    # y(1) = psi/2 rounds to 0 for the least subnormal psi
    v = VESParams(lam=0.0, mu=1.0, theta=2.0, psi=5e-324)
    with pytest.raises(SingularError, match="underflows"):
        verify_ode(v, 2.0, 1.0, 64)


def test_verify_ode_default_window_report():
    # the figures `vesprod verify --suite ode` prints
    v = VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0)
    report = verify_ode(v, 1.0, 2.0, 10000)
    assert (report.check_name, report.points_checked, f"{report.max_rel_error:.6e}",
            report.tolerance, report.passed, report.worst_k, report.worst_quantity) == (
        "ode", 10000, "1.665335e-16", 1e-9, True, 2.0, "y")
    assert not verify_ode(v, 1.0, 2.0, 20, tolerance=1e-12).passed


def _ode_variable(v, k_start, k_end):
    """(root, side, x_start, x_end): the ODE steps uniformly in x = k, with
    root None, or in x = ln|k - root| on the side of the root k_start lies."""
    root = oracles_module._root_beside(v, k_start, k_end)
    if root is None:
        return None, None, k_start, k_end
    return (root, math.copysign(1.0, k_start - root), math.log(abs(k_start - root)),
            math.log(abs(k_end - root)))


def _loop_ln_y(v, k_start, y_start, k_end, steps):
    """ln y at k_end from the scalar RK4 loop the array oracle replaced, with
    its errors and its mesh; the caller takes the exponential."""
    lam, mu, th = v.lam, v.mu, v.theta
    root, side, x_start, x_end = _ode_variable(v, k_start, k_end)

    def slope(x):
        k = x if root is None else root + side * math.exp(x)
        den = (1.0 + lam) * k + mu * k ** th
        if den == 0.0:
            raise SingularError(f"(1+lam) k + mu k^theta vanishes at k = {k:.12g}")
        if math.copysign(1.0, den) != sign0:
            raise SingularError(f"(1+lam) k + mu k^theta changes sign at k = {k:.12g}")
        return 1.0 / den if root is None else (k - root) / den

    h = (x_end - x_start) / steps
    ln_y = math.log(y_start)
    try:
        sign0 = math.copysign(1.0, (1.0 + lam) * k_start + mu * k_start ** th)
        for i in range(steps):
            x = x_start + i * h
            s1 = slope(x)
            s_mid = slope(x + 0.5 * h)
            s4 = slope(x + h)
            ln_y += h / 6.0 * (s1 + 4.0 * s_mid + s4)
        return ln_y
    except OverflowError as exc:
        raise SingularError(f"k^theta or the integrated y overflows between "
                            f"k = {k_start:.12g} and k = {k_end:.12g}") from exc
    except (TypeError, ZeroDivisionError) as exc:
        raise DomainError(f"a node of the path from k = {k_start:.12g} to k = {k_end:.12g} "
                          "rounds to k <= 0, where k^theta is not real") from exc


def _exp_or_inf(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _ulps_away(x, n):
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


_ODE_LOOP_MAX_ULPS = 4  # numpy's power may differ from libm's in the last bit


@st.composite
def _ode_cases(draw):
    """(v, k_start, y_start, k_end, steps) with integer and non-integer theta,
    paths up and down, and y_start anywhere in the double range."""
    lam = draw(st.one_of(st.just(0.0), st.floats(-5.0, 5.0).filter(lambda x: x != -1.0)))
    mu = draw(st.floats(-5.0, 5.0).filter(lambda x: abs(x) > 1e-6))
    theta = draw(st.one_of(st.integers(-6, 12).map(float), st.floats(-20.0, 20.0))
                 .filter(lambda x: x != 1.0))
    k_start = draw(st.floats(1e-3, 1e3))
    ratio = draw(st.one_of(st.floats(1e-3, 1.0), st.floats(1.0, 1e3),
                           st.sampled_from([1e-20, 1e-160])))
    y_start = draw(st.one_of(st.floats(1e-3, 1e3), st.floats(1e-300, 1e300)))
    steps = draw(st.sampled_from([2, 3, 64, 129, 10000]))
    return VESParams(lam=lam, mu=mu, theta=theta, psi=1.0), k_start, y_start, k_start * ratio, steps


_ODE_EXAMPLES = [
    (VESParams(0.0, 1.0, 2.0, 1.0), 1e-310, 1.0, 2e-310, 100),      # ln y = inf
    (VESParams(0.0, 1.0, 1e4, 0.5), 2.0, 1.0, 3.0, 64),            # k^theta
    (VESParams(-2.0, 1.0, 2.0, 1.0), 0.5, 1.0, 2.0, 100),          # sign change
    (VESParams(-2.0, 1.0, 2.0, 1.0), 0.5, 1.0, 1.0, 2),            # den = 0
    (VESParams(0.0, 1.0, -0.5, 1.0), 1.0, 1.0, 1e-20, 2),          # 0^theta < 0
    (VESParams(0.0, 1.0, 3.996, 1.0), 2.4998678075824543, 1.0,
     3.2769317457538814e-157, 129),                                 # (-k)^theta complex
    (VESParams(0.0, 1.0, -50.5, 1.0), 2.4998678075824543, 1.0,
     3.2769317457538814e-157, 129),                                 # |(-k)^theta| = inf
    (VESParams(0.0, 1.0, 2.0, 1.0), 1.0, 1e300, 2.0, 64),          # exp overflows
]


def _with_ode_examples(test):
    for case in reversed(_ODE_EXAMPLES):
        test = example(case=case)(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_ode_cases())
@_with_ode_examples
def test_ode_matches_the_scalar_loop(case):
    try:
        ln_ref = _loop_ln_y(*case)
    except VesprodError as exc:
        with pytest.raises(type(exc)) as caught:
            ode_integrate_theorem(*case)
        assert str(caught.value) == str(exc)
        return
    # the loop's ln y turned infinite or nan where a denominator was subnormal or overflowed
    lo, hi = ((_exp_or_inf(_ulps_away(ln_ref, -_ODE_LOOP_MAX_ULPS)),
               _exp_or_inf(_ulps_away(ln_ref, _ODE_LOOP_MAX_ULPS)))
              if math.isfinite(ln_ref) else (math.inf, math.inf))
    try:
        y = ode_integrate_theorem(*case)
    except SingularError as exc:
        assert hi == math.inf and "overflows" in str(exc)
        return
    assert lo <= y <= hi < math.inf


def _step_major_ode(v, k_start, y_start, k_end, steps):
    """ode_integrate_theorem's body on a (steps, 3) array of nodes, row i
    holding step i's three stages; the stage-major oracle must give its
    bits and its errors."""
    if k_end == k_start:
        return y_start
    lam, mu, th = v.lam, v.mu, v.theta
    overflow = SingularError(f"k^theta or the integrated y overflows between "
                             f"k = {k_start:.12g} and k = {k_end:.12g}")
    root, side, x_start, x_end = _ode_variable(v, k_start, k_end)
    h = (x_end - x_start) / steps
    x = x_start + np.arange(steps) * h
    nodes = x[:, None] + np.array([0.0, 0.5 * h, h])
    if root is not None:
        nodes = np.exp(nodes) * side + root
    with np.errstate(all="ignore"):
        den = nodes ** th
        finite = np.isfinite(den)
        den *= mu
        den += (1.0 + lam) * nodes
        bad = ~finite | (den == 0.0) | (np.signbit(den) != np.signbit(den[0, 0]))
        first = int(np.argmax(bad))
        if bad.flat[first]:
            node = nodes.flat[first]
            if node != 0.0 and np.isinf(abs(node) ** th):
                raise overflow
            if not finite.flat[first]:
                raise DomainError(f"a node of the path from k = {k_start:.12g} to "
                                  f"k = {k_end:.12g} rounds to k <= 0, where k^theta is not real")
            what = "vanishes" if den.flat[first] == 0.0 else "changes sign"
            raise SingularError(f"(1+lam) k + mu k^theta {what} at k = {node:.12g}")
        slope = np.divide(1.0, den, out=den)
        if root is not None:
            slope *= nodes - root
        increments = h / 6.0 * (slope[:, 0] + 4.0 * slope[:, 1] + slope[:, 2])
    ln_y = float(np.add.accumulate(np.concatenate(([math.log(y_start)], increments)))[-1])
    if math.isfinite(ln_y):
        with contextlib.suppress(OverflowError):
            return math.exp(ln_y)
    raise overflow


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_ode_cases())
@_with_ode_examples
# the first failing node in step order is step 2's midpoint; a scan of the
# stage rows would meet step 3's left end, k = 0.65, first
@example(case=(VESParams(-2.0, 1.0, 2.0, 1.0), 2.0, 1.0, 0.2, 4))
# (1+lam) k = -inf and mu k^theta = inf: a NaN denominator that no node
# flags, which must still reach the overflow error
@example(case=(VESParams(-1e301, 1e300, 2.0, 1.0), 1e8, 1.0, 2e8, 100))
def test_ode_is_bit_equal_to_the_step_major_body(case):
    try:
        expected = _step_major_ode(*case)
    except VesprodError as exc:
        with pytest.raises(type(exc)) as caught:
            ode_integrate_theorem(*case)
        assert str(caught.value) == str(exc)
        return
    assert ode_integrate_theorem(*case).hex() == expected.hex()


@pytest.mark.parametrize("case, message", [
    ((VESParams(-2.0, 1.0, 2.0, 1.0), 2.0, 1.0, 0.2, 4),
     "(1+lam) k + mu k^theta changes sign at k = 0.875"),
    ((VESParams(-1e301, 1e300, 2.0, 1.0), 1e8, 1.0, 2e8, 100),
     "k^theta or the integrated y overflows between k = 100000000 and k = 200000000"),
], ids=["sign-change-at-a-midpoint", "inf-minus-inf"])
def test_ode_reports_the_first_failure_in_step_order(case, message):
    with pytest.raises(SingularError) as caught:
        ode_integrate_theorem(*case)
    assert str(caught.value) == message


def _allocating_ode(v, k_start, y_start, k_end, steps):
    """ode_integrate_theorem's body with every array allocated for the call,
    as it was before the per-thread workspace; the workspace must give its
    bits and its errors."""
    if k_end == k_start:
        return y_start
    lam, mu, th = v.lam, v.mu, v.theta
    overflow = SingularError(f"k^theta or the integrated y overflows between "
                             f"k = {k_start:.12g} and k = {k_end:.12g}")
    root, side, x_start, x_end = _ode_variable(v, k_start, k_end)
    h = (x_end - x_start) / steps
    x = x_start + np.arange(steps) * h
    stages = (0.0, 0.5 * h, h)
    nodes = np.empty((3, steps))
    for j, stage in enumerate(stages):
        np.add(x, stage, out=nodes[j])
    if root is not None:
        nodes = np.exp(nodes) * side + root
    k_nodes = nodes.copy()
    with np.errstate(all="ignore"):
        den = nodes ** th
        finite = np.isfinite(den)
        den *= mu
        nodes *= 1.0 + lam
        den += nodes
        bad = ~finite | (den == 0.0) | (np.signbit(den) != np.signbit(den[0, 0]))
        by_step = bad.any(axis=0)
        i = int(np.argmax(by_step))
        if by_step[i]:
            j = int(np.argmax(bad[:, i]))
            node = k_nodes[j, i]
            if node != 0.0 and np.isinf(abs(node) ** th):
                raise overflow
            if not finite[j, i]:
                raise DomainError(f"a node of the path from k = {k_start:.12g} to "
                                  f"k = {k_end:.12g} rounds to k <= 0, where k^theta is not real")
            what = "vanishes" if den[j, i] == 0.0 else "changes sign"
            raise SingularError(f"(1+lam) k + mu k^theta {what} at k = {node:.12g}")
        slope = np.divide(1.0, den, out=den)
        if root is not None:
            slope *= k_nodes - root
        increments = slope[1]
        increments *= 4.0
        increments += slope[0]
        increments += slope[2]
        increments *= h / 6.0
    ln_y = float(np.add.accumulate(np.concatenate(([math.log(y_start)], increments)))[-1])
    if math.isfinite(ln_y):
        with contextlib.suppress(OverflowError):
            return math.exp(ln_y)
    raise overflow


def _workspace_cases():
    """(v, k_start, y_start, k_end, steps), seeded: theta 0.5, 2, -1, 0 (numpy's
    sqrt, square and reciprocal for **, and a constant power) and generic, paths
    up and down of 2 to 10**5 steps (past the workspace's 2**14), and the three
    error branches: a denominator that changes sign or vanishes, an overflow,
    and a node that rounds to k <= 0."""
    rng = random.Random(20)
    cases = []
    for theta in (0.5, 2.0, 2, -1.0, 0.0, None, None):
        for steps in (2, 3, 64, 1000, 10000, 2 ** 14, 2 ** 14 + 1, 10 ** 5):
            th = rng.uniform(-4.0, 4.0) if theta is None else theta
            lam, mu = rng.uniform(-3.0, 3.0), rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-2, 2)
            k_start, k_end = 10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-2, 2)
            y_start = 10 ** rng.uniform(-3, 3)
            v = VESParams(lam, mu, th, 1.0)
            cases += [(v, k_start, y_start, k_end, steps), (v, k_end, y_start, k_start, steps)]
    return cases + [
        (VESParams(-2.0, 1.0, 2.0, 1.0), 0.5, 1.0, 2.0, 100),             # changes sign
        (VESParams(-2.0, 1.0, 2.0, 1.0), 2.0, 1.0, 0.2, 4),               # at a midpoint
        (VESParams(-1.5, 1.0, 2.0, 1.0), 0.25, 1.0, 1.0, 3),              # vanishes
        (VESParams(0.0, 1.0, 1e4, 0.5), 2.0, 1.0, 3.0, 2 ** 14 + 1),      # k^theta overflows
        (VESParams(-1e301, 1e300, 2.0, 1.0), 1e8, 1.0, 2e8, 100),         # inf - inf
        (VESParams(0.0, 1.0, -0.5, 1.0), 1.0, 1.0, 1e-20, 2),             # 0^theta < 0
        (VESParams(0.0, 1.0, 3.996, 1.0), 2.4998678075824543, 1.0,
         3.2769317457538814e-157, 129),                                    # (-k)^theta complex
        (VESParams(0.0, 1e300, 2.0, 1.0), 1e5, 0.7, 2e5, 64),             # den = inf: slope 0
        (VESParams(0.0, 1.0, 2.0, 1.0), 1e-310, 1.0, 2e-310, 100),        # ln y = inf
        (VESParams(0.0, 1.0, 2.0, 1.0), 1.0, 1e300, 2.0, 64),             # exp overflows
    ]


def _outcomes(call, cases):
    """The repr of each case's result, or its exception's type and message."""
    outcomes = []
    for case in cases:
        try:
            outcomes.append(repr(call(*case)))
        except VesprodError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    return outcomes


def test_ode_in_its_workspace_keeps_the_allocating_body_bits_and_errors():
    cases = _workspace_cases()
    assert _outcomes(ode_integrate_theorem, cases) == _outcomes(_allocating_ode, cases)


def test_ode_workspaces_of_four_threads_give_the_one_thread_results():
    # more threads than cores, switching often: a workspace shared between
    # threads would mix their paths' arrays
    cases = _workspace_cases()
    expected = _outcomes(ode_integrate_theorem, cases)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            runs = list(pool.map(lambda _: _outcomes(ode_integrate_theorem, cases), range(4),
                                 timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert runs == [expected] * 4


def test_a_repeat_ode_call_allocates_no_array():
    # a count, not a timing: the allocating body peaked at about 0.75 MB here
    v = VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0)
    ode_integrate_theorem(v, 1.0, 0.5, 2.0, 10000)  # grows this thread's workspace
    tracemalloc.start()
    try:
        ode_integrate_theorem(v, 1.0, 0.5, 2.0, 10000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("v, k_start, k_end, steps", [
    (VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0), 1.0, 2.0, 10000),
    (VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0), 1.0, 2.0, 5000),
    (VESParams(lam=0.5, mu=2.0, theta=1.5, psi=1.0), 0.5, 3.0, 200),
    ("reference", 3.0, 10.0, 10000),
])
def test_ode_equals_the_scalar_loop_on_the_golden_cases(reference_fit_ves, v, k_start, k_end,
                                                         steps):
    # the `vesprod verify --suite ode` cases the golden table pins
    v = reference_fit_ves if v == "reference" else v
    y_start = eval_intensive(v, k_start)
    assert ode_integrate_theorem(v, k_start, y_start, k_end, steps) \
        == math.exp(_loop_ln_y(v, k_start, y_start, k_end, steps))


def test_ode_overflowing_denominator_has_a_zero_slope():
    # k^theta <= 4e10 is finite but mu k^theta overflows: the denominator is
    # inf and its slope 0, as in the loop; only a k^theta that is not finite
    # itself is an error
    v = VESParams(lam=0.0, mu=1e300, theta=2.0, psi=1.0)
    assert ode_integrate_theorem(v, 1e5, 0.7, 2e5, 64) \
        == math.exp(_loop_ln_y(v, 1e5, 0.7, 2e5, 64))


def test_ode_input_validation():
    v = VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0)
    with pytest.raises(DomainError):
        ode_integrate_theorem(v, -1.0, 0.5, 2.0, 100)
    with pytest.raises(DomainError):
        ode_integrate_theorem(v, 1.0, 0.0, 2.0, 100)
    with pytest.raises(DomainError):
        ode_integrate_theorem(v, 1.0, 0.5, 2.0, 1)


@pytest.mark.parametrize("fraction", [Fraction(1, 2), Fraction(1, 3), Fraction(-7, 5),
                                      Fraction(1, 10 ** 400)],
                         ids=["1/2", "1/3", "-7/5", "rounds-to-0"])
def test_ode_takes_a_fraction_as_its_nearest_float(fraction):
    # as an end point, y_start or a parameter: the call with the float in its
    # place (a ParamError from VESParams, or a DomainError, where that float is
    # 0.0 or negative); a rejected end point's message quotes the Fraction
    x = float(fraction)
    calls = [((0.1, 1.0, 0.5, 1.0), fraction, 1.0, 2.0),
             ((0.1, 1.0, 0.5, 1.0), 2.0, 1.0, fraction),
             ((0.1, 1.0, 0.5, 1.0), 0.5, fraction, 2.0),
             ((0.1, 1.0, fraction, 1.0), 0.5, 1.0, 2.0),
             ((0.1, fraction, 0.5, 1.0), 0.5, 1.0, 2.0),
             ((fraction, 1.0, 0.5, 1.0), 0.5, 1.0, 2.0)]

    def outcome(params, *path):
        try:
            return _outcomes(ode_integrate_theorem, [(VESParams(*params), *path, 16)])
        except ParamError as exc:
            return [f"ParamError: {exc}"]

    for params, *path in calls:
        with_float = [x if value is fraction else value for value in (*params, *path)]
        expected = outcome(with_float[:4], *with_float[4:])
        if any(value is fraction for value in path):
            expected = [e.replace(f"got {x!r}", f"got {fraction!r}") for e in expected]
        assert outcome(params, *path) == expected


@pytest.mark.parametrize("number", [np.longdouble(0.5), np.float32(0.5), np.longdouble(1) / 3,
                                    np.longdouble(2) / 3],
                         ids=["longdouble-1/2", "float32-1/2", "longdouble-1/3", "longdouble-2/3"])
def test_ode_takes_a_numpy_number_as_its_float64_twin(number):
    # the spec holds the float nearest a numpy theta, and the ODE admits an end
    # point or y_start so: the float64 workspace computes either
    x = float(number)
    spec, twin = VESParams(0.1, 1.0, number, 1.0), VESParams(0.1, 1.0, x, 1.0)
    assert type(spec.theta) is float and repr(spec) == repr(twin)
    v = VESParams(0.1, 1.0, 0.5, 1.0)
    pairs = [((spec, 0.5, 1.0, 2.0), (twin, 0.5, 1.0, 2.0)),
             ((v, number, 1.0, 2.0), (v, x, 1.0, 2.0)),
             ((v, 2.0, 1.0, number), (v, 2.0, 1.0, x)),
             ((v, 0.5, number, 2.0), (v, 0.5, x, 2.0))]
    for case, float_case in pairs:
        assert _outcomes(ode_integrate_theorem, [(*case, 100)]) == \
            _outcomes(ode_integrate_theorem, [(*float_case, 100)])


class _ArrayBuilt(Exception):
    pass


@pytest.mark.parametrize("steps", [10 ** 6, 10 ** 6 + 1, 2 ** 62, 10 ** 300],
                         ids=["10**6", "10**6+1", "2**62", "10**300"])
def test_ode_step_count_is_bounded_before_any_array(monkeypatch, steps):
    # np.arange builds the first array: 10**6 steps reach it, more do not
    def arange(*args, **kwargs):
        raise _ArrayBuilt
    monkeypatch.setattr(np, "arange", arange)
    v = VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0)
    if steps == 10 ** 6:
        with pytest.raises(_ArrayBuilt):
            ode_integrate_theorem(v, 1.0, 0.5, 2.0, steps)
        return
    with pytest.raises(DomainError) as caught:
        ode_integrate_theorem(v, 1.0, 0.5, 2.0, steps)
    assert str(caught.value) == f"steps must be at most 10**6, got {steps!r}"


# ---------------------------------------------------------------------------
# verify_family
# ---------------------------------------------------------------------------

def test_verify_family_reference_fit(reference_fit_ves):
    grid = list(np.geomspace(2.4, 80.0, 64))
    report = verify_family(reference_fit_ves, grid)
    assert report.passed
    assert report.max_rel_error < 1e-6
    assert report.points_checked == 64
    assert report.check_name == "family"


def test_verify_family_smooth_ces():
    report = verify_family(CESParams(gamma=1.3, delta=0.35, sigma=0.6),
                           list(np.geomspace(0.2, 10.0, 40)))
    assert report.passed
    assert report.max_rel_error < 1e-6


def test_verify_family_point_outside_validity(reference_fit_ves):
    # k = 1.0 lies below the R > 0 boundary near 2.0776
    with pytest.raises(DomainError, match="1"):
        verify_family(reference_fit_ves, [1.0, 3.0, 5.0])


def test_verify_family_zero_second_difference_is_singular():
    v = VESParams(lam=-0.6427, mu=8.2556, theta=6.0674, psi=1.7343)
    interval = validity_range(v, 1e-3, 1e3)
    grid = list(np.geomspace(interval.k_low * 1.001, interval.k_high * 0.999, 64))
    with pytest.raises(SingularError, match="k = "):
        verify_family(v, grid)


def test_verify_family_vanishing_first_difference_is_singular():
    # y = A k^beta with beta = 2.1e-46 is flat to rounding: the finite-difference y' is 0
    spec = CobbDouglasParams(A=0.5093706720837234, beta=2.0976140957680002e-46)
    with pytest.raises(SingularError, match="y' vanishes"):
        verify_family(spec, [0.5])


@pytest.mark.parametrize("k", [1e-200, 1e-320])
def test_finite_difference_step_underflow_is_singular(k):
    # the step squared (1e-200) or the step itself (1e-320) rounds to 0
    with pytest.raises(SingularError, match="step underflows"):
        verify_family(CobbDouglasParams(A=1.0, beta=0.5), [k])
    with pytest.raises(SingularError, match="step underflows"):
        verify_sato_hoffman(SatoHoffmanParams(gamma=1.0, delta=0.5, rho=1.5), [k])


def test_verify_sato_hoffman_at_unit_delta_rho_is_singular():
    # delta*rho = 1: the closed-form sigma divides by 1 - delta*rho = 0
    with pytest.raises(SingularError, match="sigma divides by zero"):
        verify_sato_hoffman(SatoHoffmanParams(gamma=1.0, delta=0.5, rho=2.0), [1.0])


def test_verify_family_detects_corruption(reference_fit_ves, monkeypatch):
    # the closed forms compared are the family's methods, which the grid pass
    # and the scalar loop both read, also where the admissibility check
    # evaluated them
    for grid_pass in (True, False):
        for method, quantity in (("_sigma", "sigma"), ("_R", "R"), ("_dR", "R_prime")):
            with monkeypatch.context() as patch:
                if not grid_pass:
                    without_grid_pass(patch)
                patch.setattr(VESParams, method,
                              lambda spec, k, body=getattr(VESParams, method): 1.01 * body(spec, k))
                report = verify_family(reference_fit_ves, list(np.geomspace(2.4, 20.0, 16)))
            assert not report.passed, (quantity, grid_pass)
            assert report.worst_quantity == quantity, grid_pass


def test_verify_family_evaluates_each_closed_form_once_per_point(reference_fit_ves, monkeypatch):
    # the grid pass calls each method once per point, with every point in one
    # array, and tests no bracket; the scalar loop evaluates R, R' and sigma in
    # violated_constraints and again in the comparisons
    grid = list(np.geomspace(2.4, 20.0, 16))
    calls, on_grid = [], []
    for method in ("_R", "_dR", "_sigma"):
        def counted(spec, k, method=method, body=getattr(VESParams, method)):
            calls.append((method, k))
            return body(spec, k)
        monkeypatch.setattr(VESParams, method, counted)

    def on_grid_counted(spec, method, *arrays):
        on_grid.append(method)
        return _on_grid(spec, method, *arrays)
    monkeypatch.setattr(families_module, "_on_grid", on_grid_counted)  # what the grid pass passes
    verify_family(reference_fit_ves, grid)
    assert on_grid == ["_y", "_R", "_dR", "_sigma", "_dsigma"]
    assert all(isinstance(k, _grid_type()) for _, k in calls)
    points = [(method, t) for method, k in calls for t in k.a.tolist()]
    for method in ("_R", "_dR", "_sigma"):
        assert [t for m, t in points if m == method and t in grid] == grid, method


def test_the_scalar_loop_evaluates_a_point_in_order(reference_fit_ves, monkeypatch):
    # the order in which one point evaluates and scores, which decides the
    # type and message of the first exception where several could be raised
    without_grid_pass(monkeypatch)
    events = []
    for method in ("_y", "_R", "_dR", "_sigma", "_dsigma"):  # not _bracket, which y calls
        def recorded(spec, t, method=method, body=getattr(VESParams, method)):
            events.append((method, t))
            return body(spec, t)
        monkeypatch.setattr(VESParams, method, recorded)
    for name in ("_mrs_identity", "_sigma_identity"):
        def identity(t, *args, name=name, body=getattr(oracles_module, name)):
            events.append((name, t))
            return body(t, *args)
        monkeypatch.setattr(oracles_module, name, identity)
    report = oracles_module._report

    def scored(name, points, tolerance, comparisons):
        def each():
            for comparison in comparisons:
                events.append(("scored " + comparison[0], comparison[1]))
                yield comparison
        return report(name, points, tolerance, each())
    monkeypatch.setattr(oracles_module, "_report", scored)
    k = 3.0
    verify_family(reference_fit_ves, [k])
    h1, h2 = (k + k * oracles_module._H1) - k, (k + k * oracles_module._H2) - k
    assert events == [
        ("_R", k), ("_dR", k), ("_sigma", k),  # violated_constraints
        ("_y", k), ("_y", k + h1), ("_y", k - h1), ("_y", k + h2), ("_y", k - h2),
        ("_mrs_identity", k), ("_R", k), ("_R", k + h1), ("_R", k - h1), ("_dR", k),
        ("scored R", k), ("scored R_prime", k),
        ("_sigma_identity", k), ("_sigma", k), ("_sigma", k + h1), ("_sigma", k - h1),
        ("scored sigma", k), ("_dsigma", k), ("scored sigma_prime", k),
    ]


def test_verifiers_name_the_first_inadmissible_point(reference_fit_ves):
    # the reference fit is valid from k = 2.0776 up to past 1e8
    with pytest.raises(DomainError) as info:
        verify_family(reference_fit_ves, [1.0, 1.5, 3.0])
    assert str(info.value) == "k = 1 is outside the validity range (violated: R>0, sigma>0)"
    with pytest.raises(DomainError) as info:
        verify_family(reference_fit_ves, [3.0, 1e300])
    assert str(info.value) == "k = 1e+300 is outside the validity range (violated: R>0)"
    with pytest.raises(DomainError) as info:
        verify_sato_hoffman(SatoHoffmanParams(gamma=1.0, delta=0.5, rho=0.5), [1.0, 1.5, 2.0])
    assert str(info.value) == "k = 1.5 is outside the admissible range k < 1.5"


def test_verify_family_grid_validation(reference_fit_ves):
    with pytest.raises(ParamError):
        verify_family(reference_fit_ves, [3.0, 2.5])
    with pytest.raises(DomainError):
        verify_family(reference_fit_ves, [-1.0, 2.5])
    with pytest.raises(ParamError):
        verify_family(reference_fit_ves, [])
    with pytest.raises(ParamError, match="grid point 'a' is not a number"):
        verify_family(reference_fit_ves, [3.0, "a"])
    with pytest.raises(ParamError, match="grid point None is not a number"):
        verify_family(reference_fit_ves, [None])


def _per_point_check(k_grid):
    """The grid's checks point by point, which name its first fault."""
    grid = []
    for k in k_grid:
        try:
            math.isfinite(k)  # a number as families._nearest_float admits it: no str or bytes
            grid.append(float(k))
        except OverflowError:
            raise DomainError(f"grid point {_quote(k)} is not a positive finite number") from None
        except (TypeError, ValueError):
            raise ParamError(f"grid point {_quote(k)} is not a number") from None
    if not grid:
        raise ParamError("k_grid must contain at least one point")
    for k in grid:
        if not (math.isfinite(k) and k > 0.0):
            raise DomainError(f"grid point {_quote(k)} is not a positive finite number")
    for lo, hi in zip(grid, grid[1:]):
        if not lo < hi:
            raise ParamError("k_grid must be strictly increasing")
    return grid


def _checked(check, k_grid):
    try:
        return [v.hex() for v in check(k_grid)]
    except VesprodError as exc:
        return type(exc), str(exc)


_GRID_POINTS = st.one_of(st.floats(), st.floats(0.1, 10.0), st.integers(-10 ** 400, 10 ** 400),
                         st.sampled_from(["a", "1.5", b"2.0", None, Fraction(1, 3),
                                          np.float64(2.0), -0.0]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(points=st.lists(_GRID_POINTS, max_size=6), ordered=st.booleans())
@example(points=[3.0, "a", -1.0], ordered=False)
@example(points=[2.0, 1.0, -1.0], ordered=False)
@example(points=[1.0, math.nan, 0.5], ordered=False)
def test_check_grid_names_the_first_fault_as_the_per_point_checks_do(points, ordered):
    # _check_grid's one path against the reference copy of its per-point
    # checks; a one-shot iterator is checked as its list is
    if ordered:
        with contextlib.suppress(TypeError, OverflowError):  # None, "a", an int past floats
            points = sorted(points)
    want = _checked(_per_point_check, points)
    for form in (list, tuple, iter):
        assert _checked(oracles_module._check_grid, form(points)) == want


@pytest.mark.parametrize("grid, first", [(["1.5", b"2.0"], "1.5"), ([1.0, b"2.0"], b"2.0"),
                                         ([1.0, "inf"], "inf"), ([np.str_("0.5")], np.str_("0.5"))])
@pytest.mark.parametrize("grid_pass", [True, False])
def test_a_str_or_bytes_grid_point_is_not_a_number(monkeypatch, grid, first, grid_pass):
    # float() would parse them, but no other numeric slot admits a str or bytes
    if not grid_pass:
        without_grid_pass(monkeypatch)
    sh, lh = SatoHoffmanParams(1.0, 0.5, 1.5), LogLinearParams(1.0, 0.5, 0.2, -1.0)
    ves = VESParams(0.0, 1.0, 2.0, 1.0)
    for call in (lambda: verify_family(ves, grid), lambda: verify_reduction(ves, ves, grid),
                 lambda: verify_equivalence_lh_lf(lh, grid), lambda: verify_sato_hoffman(sh, grid)):
        with pytest.raises(ParamError) as info:
            call()
        assert str(info.value) == f"grid point {first!r} is not a number"


def test_verify_family_deterministic(reference_fit_ves):
    grid = list(np.geomspace(2.4, 40.0, 24))
    assert verify_family(reference_fit_ves, grid) == verify_family(reference_fit_ves, grid)


def _lambda_central(f, k):
    h = k * oracles_module._H1
    t = k + h
    h = t - k
    return (f(k + h) - f(k - h)) / (2.0 * h)


def _lambda_fd_derivatives(y, k):
    h = k * oracles_module._H2
    h = (k + h) - k
    try:
        yv = y(k)
        return yv, _lambda_central(y, k), (y(k + h) - 2.0 * yv + y(k - h)) / (h * h)
    except ZeroDivisionError as exc:
        raise SingularError(f"the finite-difference step underflows at k = {k:.12g}") from exc


def _lambda_family_comparisons(spec, grid, closed):
    y = lambda k: eval_intensive(spec, k)
    for k, (R_cl, dR_cl, sig_cl) in zip(grid, closed):
        yv, yp, ypp = _lambda_fd_derivatives(y, k)
        yield "R", k, R_cl, oracles_module._mrs_identity(k, yv, yp), 0.0
        yield ("R_prime", k, dR_cl, _lambda_central(lambda t: mrs_closed(spec, t), k),
               abs(R_cl) / k)
        yield "sigma", k, sig_cl, oracles_module._sigma_identity(k, yv, yp, ypp), 0.0
        yield ("sigma_prime", k, sigma_derivative_closed(spec, k),
               _lambda_central(lambda t: sigma_closed(spec, t), k), abs(sig_cl) / k)


@pytest.mark.parametrize("spec, grid", [
    ("reference", list(np.geomspace(2.4, 80.0, 64))),
    ("reference", [1e7, 1e8, 1e9]),  # a failing report
    (CobbDouglasParams(A=2.0, beta=0.4), list(np.geomspace(0.1, 10.0, 16))),
    (CESParams(gamma=1.0, delta=0.4, sigma=0.7), list(np.geomspace(0.1, 10.0, 16))),
    (VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0), list(np.geomspace(0.1, 10.0, 16))),
    (LiuHildebrandParams(a=1.0, b=0.5, c=0.2, xi=-1.0), list(np.geomspace(0.1, 10.0, 16))),
    (LuFletcherParams(a=1.0, b=0.5, c=0.2, zeta=1.0), list(np.geomspace(0.1, 10.0, 16))),
    (SatoHoffmanParams(gamma=1.0, delta=0.5, rho=0.5), list(np.geomspace(0.1, 1.4, 16))),
], ids=["reference", "reference-failing", "cd", "ces", "ves", "lh", "lf", "sh"])
def test_finite_differences_equal_those_through_a_lambda(reference_fit_ves, monkeypatch, spec,
                                                         grid):
    # the scalar loop's comparisons, and so its reports, are those of the
    # public kernels called through one lambda per evaluation
    spec = reference_fit_ves if spec == "reference" else spec
    verifiers = [verify_family] + [verify_sato_hoffman] * isinstance(spec, SatoHoffmanParams)
    without_grid_pass(monkeypatch)  # whose comparisons are the decisive ones alone
    report = oracles_module._report
    compared = []

    def recorded(name, points, tolerance, comparisons):
        compared.append(list(comparisons))
        return report(name, points, tolerance, compared[-1])
    monkeypatch.setattr(oracles_module, "_report", recorded)
    reports = [verify(spec, grid) for verify in verifiers]

    closed = [(mrs_closed(spec, k), mrs_derivative_closed(spec, k), sigma_closed(spec, k))
              for k in grid]
    expected = [list(_lambda_family_comparisons(spec, grid, closed))]
    if isinstance(spec, SatoHoffmanParams):
        expected.append([
            ("sigma", k, sigma_closed(spec, k), oracles_module._sigma_identity(
                k, *_lambda_fd_derivatives(lambda t: eval_intensive(spec, t), k)), 0.0)
            for k in grid])
    assert compared == expected
    assert reports == [report(name, len(grid), oracles_module.DERIVATIVE_TOL, comparisons)
                       for name, comparisons in zip(["family", "sato-hoffman"], expected)]


# ---------------------------------------------------------------------------
# verify_equivalence_lh_lf
# ---------------------------------------------------------------------------

def test_equivalence_reference_params():
    p = LogLinearParams(a=1.0, b=0.5, c=0.2, xi=-1.0)
    report = verify_equivalence_lh_lf(p, list(np.geomspace(0.1, 10.0, 50)))
    assert report.passed
    assert report.max_rel_error < 1e-12


def test_equivalence_zero_xi_exact():
    p = LogLinearParams(a=2.0, b=0.5, c=0.2, xi=0.0)
    report = verify_equivalence_lh_lf(p, list(np.geomspace(0.5, 5.0, 20)), tolerance=0.0)
    assert report.passed
    assert report.max_rel_error == 0.0
    assert report.max_abs_error == 0.0


def test_equivalence_excluded_branch():
    with pytest.raises(ParamError):
        verify_equivalence_lh_lf(LogLinearParams(a=1.0, b=0.5, c=0.5, xi=-1.0), [1.0])


def test_equivalence_zeta_overflow_is_singular():
    # zeta needs a^(-1/b) = 0.5^(-10000), which has no double value
    with pytest.raises(SingularError, match="overflows"):
        verify_equivalence_lh_lf(LogLinearParams(a=0.5, b=1e-4, c=0.5, xi=-1.0), [1.0])


# ---------------------------------------------------------------------------
# verify_reduction
# ---------------------------------------------------------------------------

def test_reduction_constant_sigma_case():
    p = LogLinearParams(a=1.0, b=0.6, c=1.0, xi=-1.0)
    spec = ves_from_loglinear(p)
    target = reduce_special_case(p)
    assert isinstance(target, CESParams)
    assert target.sigma == pytest.approx(0.6)
    report = verify_reduction(spec, target, list(np.geomspace(0.1, 10.0, 50)))
    assert report.passed
    assert report.max_rel_error < 1e-10


def test_reduction_wage_relation_ces_boundary():
    # c = 0 boundary of the wage-relation family is a CES function with
    # sigma = b and delta = xi(b-1) / (b + xi(b-1))
    a, b, xi = 1.4, 0.7, -1.0
    lh = LiuHildebrandParams(a=a, b=b, c=0.0, xi=xi)
    delta = xi * (b - 1.0) / (b + xi * (b - 1.0))
    m = xi * (b - 1.0) / b
    gamma = a ** (1.0 / (1.0 - b)) * (m + 1.0) ** (b / (b - 1.0))
    target = CESParams(gamma=gamma, delta=delta, sigma=b)
    report = verify_reduction(lh, target, list(np.geomspace(0.2, 20.0, 40)))
    assert report.passed, report
    assert report.max_rel_error < 1e-10


def test_reduction_identity_is_exact():
    cd = CobbDouglasParams(A=2.0, beta=0.4)
    report = verify_reduction(cd, cd, list(np.geomspace(0.1, 10.0, 20)))
    assert report.max_rel_error == 0.0


# ---------------------------------------------------------------------------
# verify_sato_hoffman
# ---------------------------------------------------------------------------

def test_sato_hoffman_affine_sigma_verified():
    s = SatoHoffmanParams(gamma=1.0, delta=0.5, rho=0.5)
    report = verify_sato_hoffman(s, list(np.geomspace(0.05, 1.4, 32)))
    assert report.passed
    assert report.max_rel_error < 1e-6


def test_sato_hoffman_rho_one_is_unit_sigma():
    s = SatoHoffmanParams(gamma=1.0, delta=0.5, rho=1.0)
    report = verify_sato_hoffman(s, list(np.geomspace(0.1, 10.0, 16)))
    assert report.passed  # sigma identically 1, affine slope 0


def test_sato_hoffman_domain_violation():
    s = SatoHoffmanParams(gamma=1.0, delta=0.5, rho=0.5)
    with pytest.raises(DomainError):
        verify_sato_hoffman(s, [0.5, 1.6])


def test_sato_hoffman_alpha_rejected():
    s = SatoHoffmanParams(gamma=1.0, delta=0.5, rho=0.5, alpha=2.0)
    with pytest.raises(ParamError):
        verify_sato_hoffman(s, [0.5])


# ---------------------------------------------------------------------------
# Report invariants
# ---------------------------------------------------------------------------

def test_report_passed_iff_within_tolerance(reference_fit_ves):
    grid = list(np.geomspace(2.4, 20.0, 16))
    report = verify_family(reference_fit_ves, grid, tolerance=1e-12)
    assert report.passed == (report.max_rel_error <= 1e-12)
    assert not report.passed
    report2 = verify_family(reference_fit_ves, grid, tolerance=1e-3)
    assert report2.passed
    assert report2.points_checked > 0


@pytest.mark.parametrize("reference", [math.nan, math.inf, -math.inf])
def test_report_rejects_a_reference_that_is_not_finite(reference):
    # a NaN relative error never reaches the maximum, so such a check once passed unscored
    comparisons = [("R", 1.0, 2.0, 2.0, 0.0), ("sigma", 3.0, 1.5, reference, 0.0),
                   ("R", 5.0, 2.0, 2.5, 0.0)]
    with pytest.raises(SingularError) as caught:
        oracles_module._report("family", 3, 1e-6, comparisons)
    assert str(caught.value) == (f"family: the sigma reference is {reference!r} at k = 3, "
                                 "so the check cannot be scored")


def test_verify_sato_hoffman_with_an_overflowing_identity_is_singular():
    # k y y'' and y'(k y' - y) both overflow: the finite-difference sigma is -inf/-inf
    s = SatoHoffmanParams(gamma=1e250, delta=0.5, rho=1.0)
    with pytest.raises(SingularError, match="sato-hoffman: the sigma reference is nan"):
        verify_sato_hoffman(s, [1e10, 1.5e10, 2e10])


@pytest.mark.parametrize("call, error", [
    (lambda v, x: verify_family(v, [x]), DomainError),
    (lambda v, x: validity_range(v, 0.1, x), ParamError),
    (lambda v, x: ode_integrate_theorem(v, 1.0, 0.5, 2.0, x), DomainError),
    (lambda v, x: ode_integrate_theorem(v, x, 0.5, 2.0, 100), DomainError),
    (lambda v, x: eval_intensive(v, x), DomainError),
], ids=["verify_family", "validity_range", "ode-steps", "ode-k_start", "eval_intensive"])
def test_an_int_past_the_double_range_raises_as_inf_does(call, error):
    # such an int was once converted to float, whose OverflowError escaped
    v = VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0)
    with pytest.raises(error):
        call(v, math.inf)
    with pytest.raises(error):
        call(v, 10 ** 400)


@pytest.mark.parametrize("tolerance", [math.nan, -1.0, -1e-300, math.inf])
def test_verifiers_reject_a_bad_tolerance(reference_fit_ves, tolerance):
    # NaN fails every comparison and inf passes every one: neither is a verdict
    p = LogLinearParams(a=1.0, b=0.5, c=0.2, xi=-1.0)
    calls = [
        lambda: verify_family(reference_fit_ves, [3.0, 5.0], tolerance),
        lambda: verify_equivalence_lh_lf(p, [1.0, 2.0], tolerance),
        lambda: verify_ode(reference_fit_ves, 3.0, 10.0, 100, tolerance),
        lambda: verify_reduction(reference_fit_ves, reference_fit_ves, [3.0], tolerance),
        lambda: verify_sato_hoffman(SatoHoffmanParams(1.0, 0.5, 1.5), [1.0], tolerance),
    ]
    for call in calls:
        with pytest.raises(ParamError, match="tolerance must be a non-negative finite number"):
            call()


def test_oracles_takes_nothing_from_substitution():
    # the verifiers sit on the closed forms alone: the validity test included
    import vesprod.substitution
    for name, value in vars(oracles_module).items():
        assert value is not vesprod.substitution, name
        assert getattr(value, "__module__", None) != "vesprod.substitution", name
