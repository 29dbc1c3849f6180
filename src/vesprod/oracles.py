"""Independent numerical verifiers.

The closed forms in :mod:`vesprod.families` are checked here against
the defining identities evaluated with finite differences,

    R(k)     = y/y' - k,
    sigma(k) = y'(k y' - y) / (k y y''),

and the variable-elasticity solution is checked against a fourth-order
integration of its defining separable equation

    d(ln y)/dk = 1 / ((1+lam) k + mu k^theta).

Finite-difference steps follow the standard truncation/rounding balance:
h = k * eps^(1/3) for first derivatives and h = k * eps^(1/4) for second
derivatives.  The integrator works in ln y, where the equation is exact
quadrature; this removes positivity drift.  Its slope does not depend on
y, so the Runge-Kutta scheme is composite Simpson's rule; each of its
three stages is evaluated at every step as one numpy array, and numpy is
imported on the first ODE call, not with the module.  Paths of up to 2**14
steps compute in one workspace per thread, kept between calls and grown to
the longest path run, so that a repeat call allocates no array.

Every verifier, the ODE check (:func:`verify_ode`) included, returns a
:class:`VerificationReport` and states its default tolerance in its
signature; reports are deterministic for identical inputs.  A verifier
only produces (quantity, k, closed form, reference, scale floor)
comparisons, and one function scores them all with one relative-error
scale, max(|closed form|, |reference|, scale floor); for the ODE that is
max(|integrated y|, |closed-form y|); a tolerance must be a non-negative
finite number.

Each verifier is stated once, as a generator ``columns(k, at)`` that yields
its (quantity, closed form, reference, scale floor) at k, where
``at(spec, method, *points)`` gives a closed-form method's values at the
points; this module only states the columns and scores them.  Once
:func:`_check_grid` admits the grid, every verifier but the ODE check first
takes the grid pass (``families._grid_pass``, which holds its numpy gate,
errstate and one catch): the columns run once with k the float64 array of the
grid's points and ``at`` ``families._on_grid``, which runs the method once over
one grid of k built from all its arrays (the grid, and k +- h for the finite
differences) and keeps every value to the scalar kernel's bits, and only the
comparisons that decide the report are scored (:func:`_decisive`).  Where the
grid pass gives None (numpy not loaded, so that a one-shot check does not pay
its import, or a point inadmissible, or an operation failed), the scalar loop
runs: it names the first inadmissible point (for :func:`verify_family`, as
:func:`violated_constraints` finds it), and then runs the same columns point
by point, with ``at`` the kernels' one error boundary (``families._evaluate``)
at each point in turn, so it names the first failure.
"""

from __future__ import annotations

import contextlib
import math
import operator
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainError, ParamError, SingularError, VesprodError
from .families import (
    FamilySpec,
    LogLinearParams,
    SatoHoffmanParams,
    VESParams,
    _count,
    _evaluate,
    _GridFailed,
    _grid_pass,
    _nearest_float,
    _quote,
    _require_in_domain,
    _require_type,
    eval_intensive,
    lf_from_lh,
    lh_from_loglinear,
)
from .substitution import violated_constraints

__all__ = [
    "VerificationReport",
    "ode_integrate_theorem",
    "verify_family",
    "verify_equivalence_lh_lf",
    "verify_ode",
    "verify_reduction",
    "verify_sato_hoffman",
]

_EPS = sys.float_info.epsilon
_H1 = _EPS ** (1.0 / 3.0)
_H2 = _EPS ** 0.25

#: default tolerances: derivative cross-checks carry finite-difference
#: noise; algebraic identities should hold to near machine precision; the
#: fourth-order integration is exact to rounding at the default step count
DERIVATIVE_TOL = 1e-6
IDENTITY_TOL = 1e-10
ODE_TOL = 1e-9


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification pass.

    ``passed`` is exactly ``max_rel_error <= tolerance``; ``worst_k`` and
    ``worst_quantity`` locate the largest relative deviation.
    """

    check_name: str
    max_abs_error: float
    max_rel_error: float
    points_checked: int
    tolerance: float
    passed: bool
    worst_k: float | None = None
    worst_quantity: str | None = None


#: one comparison: (quantity, k, closed form, reference, scale floor)
_Comparison = tuple[str, float, float, float, float]
#: ``at(spec, method, *points)``: a closed-form method's values at each point
#: (each a float, or an array of k over the grid), in order
_At = Callable[..., Sequence]
#: ``columns(k, at)``: a verifier's (quantity, closed form, reference, scale
#: floor) at k, in the order the scalar loop scores them
_Columns = Callable[[float, _At], Iterable[tuple]]


def _report(name: str, points: int, tolerance: float,
            comparisons: Iterable[_Comparison]) -> VerificationReport:
    """Score every comparison: its relative error is the absolute error over
    max(|closed|, |reference|, scale floor), and 0 where the two agree
    exactly; the last of several equal maxima locates the worst error.  A
    tolerance that is NaN, negative or infinite raises ParamError, and a
    reference that is not finite (which no relative error can score)
    SingularError naming the check, the quantity and k.  The report holds the
    float nearest the tolerance."""
    given, tolerance = tolerance, _nearest_float(tolerance)
    if not tolerance >= 0.0:
        raise ParamError(f"tolerance must be a non-negative finite number, got {_quote(given)}")
    max_abs = max_rel = 0.0
    worst_k = worst_quantity = None
    for quantity, k, closed, reference, scale_floor in comparisons:
        abs_err = abs(closed - reference)
        rel_err = 0.0 if abs_err == 0.0 else \
            abs_err / max(abs(closed), abs(reference), scale_floor)
        max_abs = max(max_abs, abs_err)
        if rel_err >= max_rel:
            max_rel, worst_k, worst_quantity = rel_err, k, quantity
        elif rel_err != rel_err:  # NaN, which a finite closed form gives only with such a reference
            raise SingularError(f"{name}: the {quantity} reference is {_quote(reference)} at "
                                f"k = {k:.12g}, so the check cannot be scored")
    return VerificationReport(
        check_name=name, max_abs_error=max_abs, max_rel_error=max_rel,
        points_checked=points, tolerance=tolerance, passed=max_rel <= tolerance,
        worst_k=worst_k, worst_quantity=worst_quantity)


def _difference(plus: float, minus: float, h: float) -> float:
    """The central difference of the values at k + h and k - h."""
    return (plus - minus) / (2.0 * h)


def _fd_derivatives(spec: FamilySpec, k, at: _At) -> tuple:
    """The step h1, the points (k, k + h1, k - h1), and y, y' and y'' at k, the
    derivatives by central differences of y with the steps h1 and h2, from one
    ``at`` call at k, k +- h1 and k +- h2, each step rounded so that k + h is
    exact.  A step that underflows (h2's square does below k ~ 1e-158)
    divides by zero: SingularError."""
    h1, h2 = (k + k * _H1) - k, (k + k * _H2) - k
    points = (k, k + h1, k - h1, k + h2, k - h2)
    yv, y1p, y1m, y2p, y2m = at(spec, "_y", *points)
    try:
        return (h1, points[:3], yv, _difference(y1p, y1m, h1),
                (y2p - 2.0 * yv + y2m) / (h2 * h2))
    except ZeroDivisionError as exc:
        raise SingularError(f"the finite-difference step underflows at k = {k:.12g}") from exc


def _mrs_identity(k: float, yv: float, yp: float) -> float:
    """R = y/y' - k from a (finite-difference) y'."""
    try:
        return yv / yp - k
    except ZeroDivisionError:
        raise SingularError(f"finite-difference y' vanishes at k = {k:.12g}; "
                            "the identity R = y/y' - k is singular there") from None


def _sigma_identity(k: float, yv: float, yp: float, ypp: float) -> float:
    """sigma = y'(k y' - y) / (k y y'') from (finite-difference) derivatives."""
    try:
        return yp * (k * yp - yv) / (k * yv * ypp)
    except ZeroDivisionError:
        raise SingularError(f"k y y'' vanishes at k = {k:.12g} (finite-difference "
                            f"y'' = {ypp:.6g}); the sigma identity is singular there") from None


def _positive(*values) -> bool:
    """Whether every value is positive: numbers at one point, or arrays over the
    grid (by their least point)."""
    return all((value.min() if hasattr(value, "min") else value) > 0.0 for value in values)


def _check_grid(k_grid: Sequence[float]) -> list[float]:
    """The grid as floats: non-empty, numbers, positive, finite and strictly
    increasing.  A number is what ``math.isfinite`` admits, as in
    ``families._nearest_float``: not a str or bytes, which ``float`` would
    parse.  Checked in one pass; only a grid that fails it is checked again
    point by point, which names the first fault."""
    points = list(k_grid)  # a one-shot iterator, too, can then be checked again
    with contextlib.suppress(OverflowError, TypeError, ValueError):
        if points and all(map(math.isfinite, points)):
            grid = list(map(float, points))
            if min(grid) > 0.0 and all(map(operator.lt, grid, grid[1:])):
                return grid
    grid = []
    for k in points:
        try:
            math.isfinite(k)  # TypeError for a str or bytes, which float() parses
            grid.append(float(k))
        except OverflowError:  # an int or a Fraction past the double range
            raise DomainError(f"grid point {_quote(k)} is not a positive finite number") from None
        except (TypeError, ValueError):
            raise ParamError(f"grid point {_quote(k)} is not a number") from None
    if len(grid) < 1:
        raise ParamError("k_grid must contain at least one point")
    for k in grid:
        if not (math.isfinite(k) and k > 0.0):
            raise DomainError(f"grid point {_quote(k)} is not a positive finite number")
    for lo, hi in zip(grid, grid[1:]):
        if not lo < hi:
            raise ParamError("k_grid must be strictly increasing")
    return grid


# --------------------------------------------------------------------------
# One statement per verifier: its columns over the grid, or point by point
# --------------------------------------------------------------------------

def _at_point(spec: FamilySpec, method: str, *points: float) -> list[float]:
    """``spec.<method>`` at each point in turn, through the kernels' one error
    boundary (``families._evaluate``)."""
    return [_evaluate(spec, method, k) for k in points]


def _decisive(columns: _Columns, k, at: _At) -> list[_Comparison]:
    """Of the columns that ``columns(k, at)`` yields over the grid pass's k
    (``families._grid_pass``, in which this runs), the comparisons that decide
    :func:`_report`'s result: one with the largest absolute error, then the
    last with the largest relative error, each with its scale as its scale
    floor.  A scoring operation that fails, too, gives the scalar loop."""
    import numpy as np
    compared = list(columns(k, at))
    # row j: column j over the grid; read point by point through .T
    closed = np.array([column[1] for column in compared])
    reference = np.array([column[2] for column in compared])
    abs_err = abs(closed - reference)
    scale = np.maximum(abs(closed), abs(reference))
    for row, (*_, floor) in zip(scale, compared):
        if not isinstance(floor, float) or floor:  # a floor of 0 changes no scale
            np.maximum(row, floor, out=row)
    # 0 where abs_err is, as the scale is positive wherever abs_err is not
    rel = abs_err / np.maximum(scale, 5e-324)
    worst = rel.size - 1 - int(rel.T.ravel()[::-1].argmax())  # the last of equal maxima
    largest = int(abs_err.T.argmax())
    q = len(compared)
    return [(compared[i % q][0], float(k[i // q]),
             *(float(a[i % q, i // q]) for a in (closed, reference, scale)))
            for i in ([worst] if largest == worst else [largest, worst])]


def _verify(name: str, columns: _Columns, k_grid: Sequence[float], tolerance: float,
            specs: Sequence[FamilySpec],
            outside: Callable[[float], str | None] = lambda k: None) -> VerificationReport:
    """The report on the columns (quantity, closed form, reference, scale
    floor) that ``columns(k, at)`` yields at each point k of the grid, once
    :func:`_check_grid` admits it: from the grid pass, or else from the scalar
    loop, which first raises DomainError at the first point for which
    ``outside`` names a range, and then runs the columns point by point."""
    grid = _check_grid(k_grid)
    comparisons = _grid_pass(lambda k, at: _decisive(columns, k, at), grid, *specs)
    if comparisons is None:
        for k in grid:
            if where := outside(k):
                raise DomainError(f"k = {k:.12g} is outside the {where}")
        comparisons = ((quantity, k, *column) for k in grid
                       for quantity, *column in columns(k, _at_point))
    return _report(name, len(grid), tolerance, comparisons)


# --------------------------------------------------------------------------
# ODE oracle for the variable-elasticity solution
# --------------------------------------------------------------------------

#: the longest path, in steps, that runs in its thread's workspace (1.2 MB
#: there); a longer one allocates its arrays for the call
_WORKSPACE_STEPS = 2 ** 14
#: memory only: a call writes every element it reads, so no value passes
#: from one call to the next
_workspace = threading.local()


def _ode_workspace(steps: int) -> tuple:
    """The ODE arrays for a path of ``steps`` steps, as views: the ramp 0, 1,
    ..., steps-1, k, the nodes and their (1+lam) multiples as (3, steps), and
    the running sums.  Up to ``_WORKSPACE_STEPS`` steps they are this
    thread's, kept between calls and grown to the longest path run, so that a
    call allocates no array; a longer path gets fresh arrays."""
    import numpy as np
    arrays = getattr(_workspace, "arrays", None)
    if arrays is None or len(arrays[0]) < steps:
        arrays = (np.arange(steps, dtype=float), np.empty(steps), np.empty(3 * steps),
                  np.empty(3 * steps), np.empty(steps + 1))
        if steps <= _WORKSPACE_STEPS:
            _workspace.arrays = arrays
    ramp, k, nodes, scaled, sums = arrays
    return (ramp[:steps], k[:steps], nodes[:3 * steps].reshape(3, steps),
            scaled[:3 * steps].reshape(3, steps), sums[:steps + 1])


def ode_integrate_theorem(v: VESParams, k_start: float, y_start: float,
                          k_end: float, steps: int) -> float:
    """Propagate y from ``k_start`` to ``k_end`` in ``steps`` (2 to 10**6)
    steps by integrating the defining equation of R(k) = lam*k + mu*k^theta
    with the classical fourth-order Runge-Kutta scheme in ln y.

    The slope does not depend on y, so the scheme is composite Simpson's
    rule: the left ends k_start + i h, the midpoints and the right ends of
    the steps are evaluated as one numpy array each (numpy is imported on
    the first call), and the step increments are added in step order.  A
    path of up to 2**14 steps runs in its thread's workspace, which is kept
    between calls and grown to the longest such path; a longer path
    allocates its arrays for the call.

    For ``y_start`` consistent with the closed form the result matches
    the closed form at ``k_end`` with relative error O(steps^-4).
    Raises SingularError if the denominator (1+lam) k + mu k^theta
    vanishes or changes sign along the path, if k^theta overflows at a
    node, or if the integrated ln y or y is not finite (a subnormal
    denominator, or an infinite (1+lam) k against an infinite mu k^theta
    of the other sign).  A denominator that overflows while k^theta is
    finite is not an error: its slope is 0.  Raises DomainError where a
    node next to a tiny ``k_end`` rounds to k <= 0 and k^theta has no real
    value there.  Where several nodes fail, the first in step order is
    reported.
    """
    _require_type(v, VESParams)
    k_start, k_end, y_start = (_require_in_domain(name, value) for name, value in
                               (("k_start", k_start), ("k_end", k_end), ("y_start", y_start)))
    count = _count(steps)
    if count is None or count < 2:
        raise DomainError(f"steps must be an integer >= 2, got {_quote(steps)}")
    if count > 10 ** 6:
        raise DomainError(f"steps must be at most 10**6, got {_quote(steps)}")
    steps = count
    if k_end == k_start:
        return y_start

    import numpy as np

    lam, mu, th = v.lam, v.mu, v.theta
    overflow = SingularError(f"k^theta or the integrated y overflows between "
                             f"k = {k_start:.12g} and k = {k_end:.12g}")
    h = (k_end - k_start) / steps
    stages = (0.0, 0.5 * h, h)
    ramp, k, nodes, scaled, sums = _ode_workspace(steps)
    np.multiply(ramp, h, out=k)
    k += k_start
    for j, stage in enumerate(stages):  # row j: stage j of every step, each row one contiguous pass
        np.add(k, stage, out=nodes[j])
    with np.errstate(all="ignore"):
        np.multiply(nodes, 1.0 + lam, out=scaled)
        nodes **= th  # numpy dispatches it as nodes ** th
        den = nodes
        den *= mu
        den += scaled
        # the masks of failing nodes, only where min and max (NaN if a node is)
        # do not show every node finite and of one sign
        lo, hi = den.min(), den.max()
        if not (0.0 < lo and hi < math.inf or -math.inf < lo and hi < 0.0):
            # k^theta again, from the nodes built into the (1+lam) multiples no longer read
            finite = np.isfinite(np.add(k, np.reshape(stages, (3, 1)), out=scaled) ** th)
            bad = ~finite | (den == 0.0) | (np.signbit(den) != np.signbit(den[0, 0]))  # node 0: k_start
            by_step = bad.any(axis=0)
            i = int(np.argmax(by_step))
            if by_step[i]:  # the first failing node in step order: step i, then its first stage
                j = int(np.argmax(bad[:, i]))
                node = k[i] + stages[j]
                if node != 0.0 and np.isinf(abs(node) ** th):  # also where (-k)^theta is complex
                    raise overflow
                if not finite[j, i]:  # 0^theta < 0, or a complex (-k)^theta
                    raise DomainError(f"a node of the path from k = {k_start:.12g} to "
                                      f"k = {k_end:.12g} rounds to k <= 0, where k^theta is not real")
                what = "vanishes" if den[j, i] == 0.0 else "changes sign"
                raise SingularError(f"(1+lam) k + mu k^theta {what} at k = {node:.12g}")
        slope = np.divide(1.0, den, out=den)
        # ln y_start, then h/6 (s0 + 4 s1 + s2) of each step, built in place in
        # the order a loop computes it
        sums[0] = math.log(y_start)
        increments = np.multiply(slope[1], 4.0, out=sums[1:])
        increments += slope[0]
        increments += slope[2]
        increments *= h / 6.0
    # sequential sums, as a loop adds them (np.sum would add pairwise)
    ln_y = float(np.add.accumulate(sums, out=sums)[-1])
    if math.isfinite(ln_y):  # a subnormal denominator makes ln y infinite
        with contextlib.suppress(OverflowError):
            return math.exp(ln_y)
    raise overflow


def verify_ode(v: VESParams, k_start: float, k_end: float, steps: int,
               tolerance: float = ODE_TOL) -> VerificationReport:
    """Integrate from the closed-form y(k_start) to ``k_end`` in ``steps``
    steps and compare with the closed-form y(k_end); the report counts the
    steps as its points."""
    y_start = eval_intensive(v, k_start)
    k_end = _require_in_domain("k_end", k_end)
    y_end = ode_integrate_theorem(v, k_start, y_start, k_end, steps)
    y_ref = eval_intensive(v, k_end)
    if y_ref == 0.0:
        raise SingularError(f"the closed-form y underflows to 0 at k = {k_end:.12g}, "
                            "so the relative error is undefined")
    return _report("ode", _count(steps), tolerance, [("y", k_end, y_end, y_ref, 0.0)])


# --------------------------------------------------------------------------
# Closed form vs finite differences of the defining identities
# --------------------------------------------------------------------------

def verify_family(spec: FamilySpec, k_grid: Sequence[float],
                  tolerance: float = DERIVATIVE_TOL) -> VerificationReport:
    """Compare closed-form R, R', sigma, sigma' against finite-difference
    evaluations of their defining identities at every grid point.

    All grid points must satisfy the validity constraints
    (:func:`violated_constraints`: positive bracket, R > 0, R' > 0,
    sigma > 0); the first offending point raises DomainError naming it.
    The grid pass tests R, R' and sigma and not the bracket, whose sign
    the columns have settled: VES's and the wage forms' y raise where it
    is not positive, Sato-Hoffman's R = delta rho k / bracket is then not
    positive or divides by zero, CES's is at least 1 - delta (or its power
    overflows), and Cobb-Douglas's is inf.

    The finite-difference y'' loses accuracy where y is nearly linear: for
    the reference VES fit at k = 1e8, where k^2 |y''| / y = 0.0129, it is
    off by 1.57e-5 relative (y' by 6.4e-9; the closed-form y'' agrees with
    a 50-digit evaluation to 1.2e-15), and the report fails on sigma
    although the closed form is right.
    """
    def columns(k, at: _At) -> Iterator[tuple]:
        h1, points, yv, yp, ypp = _fd_derivatives(spec, k, at)
        R_ref = _mrs_identity(k, yv, yp)
        (R, R_plus, R_minus), (dR,) = at(spec, "_R", *points), at(spec, "_dR", k)
        yield "R", R, R_ref, 0.0
        yield "R_prime", dR, _difference(R_plus, R_minus, h1), abs(R) / k
        sig_ref = _sigma_identity(k, yv, yp, ypp)
        sig, sig_plus, sig_minus = at(spec, "_sigma", *points)
        yield "sigma", sig, sig_ref, 0.0
        (dsig,) = at(spec, "_dsigma", k)
        yield "sigma_prime", dsig, _difference(sig_plus, sig_minus, h1), abs(sig) / k
        # no bracket test: a bracket <= 0 has failed y or R above (see the docstring)
        if not _positive(R, dR, sig):
            raise _GridFailed  # on the grid only: the scalar loop has checked every point

    def outside(k: float) -> str | None:
        violated = violated_constraints(spec, k)
        return f"validity range (violated: {', '.join(violated)})" if violated else None

    return _verify("family", columns, k_grid, tolerance, [spec], outside)


def _pointwise(name: str, spec: FamilySpec, target: FamilySpec,
               quantities: Sequence[tuple[str, str]], k_grid: Sequence[float],
               tolerance: float) -> VerificationReport:
    """Worst relative difference between each closed form (a quantity and
    its method) evaluated on ``spec`` and on ``target``, over every grid
    point."""
    def columns(k, at: _At) -> Iterator[tuple]:
        for quantity, method in quantities:
            (closed,), (reference,) = at(spec, method, k), at(target, method, k)
            yield quantity, closed, reference, 0.0

    return _verify(name, columns, k_grid, tolerance, [spec, target])


def verify_equivalence_lh_lf(p: LogLinearParams, k_grid: Sequence[float],
                             tolerance: float = IDENTITY_TOL) -> VerificationReport:
    """Evaluate the wage-relation closed form in both parameterizations
    (xi and zeta = xi (b-1) a^(-1/b) / b) and report the worst relative
    difference; the two are algebraically identical."""
    return _pointwise("lh-lf-equivalence", lh_from_loglinear(p), lf_from_lh(p),
                      (("y", "_y"),), k_grid, tolerance)


def verify_reduction(spec: FamilySpec, target: FamilySpec, k_grid: Sequence[float],
                     tolerance: float = IDENTITY_TOL) -> VerificationReport:
    """Pointwise comparison of y, R, and sigma between a spec and the
    special case it is claimed to reduce to."""
    return _pointwise("reduction", spec, target, (("y", "_y"), ("R", "_R"), ("sigma", "_sigma")),
                      k_grid, tolerance)


def verify_sato_hoffman(s: SatoHoffmanParams, k_grid: Sequence[float],
                        tolerance: float = DERIVATIVE_TOL) -> VerificationReport:
    """Check that the elasticity of the Sato-Hoffman closed form, computed
    by finite differences of the defining identity, is the affine function
    1 + (rho-1)/(1 - delta*rho) * k (``sigma_closed``) inside the
    admissible range."""
    _require_type(s, SatoHoffmanParams)
    if s.alpha != 1.0:
        raise ParamError("the affine-elasticity identity assumes degree one "
                         f"(alpha = 1), got alpha = {_quote(s.alpha)}")
    bound = s.k_upper_bound()

    def columns(k, at: _At) -> Iterator[tuple]:
        (sig,) = at(s, "_sigma", k)
        yield "sigma", sig, _sigma_identity(k, *_fd_derivatives(s, k, at)[2:]), 0.0

    return _verify("sato-hoffman", columns, k_grid, tolerance, [s],
                   lambda k: f"admissible range k < {bound:.12g}" if k >= bound else None)
