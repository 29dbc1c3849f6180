"""Command line front end.

Subcommands: eval, fit, trajectory, regime, calibrate-xi, reduce, verify.

Exit codes are a stable contract: 0 on success (or a passing
verification), 1 on a failed verification, 2 on usage or input errors
and where a command needs numpy that is not installed.
Numeric output prints with 12 significant digits; all commands are
deterministic for identical flags and input bytes.  Each command returns
its exit code and lines; only `main` writes them to stdout, once the
command has returned, so an error leaves stdout empty by construction.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import re
import sys
from typing import Callable, Iterable, Sequence

from .errors import ParamError, ParseError, VesprodError
from .families import (
    CESParams,
    CobbDouglasParams,
    FamilySpec,
    LiuHildebrandParams,
    LogLinearParams,
    LuFletcherParams,
    SatoHoffmanParams,
    VESParams,
    _quote,
    eval_extensive,
    eval_intensive,
    reduce_special_case,
    ves_from_loglinear,
)
from .substitution import (
    RegimeCase,
    _log_grid,
    _require_points,
    classify_regime,
    trajectory,
)
from .estimation import (
    Relation,
    calibrate_xi,
    diagnose_fit,
    fit_loglinear,
    load_dataset,
)
from .oracles import (
    VerificationReport,
    verify_equivalence_lh_lf,
    verify_family,
    verify_ode,
    verify_reduction,
    verify_sato_hoffman,
)

TRAJECTORY_HEADER = "k,y,R,R_prime,sigma,sigma_prime"
_ROW = "%#.12g,%#.12g,%#.12g,%#.12g,%#.12g,%#.12g"  # a trajectory row, each number as _fmt

_REGIME_TEXT = {
    RegimeCase.VES_CASE_I: "case i",
    RegimeCase.VES_CASE_II: "case ii",
    RegimeCase.VES_CASE_III: "case iii",
    RegimeCase.LH_CES_LIMIT: "LH CES limit",
    RegimeCase.LH_CD_LIMIT: "LH CD limit",
    RegimeCase.CONSTANT_SIGMA: "constant sigma",
    RegimeCase.UNIT_SIGMA: "unit sigma",
}


class _UsageError(Exception):
    pass


def _fmt(value: float) -> str:
    return "%#.12g" % value


# --------------------------------------------------------------------------
# Parameter flags and spec assembly
# --------------------------------------------------------------------------

#: the spec type of each --family; a family reads the flags of its fields
_FAMILIES = {"ves": VESParams, "ces": CESParams, "cd": CobbDouglasParams,
             "lh": LiuHildebrandParams, "lf": LuFletcherParams, "sh": SatoHoffmanParams}

#: flag and help of --family and of each parameter field; field a also reads --ln-a
_FLAGS = {
    "family": ("--family", "production-function family"),
    "a": ("--a", "scale constant of the log-linear relation"),
    "ln_a": ("--ln-a", "intercept ln(a) (alternative to --a)"),
    "b": ("--b", "slope on the log price term"),
    "c": ("--c", "slope on ln k"),
    "xi": ("--xi", "integration constant xi"),
    "zeta": ("--zeta", "integration constant zeta (lf)"),
    "lam": ("--lambda", "structural lambda (ves)"),
    "mu": ("--mu", "structural mu (ves)"),
    "theta": ("--theta", "structural theta (ves)"),
    "psi": ("--psi", "structural scale psi (ves)"),
    "A": ("--A", "scale A (cd)"),
    "beta": ("--beta", "capital share beta (cd)"),
    "gamma": ("--gamma", "scale gamma (ces, sh)"),
    "delta": ("--delta", "distribution parameter delta (ces, sh)"),
    "sigma": ("--sigma", "elasticity sigma (ces)"),
    "rho": ("--rho", "rho (sh)"),
    "alpha": ("--alpha", "degree alpha (sh, default 1)"),
}


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("family parameters")
    for name, (flag, text) in _FLAGS.items():
        kind = {"choices": list(_FAMILIES)} if name == "family" else {"type": float}
        g.add_argument(flag, dest=name, help=text, **kind)


def _fields(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _given(args: argparse.Namespace, names: Iterable[str]) -> bool:
    return any(getattr(args, n) is not None for n in names)


def _check_read(args: argparse.Namespace, reader: str, names: Sequence[str]) -> None:
    """Usage error for a flag of `_FLAGS` given that `reader` does not read:
    it reads the flags of `names`, and --ln-a with `a`."""
    for name, (flag, _) in _FLAGS.items():
        read = name in names or (name == "ln_a" and "a" in names)
        if not read and getattr(args, name) is not None:
            raise _UsageError(f"{reader} does not read {flag}")


def _value(args: argparse.Namespace, name: str) -> float | None:
    """The value given for field `name`; field a may come as --ln-a."""
    if name != "a" or args.ln_a is None:
        return getattr(args, name)
    if args.a is not None:
        raise _UsageError("give either --a or --ln-a, not both")
    try:
        return math.exp(args.ln_a)
    except OverflowError:
        raise ParamError(f"a = e^ln_a overflows for ln_a = {_quote(args.ln_a)}") from None


def _read(args: argparse.Namespace, cls, need: str, names: Sequence[str] | None = None):
    """The `cls` that the flags of its fields give.  Each field in `names` must be
    given; with `names` left out, every field is read and one with a default may
    be omitted.  `need` opens the usage error that lists the missing flags."""
    fields = [f for f in dataclasses.fields(cls) if names is None or f.name in names]
    given = {f.name: v for f in fields if (v := _value(args, f.name)) is not None}
    missing = [_FLAGS[f.name][0] for f in fields if f.name not in given
               and (names is not None or f.default is dataclasses.MISSING)]
    if missing:
        raise _UsageError(f"{need} {', '.join(missing)}")
    return cls(**given)


def _spec_from_args(args: argparse.Namespace, family: str | None = None,
                    reader: str | None = None, default=None) -> FamilySpec:
    """The spec of `family` (else of --family), or `default` if no flag of
    it is given.  ves also reads regression space: a, b, c and xi."""
    family = family or args.family
    if family is None:
        raise _UsageError("missing --family")
    cls = _FAMILIES[family]
    alt = _fields(LogLinearParams) if cls is VESParams else ()
    _check_read(args, reader or f"family '{family}'", ("family", *_fields(cls), *alt))
    if alt and _given(args, ("ln_a", *alt)):
        if _given(args, _fields(cls)):
            raise _UsageError("do not mix structural (--lambda/--mu/--theta/--psi) "
                              "and regression (--a/--b/--c/--xi) parameters")
        return ves_from_loglinear(_read(args, LogLinearParams, "missing", alt))
    if default is not None and not _given(args, _fields(cls)):
        return default
    return _read(args, cls, f"family '{family}' needs")


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

#: what a command returns: its exit code and the lines that `main` prints
_Output = tuple[int, Iterable[str]]


def _cmd_eval(args: argparse.Namespace) -> _Output:
    spec = _spec_from_args(args)
    have_k = args.k is not None
    have_KL = args.K is not None or args.L is not None
    if have_k == have_KL or (have_KL and (args.K is None or args.L is None)):
        raise _UsageError("give exactly one of --k or the pair --K and --L")
    if have_k:
        return 0, [_fmt(eval_intensive(spec, args.k))]
    return 0, [_fmt(eval_extensive(spec, args.K, args.L))]


def _fit_lines(report) -> list[str]:
    """The fit as text: each standard error starts below its estimate, or one
    space after the previous one where that would overlap."""
    price = "r" if report.relation is Relation.RENTAL else "w"
    line1, line2 = "ln(y) = ", ""
    for estimate, sep in zip((report.intercept_ln_a, report.b_hat, report.c_hat),
                             (" + ", f" ln({price}) + ", " ln(k)")):
        line2 += " " * max(len(line1) - len(line2), 1 if line2 else 0)
        line2 += f"({_fmt(estimate.stderr)})"
        line1 += _fmt(estimate.value) + sep
    return [f"relation: {report.relation.value}",
            f"n_obs: {report.n_obs}",
            line1,
            line2,
            f"residual_variance = {_fmt(report.residual_variance)}",
            f"r_squared = {_fmt(report.r_squared)}"]


def _cmd_fit(args: argparse.Namespace) -> _Output:
    with open(args.input, "r", encoding="utf-8", newline="") as fh:  # load_dataset splits lines
        try:
            source = fh.read()
        except UnicodeDecodeError as exc:  # read() decodes the whole file: start is its offset
            raise ParseError(f"input is not UTF-8: {exc.reason} 0x{exc.object[exc.start]:02x} "
                             f"at byte offset {exc.start}") from None
    dataset = load_dataset(source)
    report = fit_loglinear(dataset, args.relation)
    lines = _fit_lines(report)
    if args.diagnose:
        diag = diagnose_fit(dataset, report)
        t = diag.c_significance  # +-inf where c's standard error is 0 or negligible
        lines += ["diagnostics:",
                  f"  b_plus_c = {_fmt(diag.b_plus_c)}",
                  f"  dist_to_unity = {_fmt(diag.dist_to_unity)}",
                  f"  c_significance = {_fmt(t) if math.isfinite(t) else '(unbounded)'}"]
        if diag.capital_share_range is None:
            lines += ["  capital_share_range = (no rental column)",
                      "  share_restriction_violated = (no rental column)"]
        else:
            lo, hi = diag.capital_share_range
            lines += [f"  capital_share_range = [{_fmt(lo)}, {_fmt(hi)}]",
                      "  share_restriction_violated = "
                      f"{'true' if diag.share_restriction_violated else 'false'}"]
        if diag.dist_to_unity < 1e-6:
            lines.append("b+c within 1e-6 of unity: marginal rate of substitution degenerates")
    return 0, lines


def _cmd_trajectory(args: argparse.Namespace) -> _Output:
    spec = _spec_from_args(args)
    _check_window(args.k_from, args.k_to, args.points)
    rows = trajectory(spec, args.k_from, args.k_to, args.points)
    # formatted as written, a row in one step: a million rows need not be held twice
    return 0, itertools.chain([TRAJECTORY_HEADER], (_ROW % row for row in rows))


def _cmd_regime(args: argparse.Namespace) -> _Output:
    report = classify_regime(_spec_from_args(args))
    return 0, [f"{_REGIME_TEXT[report.case_label]}, limit {_fmt(report.sigma_limit)}, "
               f"{report.monotonicity.value}"]


def _cmd_calibrate_xi(args: argparse.Namespace) -> _Output:
    names = ("a", "b", "c")
    _check_read(args, "calibrate-xi", names)
    xi = calibrate_xi(_read(args, LogLinearParams, "missing", names), args.k0)
    return 0, [f"xi = {_fmt(xi)}", f"criterion: R(k0) = 0 at k0 = {_fmt(args.k0)}; "
                                   "pass --xi explicitly to use a different rule"]


def _cmd_reduce(args: argparse.Namespace) -> _Output:
    _check_read(args, "reduce", _fields(LogLinearParams))
    reduced = reduce_special_case(_read(args, LogLinearParams, "missing"), tol=args.tol)
    if isinstance(reduced, CobbDouglasParams):
        return 0, [f"cobb-douglas: A = {_fmt(reduced.A)}, beta = {_fmt(reduced.beta)}"]
    if isinstance(reduced, CESParams):
        return 0, [f"ces: gamma = {_fmt(reduced.gamma)}, delta = {_fmt(reduced.delta)}, "
                   f"sigma = {_fmt(reduced.sigma)}"]
    xi_text = "unset" if reduced.xi is None else _fmt(reduced.xi)
    return 0, [f"ves (no special case within tol): a = {_fmt(reduced.a)}, "
               f"b = {_fmt(reduced.b)}, c = {_fmt(reduced.c)}, xi = {xi_text}"]


#: the VES and Sato-Hoffman specs the suites check when given no parameters
_DEFAULT_VES = VESParams(lam=0.0, mu=1.0, theta=2.0, psi=1.0)
_DEFAULT_SH = SatoHoffmanParams(gamma=1.0, delta=0.5, rho=0.5)

#: the one family each verify suite checks; the family suite checks any
_SUITE_FAMILY = {"equivalence": "lh", "ode": "ves", "sato-hoffman": "sh",
                 "reduction": "ves"}


def _report_lines(report: VerificationReport) -> _Output:
    status = "PASS" if report.passed else "FAIL"
    lines = [f"{report.check_name}: {report.points_checked} points, "
             f"max_rel_error = {report.max_rel_error:.6e}, "
             f"tolerance = {report.tolerance:g}: {status}"]
    lines.append(f"worst: k = {_fmt(report.worst_k)}, quantity = {report.worst_quantity}")
    return 0 if report.passed else 1, lines


def _or(value, default):
    return default if value is None else value


def _check_window(lo: float, hi: float, n: int) -> None:
    """Usage error for a window or count that no grid has; ParamError past 10**6."""
    if not 0.0 < lo < hi:
        raise _UsageError("need 0 < --k-from < --k-to")
    if hi == math.inf:
        raise _UsageError("--k-to must be finite, got inf")
    if n < 2:
        raise _UsageError("--points must be at least 2")
    _require_points(n)


def _k_grid(args: argparse.Namespace, lo: float, hi: float, n: int) -> list[float]:
    """Log grid from --k-from/--k-to/--points, each defaulting to the suite's."""
    lo, hi, n = _or(args.k_from, lo), _or(args.k_to, hi), _or(args.points, n)
    _check_window(lo, hi, n)
    return _log_grid(lo, hi, n)


def _loglinear_or(args: argparse.Namespace, reader: str,
                  default: LogLinearParams) -> LogLinearParams:
    """The suite's regression-space parameters, xi included, or `default`."""
    names = _fields(LogLinearParams)
    _check_read(args, reader, ("family", *names))
    if _given(args, ("ln_a", *names)):
        return _read(args, LogLinearParams, "missing", names)
    return default


def _cmd_verify(args: argparse.Namespace) -> _Output:
    # an unset --tolerance leaves each verifier its own default
    tol = {} if args.tolerance is None else {"tolerance": args.tolerance}
    suite = args.suite
    family = _SUITE_FAMILY.get(suite)
    reader = f"suite '{suite}'"
    if args.family is not None and family not in (None, args.family):
        raise _UsageError(f"{reader} checks --family {family}, not --family {args.family}")
    unread = "points" if suite == "ode" else "steps"
    if getattr(args, unread) is not None:
        raise _UsageError(f"{reader} does not read --{unread}")
    if suite == "family":
        spec = _spec_from_args(args) if _given(args, _FLAGS) else _DEFAULT_VES
        report = verify_family(spec, _k_grid(args, 0.5, 20.0, 64), **tol)
    elif suite == "equivalence":
        p = _loglinear_or(args, reader, LogLinearParams(a=1.0, b=0.5, c=0.2, xi=-1.0))
        report = verify_equivalence_lh_lf(p, _k_grid(args, 0.1, 10.0, 50), **tol)
    elif suite == "ode":
        v = _spec_from_args(args, "ves", reader, _DEFAULT_VES)
        report = verify_ode(v, _or(args.k_from, 1.0), _or(args.k_to, 2.0),
                            _or(args.steps, 10000), **tol)
    elif suite == "sato-hoffman":
        _check_read(args, reader, ("family", *_fields(SatoHoffmanParams)))
        given = {n: v for n in _fields(SatoHoffmanParams) if (v := getattr(args, n)) is not None}
        s = dataclasses.replace(_DEFAULT_SH, **given)
        bound = s.k_upper_bound()
        hi = 10.0 if math.isinf(bound) else 0.93 * bound
        report = verify_sato_hoffman(s, _k_grid(args, hi / 30.0, hi, 32), **tol)
    else:  # reduction
        p = _loglinear_or(args, reader, LogLinearParams(a=1.0, b=0.6, c=1.0, xi=-1.0))
        target = reduce_special_case(p)
        if isinstance(target, LogLinearParams):
            raise _UsageError("parameters do not reduce to a special case; "
                              "nothing to verify")
        if isinstance(target, CobbDouglasParams):
            raise _UsageError("b = 0 is unreachable through the general closed "
                              "form; only the c = 1 (ces) reduction can be "
                              "verified pointwise")
        report = verify_reduction(ves_from_loglinear(p), target,
                                  _k_grid(args, 0.1, 10.0, 50), **tol)
    return _report_lines(report)


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vesprod",
        description="Evaluate, estimate, and verify production functions with "
                    "variable elasticity of factor substitution.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, summary: str, params: bool = True):
        """A subcommand that runs ``func``, with the family parameter flags first."""
        p = sub.add_parser(name, help=summary)
        if params:
            _add_param_flags(p)
        p.set_defaults(func=func)
        return p

    p_eval = command("eval", _cmd_eval, "evaluate y(k) or F(K, L)")
    p_eval.add_argument("--k", type=float, help="capital-labor ratio")
    p_eval.add_argument("--K", type=float, help="capital input")
    p_eval.add_argument("--L", type=float, help="labor input")

    p_fit = command("fit", _cmd_fit, "ordinary least squares fit of a log-linear relation",
                    params=False)
    p_fit.add_argument("input", help="delimited-text file (period,y,k[,r][,w])")
    p_fit.add_argument("--relation", choices=["rental", "wage"], required=True)
    p_fit.add_argument("--diagnose", action="store_true",
                       help="print degeneracy diagnostics")

    p_traj = command("trajectory", _cmd_trajectory, "emit k,y,R,R_prime,sigma,sigma_prime rows")
    p_traj.add_argument("--k-from", dest="k_from", type=float, required=True)
    p_traj.add_argument("--k-to", dest="k_to", type=float, required=True)
    p_traj.add_argument("--points", type=int, default=200)

    command("regime", _cmd_regime, "classify the elasticity regime")

    p_cal = command("calibrate-xi", _cmd_calibrate_xi,
                    "solve R(k0) = 0 for the integration constant")
    p_cal.add_argument("--k0", type=float, required=True,
                       help="starting capital-labor ratio")

    p_red = command("reduce", _cmd_reduce, "collapse parameters onto a special case")
    p_red.add_argument("--tol", type=float, default=1e-9)

    p_verify = command("verify", _cmd_verify, "run a verification suite")
    p_verify.add_argument("--suite", required=True,
                          choices=["family", "equivalence", "ode",
                                   "sato-hoffman", "reduction"])
    p_verify.add_argument("--k-from", dest="k_from", type=float)
    p_verify.add_argument("--k-to", dest="k_to", type=float)
    p_verify.add_argument("--points", type=int)
    p_verify.add_argument("--steps", type=int, help="integration steps (ode suite)")
    p_verify.add_argument("--tolerance", type=float,
                          help="override the suite's default tolerance")

    return parser


#: negative numbers that argparse already reads as values, not as options
_ARGPARSE_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_other_negative(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return token.startswith("-") and not _ARGPARSE_NEGATIVE.match(token)


def _glue_negative_values(argv: Sequence[str]) -> list[str]:
    """Spell ``--flag -9.68e-05`` as ``--flag=-9.68e-05``: given as its own
    token, argparse takes such a value for an unknown option."""
    out: list[str] = []
    for i, token in enumerate(argv):
        if token == "--":
            return out + list(argv[i:])
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and _is_other_negative(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    argv = _glue_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    try:
        code, lines = args.func(args)
        for line in lines:  # a broken pipe here is an OSError too
            print(line)
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (VesprodError, OSError, ModuleNotFoundError) as exc:  # numpy, for fit and the ODE
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
