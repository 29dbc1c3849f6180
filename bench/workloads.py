"""The four benchmark workloads: analyze, verify, fit and cli.

Each workload turns a seed into a pool of inputs (``generate``), warms up
(``warm_up``), runs one operation on one input (``run``, the timed part)
and checks that operation's output against the references in
:mod:`reference` (``check``, untimed).  Operations call vesprod through
module attributes looked up at call time, so the traced run sees them;
the checks hold the original functions, so they never appear in a trace.

Family mixes are stratified: every block of inputs has the same number of
draws of each kind, so seeds change parameter values and order, not the
mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vesprod as vp
import vesprod.cli
from vesprod.families import eval_intensive as _eval_intensive
from vesprod.substitution import (
    validity_range as _validity_range,
    violated_constraints as _violated_constraints,
)

import reference as ref
from reference import Reg, expect, expect_close
from tracer import merge

TRAJECTORY_POINTS = 200
VERIFY_POINTS = 64
ODE_STEPS = 10_000
FIT_ROWS = 10_000
CLI_FIT_ROWS = 1_000


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _log_points(lo: float, hi: float, n: int) -> list[float]:
    ratio = hi / lo
    return [lo * ratio ** (i / (n - 1)) for i in range(n)]


def _redraw_until(workload, draw):
    """Tier-1 practice: redraw parameters that have no validity range in the
    probe window (or, for verify, no point where the oracles can be
    trusted).  The decision is made on the input before any timed
    operation runs, never after a failure."""
    for _ in range(200):
        item = draw()
        if item is not None:
            return item
        workload.redraws += 1
    raise RuntimeError(f"{workload.name}: no admissible draw in 200 attempts")


class Workload:
    name = ""
    #: whether the operation's CPU time and memory are spent in a child process
    in_child = False
    #: set during the traced run; only workloads that start children act on it
    traced = False
    #: operations run untimed at the end of set-up
    warm_up_ops = 3

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.redraws = 0           # inputs redrawn by the last generate()

    def generate(self) -> list:
        raise NotImplementedError

    def warm_up(self, items: list) -> None:
        # the timed loop starts with these same items and counts their failures
        for item in items[:self.warm_up_ops]:
            try:
                self.run(item)
            except Exception:
                pass

    def digest(self, items: list) -> str:
        return _digest(items)

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# analyze: calibration, validity range, regime and trajectory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyzeItem:
    kind: str                  # ves_i, ves_ii, ves_iii, lh, lf, cd, ces, sh
    params: tuple              # reference parameters (Reg or a plain tuple)
    spec: object               # vesprod spec; for VES the xi-free LogLinearParams
    k0: float | None           # VES calibration ratio
    window: tuple[float, float]
    wide: bool                 # wide window with bisection, or narrow inside the range
    regime: tuple              # expected regime report or documented ParamError


# 8 VES (3 i, 3 ii, 2 iii) : 7 LH/LF : 5 CD/CES/SH per block of 20
ANALYZE_BLOCK = ("ves_i", "ves_ii", "ves_iii") * 2 + ("ves_i", "ves_ii") \
    + ("lh",) * 4 + ("lf",) * 3 + ("cd", "cd", "ces", "ces", "sh")


def draw_analyze_item(rng, kind: str, wide: bool) -> AnalyzeItem | None:
    """One admissible draw of ``kind``; None when it has no validity range
    in its probe window."""
    if kind.startswith("ves"):
        case = kind.split("_")[1]
        reg = ref.draw_ves_regression(rng, case)
        k0 = float(math.exp(rng.uniform(math.log(0.5), math.log(5.0))))
        xi = ref.calibrated_xi(reg.a, reg.b, reg.c, k0)
        params = Reg(reg.a, reg.b, reg.c, xi)
        spec = vp.LogLinearParams(a=reg.a, b=reg.b, c=reg.c)
        helper = vp.ves_from_loglinear(spec.with_xi(xi))
        probe = (1e-3, 1e3)
        regime = ref.rental_regime(reg.b, reg.c, xi)
    elif kind in ("lh", "lf"):
        params = ref.draw_lh(rng)
        k0 = None
        if kind == "lh":
            spec = vp.LiuHildebrandParams(a=params.a, b=params.b, c=params.c, xi=params.xi)
        else:
            spec = vp.LuFletcherParams(a=params.a, b=params.b, c=params.c,
                                       zeta=ref.lf_zeta(params))
        helper, probe = spec, (1e-3, 1e3)
        regime = ref.wage_regime(params.b, params.c)
    elif kind == "cd":
        params, k0 = ref.draw_cd(rng), None
        spec = helper = vp.CobbDouglasParams(A=params[0], beta=params[1])
        probe, regime = (0.05, 50.0), ("unit_sigma", 1.0, "constant")
    elif kind == "ces":
        params, k0 = ref.draw_ces(rng), None
        spec = helper = vp.CESParams(gamma=params[0], delta=params[1], sigma=params[2])
        probe, regime = (0.05, 50.0), ("constant_sigma", params[2], "constant")
    else:
        params, k0 = ref.draw_sh(rng), None
        spec = helper = vp.SatoHoffmanParams(gamma=params[0], delta=params[1],
                                             rho=params[2])
        bound = ref.sh_upper_bound(params[1], params[2])
        probe = (0.01, 50.0) if math.isinf(bound) else (bound / 500.0, bound * 2.0)
        regime = ("ParamError", "affine elasticity has no finite large-k limit")
    interval = _validity_range(helper, *probe)
    if interval.is_empty:
        return None
    window = probe
    if not wide:
        ratio = interval.k_high / interval.k_low
        window = (interval.k_low * ratio ** 0.35, interval.k_low * ratio ** 0.65)
    return AnalyzeItem(kind, params, spec, k0, window, wide, regime)


class Analyze(Workload):
    name = "analyze"
    blocks = 10

    def generate(self) -> list:
        rng = _rng(self.seed, 1)
        self.redraws = 0
        items = []
        for block in range(self.blocks):
            for idx in rng.permutation(len(ANALYZE_BLOCK)):
                # alternate wide and narrow windows per kind across blocks
                wide = (block + int(idx)) % 2 == 0
                items.append(_redraw_until(
                    self, lambda: draw_analyze_item(rng, ANALYZE_BLOCK[idx], wide)))
        return items

    def run(self, it: AnalyzeItem):
        spec, xi = it.spec, None
        if it.k0 is not None:
            xi = vp.calibrate_xi(spec, it.k0)
            spec = vp.ves_from_loglinear(spec.with_xi(xi))
        interval = vp.validity_range(spec, *it.window)
        try:
            regime = vp.classify_regime(spec)
        except vp.ParamError as exc:
            regime = exc
        lo, hi = interval.clip(*it.window)
        if lo == interval.k_low and lo > it.window[0]:
            lo *= 1.0 + 1e-9
        if hi == interval.k_high and hi < it.window[1]:
            hi *= 1.0 - 1e-9
        rows = [(k, vp.eval_intensive(spec, k), vp.mrs_closed(spec, k),
                 vp.mrs_derivative_closed(spec, k), vp.sigma_closed(spec, k),
                 vp.sigma_derivative_closed(spec, k))
                for k in _log_points(lo, hi, TRAJECTORY_POINTS)]
        return xi, spec, interval, regime, rows

    def check(self, it: AnalyzeItem, out) -> None:
        xi, spec, interval, regime, rows = out
        if it.k0 is not None:
            expect_close("calibrated xi", xi, it.params.xi, 1e-12)
        _check_regime(it.regime, regime)

        lo_w, hi_w = it.window
        expect(f"validity interval {interval} outside window {it.window}",
               not interval.is_empty and lo_w <= interval.k_low < interval.k_high <= hi_w)
        if not it.wide:
            expect(f"narrow window {it.window} not fully valid: {interval}",
                   interval.k_low == lo_w and interval.k_high == hi_w
                   and interval.constraints_active == ())
        for end, interior, inward in ((interval.k_low, interval.k_low > lo_w, 1.0),
                                      (interval.k_high, interval.k_high < hi_w, -1.0)):
            if not interior:
                continue
            inside, outside = end * (1.0 + inward * 1e-7), end * (1.0 - inward * 1e-7)
            expect(f"point {inside!r} just inside endpoint {end!r} is not valid",
                   not _violated_constraints(spec, inside))
            expect(f"point {outside!r} just outside endpoint {end!r} violates nothing",
                   bool(_violated_constraints(spec, outside)))

        expect(f"trajectory has {len(rows)} rows", len(rows) == TRAJECTORY_POINTS)
        for k, y, R, Rp, s, sp in rows:
            expect(f"trajectory row at k = {k!r} is not valid",
                   all(math.isfinite(v) for v in (y, R, Rp, s, sp))
                   and y > 0.0 and R > 0.0 and Rp > 0.0 and s > 0.0)
        for k, y, R, _, s, _ in (rows[20], rows[100], rows[180]):
            _check_point(it, k, y, R, s)


def _check_regime(want: tuple, got) -> None:
    if want[0] == "ParamError":
        expect(f"expected ParamError ({want[1]}), got {got!r}",
               isinstance(got, vp.ParamError) and want[1] in str(got))
        return
    expect(f"classify_regime raised {got!r}", not isinstance(got, Exception))
    label, limit, mono = want
    expect(f"regime case {got.case_label.value} != {label}", got.case_label.value == label)
    expect_close("regime limit", got.sigma_limit, limit, 1e-9)
    expect(f"monotonicity {got.monotonicity.value} != {mono}", got.monotonicity.value == mono)


def _check_point(it: AnalyzeItem, k: float, y: float, R: float, s: float) -> None:
    p = it.params
    if it.kind.startswith("ves"):
        expect_close(f"y({k:.6g})", y, ref.rental_y(p, k), 1e-9)
        t1, t2 = ref.rental_mrs_terms(p, k)
        expect_close(f"R({k:.6g})", R, t1 + t2, 1e-9, scale=abs(t1) + abs(t2))
        expect_close(f"R({k:.6g}) from the relation", R,
                     ref.rental_mrs_from_relation(p, y, k), 1e-8, scale=R + k)
        expect_close(f"sigma({k:.6g})", s, ref.rental_sigma(p, k), 1e-7)
    elif it.kind in ("lh", "lf"):
        expect_close(f"y({k:.6g})", y, ref.wage_y(p, k), 1e-9)
        expect_close(f"R({k:.6g}) from the relation", R,
                     ref.wage_mrs_from_relation(p, y, k), 1e-8)
    elif it.kind == "cd":
        A, beta = p
        expect_close(f"y({k:.6g})", y, ref.cd_y(A, beta, k), 1e-12)
        expect_close(f"R({k:.6g})", R, (1.0 - beta) / beta * k, 1e-12)
        expect(f"sigma({k:.6g}) = {s!r} != 1", s == 1.0)
    elif it.kind == "ces":
        gamma, delta, sigma = p
        expect_close(f"y({k:.6g})", y, ref.ces_y(gamma, delta, sigma, k), 1e-11)
        expect_close(f"R({k:.6g})", R, (1.0 - delta) / delta * k ** (1.0 / sigma), 1e-12)
        expect(f"sigma({k:.6g}) = {s!r} != {sigma!r}", s == sigma)
    else:
        gamma, delta, rho = p
        expect_close(f"y({k:.6g})", y, ref.sh_y(gamma, delta, rho, k), 1e-11)
        expect_close(f"R({k:.6g})", R, ref.sh_mrs(delta, rho, k), 1e-9, scale=k)
        expect_close(f"sigma({k:.6g})", s, ref.sh_sigma(delta, rho, k), 1e-12)


# ---------------------------------------------------------------------------
# verify: finite-difference and ODE oracles on trusted grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyItem:
    kind: str                  # cd, ces, ves, ves_c1, lh, lf, sh
    params: tuple
    spec: object
    grid: tuple[float, ...]
    loglinear: object = None   # LogLinearParams for equivalence / reduction
    ode: tuple[float, float] | None = None


VERIFY_BLOCK = ("cd", "ces", "ves", "ves_c1", "lh", "lf", "sh")


class Verify(Workload):
    name = "verify"
    blocks = 4

    def _draw(self, rng, kind: str) -> VerifyItem | None:
        loglinear = None
        if kind in ("ves", "ves_c1"):
            case = ("i", "ii", "iii")[int(rng.integers(3))]
            params = ref.draw_ves_regression(rng, case)
            if kind == "ves_c1":
                # the c = 1 reduction is an identity only at c = 1 exactly: for
                # c within reduce_special_case's tolerance but not 1 the two
                # forms differ by O(|c - 1|), which verify_reduction rightly flags
                params = Reg(params.a, params.b, 1.0, params.xi)
            loglinear = vp.LogLinearParams(a=params.a, b=params.b, c=params.c, xi=params.xi)
            spec, probe = vp.ves_from_loglinear(loglinear), (1e-3, 1e3)
        elif kind in ("lh", "lf"):
            params = ref.draw_lh(rng)
            loglinear = vp.LogLinearParams(a=params.a, b=params.b, c=params.c, xi=params.xi)
            spec = (vp.LiuHildebrandParams(a=params.a, b=params.b, c=params.c, xi=params.xi)
                    if kind == "lh" else
                    vp.LuFletcherParams(a=params.a, b=params.b, c=params.c,
                                        zeta=ref.lf_zeta(params)))
            probe = (1e-3, 1e3)
        elif kind == "cd":
            params = ref.draw_cd(rng)
            spec, probe = vp.CobbDouglasParams(A=params[0], beta=params[1]), (0.05, 50.0)
        elif kind == "ces":
            params = ref.draw_ces(rng)
            spec = vp.CESParams(gamma=params[0], delta=params[1], sigma=params[2])
            probe = (0.05, 50.0)
        else:
            params = ref.draw_sh(rng)
            spec = vp.SatoHoffmanParams(gamma=params[0], delta=params[1], rho=params[2])
            bound = ref.sh_upper_bound(params[1], params[2])
            probe = (0.01, 50.0) if math.isinf(bound) else (bound / 500.0, bound * 0.999)
        interval = _validity_range(spec, *probe, samples=192)
        if interval.is_empty:
            return None
        grid = ref.trusted_grid(lambda k: _eval_intensive(spec, k), interval.k_low,
                                interval.k_high, probe[0], probe[1], VERIFY_POINTS)
        if grid is None:
            return None
        ode = None
        if kind.startswith("ves"):
            k_start = grid[VERIFY_POINTS // 4]
            ode = (k_start, min(grid[3 * VERIFY_POINTS // 4], 4.0 * k_start))
        return VerifyItem(kind, params, spec, tuple(grid), loglinear, ode)

    def generate(self) -> list:
        rng = _rng(self.seed, 2)
        self.redraws = 0
        items = []
        for _ in range(self.blocks):
            for idx in rng.permutation(len(VERIFY_BLOCK)):
                items.append(_redraw_until(self, lambda: self._draw(rng, VERIFY_BLOCK[idx])))
        return items

    def run(self, it: VerifyItem):
        reports = [vp.verify_family(it.spec, it.grid)]
        y_end = None
        if it.ode is not None:
            k_start, k_end = it.ode
            y_start = vp.eval_intensive(it.spec, k_start)
            y_end = vp.ode_integrate_theorem(it.spec, k_start, y_start, k_end, ODE_STEPS)
        if it.kind == "lh":
            reports.append(vp.verify_equivalence_lh_lf(it.loglinear, it.grid))
        elif it.kind == "sh":
            reports.append(vp.verify_sato_hoffman(it.spec, it.grid))
        elif it.kind == "ves_c1":
            target = vp.reduce_special_case(it.loglinear)
            reports.append(vp.verify_reduction(it.spec, target, it.grid))
        return reports, y_end

    def check(self, it: VerifyItem, out) -> None:
        reports, y_end = out
        want = {"lh": ["family", "lh-lf-equivalence"], "sh": ["family", "sato-hoffman"],
                "ves_c1": ["family", "reduction"]}.get(it.kind, ["family"])
        expect(f"report names {[r.check_name for r in reports]} != {want}",
               [r.check_name for r in reports] == want)
        for r in reports:
            expect(f"{r.check_name} report failed: max_rel_error {r.max_rel_error:.3e} > "
                   f"{r.tolerance:g} at k = {r.worst_k!r} ({r.worst_quantity})", r.passed)
            expect(f"{r.check_name} checked {r.points_checked} of {len(it.grid)} points",
                   r.points_checked == len(it.grid))
        if it.ode is not None:
            expect_close("ode y(k_end)", y_end, ref.rental_y(it.params, it.ode[1]), 1e-8)


# ---------------------------------------------------------------------------
# fit: CSV parse, OLS on both relations, diagnostics, calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FitItem:
    text: str
    rental: tuple[float, float, float]     # generating (a, b, c)
    wage: tuple[float, float, float]
    k0: float
    columns: dict = field(repr=False)      # the generated y, k, r, w arrays


def synthetic_csv(rng: np.random.Generator, n: int) -> FitItem:
    """n rows from known rental and wage relations with 5 % log-normal noise
    on y; column order and header case vary."""
    a_r, b_r, c_r = math.exp(rng.uniform(-0.5, 0.5)), rng.uniform(0.3, 0.9), rng.uniform(1.1, 2.0)
    wage = ref.draw_lh(rng)
    ln_k = rng.normal(0.5, 0.8, n)
    ln_r = rng.normal(-1.0, 0.5, n)
    ln_y_true = math.log(a_r) + b_r * ln_r + c_r * ln_k
    ln_w = (ln_y_true - math.log(wage.a) - wage.c * ln_k) / wage.b
    ln_y = ln_y_true + rng.normal(0.0, 0.05, n)
    cols = {"y": np.exp(ln_y), "k": np.exp(ln_k), "r": np.exp(ln_r), "w": np.exp(ln_w)}
    order = [("period", "y", "k", "r", "w")[i] for i in rng.permutation(5)]
    header = [name.upper() if rng.random() < 0.5 else name for name in order]
    text_cols = {name: [repr(v) for v in values.tolist()] for name, values in cols.items()}
    text_cols["period"] = [f"t{i}" for i in range(n)]
    lines = [",".join(header)]
    lines.extend(",".join(text_cols[name][i] for name in order) for i in range(n))
    k0 = float(math.exp(rng.uniform(math.log(0.5), math.log(5.0))))
    return FitItem("\n".join(lines) + "\n", (a_r, b_r, c_r), (wage.a, wage.b, wage.c), k0, cols)


class Fit(Workload):
    name = "fit"
    pool = 6
    warm_up_ops = 1

    def generate(self) -> list:
        rng = _rng(self.seed, 3)
        return [synthetic_csv(rng, FIT_ROWS) for _ in range(self.pool)]

    def digest(self, items: list) -> str:
        return _digest(it.text.encode() + repr(it.k0).encode() for it in items)

    def run(self, it: FitItem):
        d = vp.load_dataset(it.text)
        rental = vp.fit_loglinear(d, "rental")
        wage = vp.fit_loglinear(d, "wage")
        diag = vp.diagnose_fit(d, rental)
        p = vp.LogLinearParams(a=math.exp(rental.intercept_ln_a.value),
                               b=rental.b_hat.value, c=rental.c_hat.value)
        xi = vp.calibrate_xi(p, it.k0)
        return d, rental, wage, diag, xi

    def check(self, it: FitItem, out) -> None:
        d, rental, wage, diag, xi = out
        cols = it.columns
        expect(f"dataset has {len(d.rows)} rows", len(d.rows) == FIT_ROWS and d.has_r and d.has_w)
        ln_y, ln_k = np.log(cols["y"]), np.log(cols["k"])
        for report, price, truth in ((rental, "r", it.rental), (wage, "w", it.wage)):
            X = np.column_stack([np.ones(FIT_ROWS), np.log(cols[price]), ln_k])
            lstsq = np.linalg.lstsq(X, ln_y, rcond=None)[0]
            got = (report.intercept_ln_a, report.b_hat, report.c_hat)
            want = (math.log(truth[0]), truth[1], truth[2])
            for name, est, ls, true in zip(("ln_a", "b", "c"), got, lstsq, want):
                expect(f"{price}: {name} = {est.value!r} differs from lstsq {ls!r}",
                       abs(est.value - ls) <= 1e-9 * max(1.0, abs(ls)))
                expect(f"{price}: {name} = {est.value!r} is more than 5 standard errors "
                       f"({est.stderr!r}) from the generating {true!r}",
                       abs(est.value - true) <= 5.0 * est.stderr)
            expect(f"{price}: n_obs {report.n_obs}, r_squared {report.r_squared}",
                   report.n_obs == FIT_ROWS and 0.0 < report.r_squared <= 1.0)
        b, c = rental.b_hat.value, rental.c_hat.value
        expect_close("b_plus_c", diag.b_plus_c, b + c, 1e-15)
        shares = cols["k"] * cols["r"] / cols["y"]
        expect_close("capital share min", diag.capital_share_range[0], float(shares.min()), 1e-12)
        expect_close("capital share max", diag.capital_share_range[1], float(shares.max()), 1e-12)
        expect_close("calibrated xi", xi, ref.calibrated_xi(
            math.exp(rental.intercept_ln_a.value), b, c, it.k0), 1e-12)


# ---------------------------------------------------------------------------
# cli: one cold `python -m vesprod.cli` child per operation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliItem:
    argv: tuple[str, ...]
    code: int                  # in-process vesprod.cli.main exit code and output
    stdout: bytes


def _opts(**values: float) -> list[str]:
    """``--name=value`` tokens.  The joined form keeps a negative value in
    exponent notation (``-9.7e-05``) from being read as an option: argparse
    only recognises plain negative decimals as values after a separate flag."""
    return [f"--{name.replace('_', '-')}={float(v)!r}" for name, v in values.items()]


def _reg_flags(p: Reg, xi: bool = True) -> list[str]:
    flags = _opts(a=p.a, b=p.b, c=p.c)
    return flags + _opts(xi=p.xi) if xi else flags


def _spec_flags(it: AnalyzeItem) -> list[str]:
    p = it.params
    family = it.kind.split("_")[0]
    if family in ("ves", "lh"):
        flags = _reg_flags(p)
    elif family == "lf":
        flags = [*_reg_flags(p, xi=False), *_opts(zeta=ref.lf_zeta(p))]
    elif family == "cd":
        flags = _opts(A=p[0], beta=p[1])
    elif family == "ces":
        flags = _opts(gamma=p[0], delta=p[1], sigma=p[2])
    else:
        flags = _opts(gamma=p[0], delta=p[1], rho=p[2])
    return ["--family", family, *flags]


# 7 eval (4 scalar, 3 extensive) : 2 regime : 2 calibrate-xi : 2 reduce :
# 1 trajectory : 1 fit : 5 verify (every suite at its defaults) per block of 20
CLI_BLOCK = ("eval_k",) * 4 + ("eval_KL",) * 3 + ("regime",) * 2 + ("calibrate",) * 2 \
    + ("reduce",) * 2 + ("trajectory", "fit") \
    + tuple(f"verify_{s}" for s in ("family", "equivalence", "ode", "sato-hoffman", "reduction"))


class Cli(Workload):
    name = "cli"
    in_child = True
    blocks = 1
    warm_up_ops = 1

    def __init__(self, root: Path, seed: int, work_dir: Path) -> None:
        super().__init__(root, seed)
        self.work_dir = work_dir
        self.fit_path = work_dir / "cli_fit.csv"
        self.env = child_env(root)
        self.trace_summary: dict | None = None   # summed trace summaries of children
        self.main_s: list[float] = []            # cli.main time of each traced child

    def _argv(self, rng, kind: str) -> list[str]:
        if kind in ("eval_k", "eval_KL", "regime", "trajectory"):
            family = {"regime": ("ves_ii", "ves_iii", "lh", "lf"),
                      "trajectory": ("ves_iii", "lh")}.get(
                kind, ("ves_ii", "ves_iii", "lh", "lf", "cd", "ces", "sh"))
            it = _redraw_until(self, lambda: draw_analyze_item(
                rng, family[int(rng.integers(len(family)))], wide=False))
            flags = _spec_flags(it)
            if kind == "regime":
                return ["regime", *flags]
            lo, hi = it.window
            if kind == "trajectory":
                return ["trajectory", *flags, *_opts(k_from=lo, k_to=hi),
                        "--points", str(TRAJECTORY_POINTS)]
            k = lo * (hi / lo) ** rng.random()
            point = _opts(k=k) if kind == "eval_k" else _opts(K=3.0 * k, L=3.0)
            return ["eval", *flags, *point]
        if kind == "calibrate":
            p = ref.draw_ves_regression(rng, ("ii", "iii")[int(rng.integers(2))])
            return ["calibrate-xi", *_reg_flags(p, xi=False), *_opts(k0=rng.uniform(0.5, 5.0))]
        if kind == "reduce":
            p = ref.draw_ves_regression(rng, "ii")
            c = 1.0 if rng.random() < 0.5 else p.c
            return ["reduce", *_reg_flags(Reg(p.a, p.b, c, p.xi))]
        if kind == "fit":
            return ["fit", str(self.fit_path), "--relation", "rental", "--diagnose"]
        return ["verify", "--suite", kind.split("_", 1)[1]]

    def generate(self) -> list:
        rng = _rng(self.seed, 4)
        self.redraws = 0
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.fit_path.write_text(synthetic_csv(rng, CLI_FIT_ROWS).text, encoding="utf-8")
        items = []
        for _ in range(self.blocks):
            for idx in rng.permutation(len(CLI_BLOCK)):
                argv = self._argv(rng, CLI_BLOCK[idx])
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = vesprod.cli.main(argv)
                items.append(CliItem(tuple(argv), code, out.getvalue().encode()))
        return items

    def digest(self, items: list) -> str:
        return _digest([self.fit_path.read_bytes()]
                       + [json.dumps(it.argv).replace(str(self.fit_path), "FIT") for it in items])

    def run(self, it: CliItem):
        if not self.traced:
            cmd = [sys.executable, "-m", "vesprod.cli", *it.argv]
        else:
            summary_path = self.work_dir / "child_trace.json"
            cmd = [sys.executable, str(Path(__file__).with_name("child.py")),
                   str(summary_path), *it.argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              timeout=120)
        if self.traced:
            part = json.loads(summary_path.read_text())
            summary_path.unlink()
            self.trace_summary = merge(self.trace_summary, part)
            self.main_s.append(part["fn_incl_s"].get("main", 0.0))
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, it: CliItem, out) -> None:
        code, stdout, stderr = out
        # every generated command is valid input, so the contract's exit code is 0
        expect(f"exit code {code}, in-process {it.code} (stderr {stderr[-300:]!r}) "
               f"for {list(it.argv)}", code == 0 and it.code == 0)
        expect(f"stdout differs from in-process main for {list(it.argv)}", stdout == it.stdout)


WORKLOADS = {cls.name: cls for cls in (Analyze, Verify, Fit, Cli)}


def make(name: str, root: Path, seed: int, work_dir: Path) -> Workload:
    cls = WORKLOADS[name]
    return cls(root, seed, work_dir) if cls is Cli else cls(root, seed)


def child_env(root: Path) -> dict:
    """The caller's environment with the checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def child_rusage() -> tuple[float, float]:
    """(CPU seconds, peak RSS in MB) of all waited-for children so far."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime, r.ru_maxrss / 1024.0
