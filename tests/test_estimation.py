import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import relerr
import vesprod
from vesprod import (
    DomainError,
    Estimate,
    FitReport,
    LogLinearParams,
    MissingColumnError,
    ParamError,
    ParseError,
    RankError,
    Relation,
    SingularError,
    ValidationError,
    calibrate_xi,
    diagnose_fit,
    fit_loglinear,
    load_dataset,
    mrs_closed,
    validity_range,
    ves_from_loglinear,
)
from vesprod.estimation import _scaled_share


def test_import_does_not_load_numpy():
    # numpy is imported by fit_loglinear and the ODE oracle alone, so the other
    # commands skip its start-up; the verifiers then run their scalar loop,
    # whose output is the golden table's
    from test_cli import GOLDEN_VERIFY
    src = str(Path(vesprod.__file__).parents[1])  # the children import the tree this process tests
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, vesprod, vesprod.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"
    # every golden verify command of a suite, one fresh interpreter per suite
    code = ("import contextlib, io, json, sys\n"
            "from vesprod.cli import main\n"
            "runs = []\n"
            "for flags in json.loads(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        runs.append([main(['verify', *flags.split()]), out.getvalue(), err.getvalue()])\n"
            "print(json.dumps(['numpy' in sys.modules, runs]))\n")
    for suite in ("family", "equivalence", "reduction", "sato-hoffman"):
        golden = [row for row in GOLDEN_VERIFY if row[0].split()[1] == suite]
        done = subprocess.run([sys.executable, "-c", code, json.dumps([row[0] for row in golden])],
                              env=env, capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == [False, [list(row[1:]) for row in golden]], suite


def _csv(rows, header="period,y,k,r"):
    return header + "\n" + "\n".join(rows) + "\n"


def _generate(relation: str, a: float, b: float, c: float, n: int,
              rng: np.random.Generator) -> str:
    """Noiseless synthetic data satisfying the log-linear relation exactly."""
    lines = []
    col = "r" if relation == "rental" else "w"
    for i in range(n):
        y = float(rng.uniform(0.5, 5.0))
        k = float(rng.uniform(0.5, 8.0))
        price = (y / (a * k ** c)) ** (1.0 / b)
        lines.append(f"t{i},{y!r},{k!r},{price!r}")
    return _csv(lines, header=f"period,y,k,{col}")


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def test_load_happy_path():
    d = load_dataset(_csv([
        "1957,1.1,2.0,0.3",
        "1958,1.2,2.1,0.31",
        "1959,1.3,2.2,0.32",
        "1960,1.4,2.3,0.33",
    ]))
    assert len(d) == 4
    assert d.has_r and not d.has_w
    assert d.rows[0].period == "1957"
    assert d.rows[0].r == pytest.approx(0.3)
    assert d.rows[0].w is None


def test_load_column_order_and_case_insensitive():
    d = load_dataset("K,Y,PERIOD,W\n2.0,1.1,a,0.5\n2.1,1.2,b,0.6\n")
    assert d.has_w and not d.has_r
    assert d.rows[1].k == pytest.approx(2.1)
    assert d.rows[1].w == pytest.approx(0.6)


def test_load_drops_a_leading_byte_order_mark():
    # as the utf-8-sig codec reads it; spreadsheet programs write one in "CSV UTF-8"
    text = "period,y,k,r\nt0,1,1,1\nt1,1,2,1\n"
    assert load_dataset("\ufeff" + text) == load_dataset(text)


def test_load_zero_value_names_row():
    src = _csv(["p1,1.0,2.0,0.3", "p2,1.1,2.1,0.3", "p3,0,2.2,0.3", "p4,1.3,2.3,0.3"])
    with pytest.raises(ValidationError, match="row 3"):
        load_dataset(src)


def test_load_duplicate_period():
    src = _csv(["p1,1.0,2.0,0.3", "p1,1.1,2.1,0.3"])
    with pytest.raises(ValidationError, match="duplicate period"):
        load_dataset(src)


def test_load_bad_number_names_row_and_column():
    src = _csv(["p1,1.0,2.0,0.3", "p2,not_a_number,2.1,0.3"])
    with pytest.raises(ParseError, match="row 2, column 'y'"):
        load_dataset(src)


def test_load_rejects_non_finite_value():
    src = _csv(["p1,1.0,2.0,0.3", "p2,1.1,1e400,0.3"])
    with pytest.raises(ValidationError, match="row 2, column 'k'"):
        load_dataset(src)


def test_load_rejects_thousands_separators():
    with pytest.raises(ParseError):
        load_dataset(_csv(["p1,1_000,2.0,0.3"]))


def test_load_rejects_unknown_column():
    with pytest.raises(ParseError, match="unknown column"):
        load_dataset("period,y,k,trend\np1,1.0,2.0,3\n")


def test_load_rejects_missing_required():
    with pytest.raises(ParseError, match="missing required column"):
        load_dataset("period,y\np1,1.0\n")


def test_load_rejects_duplicate_column():
    # column names are compared in lower case
    with pytest.raises(ParseError, match="duplicate column names in header"):
        load_dataset("period,y,Y,k\np1,1.0,1.0,2.0\n")


def test_load_rejects_empty_period_label():
    with pytest.raises(ParseError, match=r"^row 1, column 'period': empty label$"):
        load_dataset("period,y,k\n ,1,1\n")


def test_load_field_count_mismatch():
    with pytest.raises(ParseError, match="row 2"):
        load_dataset("period,y,k\np1,1.0,2.0\np2,1.0\n")


def test_load_empty_and_blank():
    with pytest.raises(ParseError):
        load_dataset("")
    with pytest.raises(ValidationError, match="no data rows"):
        load_dataset("period,y,k\n")
    d = load_dataset("period,y,k\n\np1,1.0,2.0\n \np2,1.5,0.3\n")
    assert [row.period for row in d.rows] == ["p1", "p2"]


_LONG_FIELD = "x" * 131_073  # one past the csv module's default field size limit


@pytest.mark.parametrize("text, where", [
    (f"period,y,k,{_LONG_FIELD}\np1,1,2,3\n", "header row"),
    (f"period,y,k\np1,1,2\n\np3,1,{_LONG_FIELD}\n", "row 3"),  # a blank line counts
    ("period,y,k\np1,1,2\np2,1\x005,2\n", "row 2"),  # the csv reader's own fault on 3.10
], ids=["long-header-field", "long-row-field", "nul"])
def test_load_turns_a_csv_error_into_a_parse_error_naming_its_row(text, where):
    with pytest.raises(ParseError, match=f"^{where}: "):
        load_dataset(text)


@pytest.mark.parametrize("text", [
    "period,y,k\rp1,1,2\np2,1,5\n",
    "period,y,k\np1,1,2\rp2,1,5\n",
], ids=["header", "data-row"])
def test_a_lone_cr_ends_a_line_on_every_python(text):
    # as a file opened in text mode reads it, so that vesprod fit and load_dataset agree
    assert load_dataset(text) == load_dataset(text.replace("\r", "\n"))


@pytest.mark.parametrize("text, message", [
    ("pe\x00riod,y,k\np1,1,2\n", "header row: line contains NUL"),
    ("period,y,k\np1,1,2\n\np3,1\x00,2\n", "row 3: line contains NUL"),  # a blank line counts
    ("period,y,k\nt\x001,1,1\n", "row 1: line contains NUL"),
], ids=["header", "number-cell", "period-label"])
def test_a_nul_is_one_parse_error_on_every_python(text, message):
    # Python 3.10's csv reader rejects a NUL itself; 3.11 and later keep it in the cell
    with pytest.raises(ParseError) as info:
        load_dataset(text)
    assert str(info.value) == message


def test_load_scientific_notation_accepted():
    d = load_dataset("period,y,k\np1,1e0,2.5e-1\np2,1.5,0.3\n")
    assert d.rows[0].k == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def test_fit_noiseless_recovery(rng):
    src = _generate("rental", a=2.0, b=0.8, c=0.3, n=50, rng=rng)
    d = load_dataset(src)
    report = fit_loglinear(d, "rental")
    assert report.relation is Relation.RENTAL
    assert report.n_obs == 50
    assert abs(report.intercept_ln_a.value - math.log(2.0)) < 1e-9
    assert abs(report.b_hat.value - 0.8) < 1e-9
    assert abs(report.c_hat.value - 0.3) < 1e-9
    assert report.intercept_ln_a.stderr < 1e-9
    assert report.b_hat.stderr < 1e-9
    assert report.c_hat.stderr < 1e-9
    assert report.r_squared == pytest.approx(1.0, abs=1e-12)
    assert report.residual_variance < 1e-20


def test_fit_wage_relation(rng):
    src = _generate("wage", a=1.5, b=0.6, c=0.35, n=40, rng=rng)
    report = fit_loglinear(load_dataset(src), Relation.WAGE)
    assert report.relation is Relation.WAGE
    assert abs(report.b_hat.value - 0.6) < 1e-9
    assert abs(report.c_hat.value - 0.35) < 1e-9


def test_fit_missing_price_column():
    d = load_dataset(_csv(["p1,1.0,2.0", "p2,1.1,2.1", "p3,1.2,2.2", "p4,1.3,2.3"],
                          header="period,y,k"))
    with pytest.raises(MissingColumnError):
        fit_loglinear(d, "rental")
    with pytest.raises(MissingColumnError):
        fit_loglinear(d, "wage")


@pytest.mark.parametrize("relation", ["bogus", "RENTAL", None, 3])
def test_fit_unknown_relation_raises_param_error(relation):
    d = load_dataset(_csv(["p1,1.0,2.0,0.3", "p2,1.1,2.1,0.31", "p3,1.2,2.2,0.32",
                           "p4,1.3,2.3,0.33"]))
    message = rf"^relation must be 'rental' or 'wage', got {re.escape(repr(relation))}$"
    with pytest.raises(ParamError, match=message):
        fit_loglinear(d, relation)


def test_fit_insufficient_observations():
    d = load_dataset(_csv(["p1,1.0,2.0,0.3", "p2,1.1,2.1,0.31", "p3,1.2,2.2,0.32"]))
    with pytest.raises(ValidationError, match="at least 4"):
        fit_loglinear(d, "rental")


def test_fit_constant_regressor_raises_rank_error(rng):
    rows = [f"t{i},{float(rng.uniform(1, 2))!r},{float(rng.uniform(1, 3))!r},0.7"
            for i in range(10)]
    with pytest.raises(RankError):
        fit_loglinear(load_dataset(_csv(rows)), "rental")


def test_fit_determinism(rng):
    src = _generate("rental", a=2.0, b=0.8, c=0.3, n=30, rng=rng)
    a = fit_loglinear(load_dataset(src), "rental")
    b = fit_loglinear(load_dataset(src), "rental")
    assert a == b


def test_fit_residual_orthogonality(rng):
    # noisy data: normal-equation identity X'(y - X beta) = 0
    n = 60
    k = rng.uniform(0.5, 8.0, size=n)
    r = rng.uniform(0.2, 2.0, size=n)
    noise = rng.normal(0.0, 0.15, size=n)
    y = 1.4 * r ** 0.7 * k ** 0.25 * np.exp(noise)
    lines = [f"t{i},{float(y[i])!r},{float(k[i])!r},{float(r[i])!r}" for i in range(n)]
    d = load_dataset(_csv(lines))
    rep = fit_loglinear(d, "rental")
    X = np.column_stack([np.ones(n), np.log(r), np.log(k)])
    beta = np.array([rep.intercept_ln_a.value, rep.b_hat.value, rep.c_hat.value])
    resid = np.log(y) - X @ beta
    assert np.max(np.abs(X.T @ resid)) < 1e-10
    assert 0.0 <= rep.r_squared <= 1.0
    assert rep.residual_variance > 0.0


def test_fit_classical_standard_errors(rng):
    # compare against the textbook formula s^2 (X'X)^-1 computed directly
    n = 25
    k = rng.uniform(0.5, 8.0, size=n)
    r = rng.uniform(0.2, 2.0, size=n)
    y = 1.4 * r ** 0.7 * k ** 0.25 * np.exp(rng.normal(0.0, 0.2, size=n))
    lines = [f"t{i},{float(y[i])!r},{float(k[i])!r},{float(r[i])!r}" for i in range(n)]
    rep = fit_loglinear(load_dataset(_csv(lines)), "rental")
    X = np.column_stack([np.ones(n), np.log(r), np.log(k)])
    beta_ref, *_ = np.linalg.lstsq(X, np.log(y), rcond=None)
    resid = np.log(y) - X @ beta_ref
    s2 = resid @ resid / (n - 3)
    cov = s2 * np.linalg.inv(X.T @ X)
    assert rep.b_hat.stderr == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-9)
    assert rep.c_hat.stderr == pytest.approx(math.sqrt(cov[2, 2]), rel=1e-9)
    assert rep.residual_variance == pytest.approx(s2, rel=1e-9)


def _exact_least_squares(X, y):
    """The exact least-squares solution beta* for the float64 design X and
    observations y, and its residual y - X beta*: the normal equations solved
    in rationals."""
    rows = [[Fraction(v) for v in row] for row in X.tolist()]
    ys = [Fraction(v) for v in y.tolist()]
    m = [[sum(row[i] * row[j] for row in rows) for j in range(3)]
         + [sum(row[i] * t for row, t in zip(rows, ys))] for i in range(3)]
    for c in range(3):  # Gauss-Jordan; X'X is positive definite, so no pivot is 0
        for r in range(3):
            if r != c:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    beta = [m[i][3] / m[i][i] for i in range(3)]
    return beta, [t - sum(x * b for x, b in zip(row, beta)) for row, t in zip(rows, ys)]


#: C of the perturbation bound of a backward-stable least-squares solve,
#: |beta - beta*| / |beta*| <= C eps (kappa + kappa^2 |r| / (|X| |beta*|)).  With
#: C = 1, 1,000 seeded draws of the test below read at most 0.38 of the bound.
_OLS_C = 2.0


@pytest.mark.parametrize("relation, seed", [("rental", 1), ("wage", 2)])
def test_fit_is_the_exact_least_squares_solution_to_its_conditioning(relation, seed):
    # ln price nearly collinear with ln k, so that cond(X) runs from about 1e1
    # to 1e7, and y with about 5 % noise: eps * kappa alone does not bound such
    # a fit, as its residual enters the error with kappa^2
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    for _ in range(20):
        n = int(rng.integers(4, 201))
        ln_k = rng.uniform(0.0, 3.0, n)
        ln_p = 0.4 + 0.7 * ln_k + 3.0 * 10 ** -rng.uniform(1, 7) * rng.standard_normal(n)
        y = np.exp(0.8 + 0.6 * ln_p + 0.3 * ln_k + 0.05 * rng.standard_normal(n))
        k, price = np.exp(ln_k), np.exp(ln_p)
        lines = [f"t{i},{row[0]!r},{row[1]!r},{row[2]!r}"
                 for i, row in enumerate(zip(y.tolist(), k.tolist(), price.tolist()))]
        fit = fit_loglinear(load_dataset(_csv(lines, f"period,y,k,{relation[0]}")), relation)
        # the design and ln y that fit_loglinear builds from the same floats
        X = np.column_stack([np.ones(n), np.log(price), np.log(k)])
        beta, resid = _exact_least_squares(X, np.log(y))
        sv = np.linalg.svd(X, compute_uv=False)
        kappa = sv[0] / sv[-1]
        norm_beta = math.sqrt(sum(b * b for b in beta))
        norm_r = math.sqrt(sum(r * r for r in resid))
        bound = _OLS_C * eps * (kappa + kappa ** 2 * norm_r / (sv[0] * norm_beta))
        fitted = (fit.intercept_ln_a.value, fit.b_hat.value, fit.c_hat.value)
        error = math.sqrt(sum((Fraction(v) - b) ** 2 for v, b in zip(fitted, beta)))
        assert error / norm_beta <= bound, (n, kappa)
        if kappa <= 1e3:  # the bound sees a coefficient off by 1e-9
            assert bound < 1e-9


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def test_diagnose_reference_wage_fit_values():
    # reference wage-relation estimates: b = 0.942627, c = 0.057061 (0.052371)
    d = load_dataset(_csv(["p1,1.0,2.0", "p2,1.1,2.1"], header="period,y,k"))
    f = FitReport(
        intercept_ln_a=Estimate(0.337698, 0.057614),
        b_hat=Estimate(0.942627, 0.022062),
        c_hat=Estimate(0.057061, 0.052371),
        residual_variance=1e-4, r_squared=0.99, n_obs=19, relation=Relation.WAGE)
    diag = diagnose_fit(d, f)
    assert diag.b_plus_c == pytest.approx(0.999688, abs=1e-9)
    assert diag.dist_to_unity == pytest.approx(0.000312, abs=1e-9)
    assert diag.c_significance == pytest.approx(1.0895, abs=1e-3)
    assert diag.capital_share_range is None
    assert diag.share_restriction_violated is None


def test_diagnose_degenerate_sum_flagged(rng):
    src = _generate("wage", a=1.2, b=0.62, c=0.38, n=30, rng=rng)  # b + c = 1
    d = load_dataset(src)
    f = fit_loglinear(d, "wage")
    diag = diagnose_fit(d, f)
    assert diag.dist_to_unity < 1e-6


def test_diagnose_share_restriction(rng):
    # construct shares k*r/y all below 0.5, c_hat = 1.2: no violation
    rows = []
    for i in range(6):
        k, y = 2.0, 4.0
        r = 0.8  # share = 0.4
        rows.append(f"t{i},{y},{k},{r}")
    d = load_dataset(_csv(rows))
    f = FitReport(Estimate(0.0, 0.1), Estimate(0.8, 0.1), Estimate(1.2, 0.1),
                  1e-3, 0.9, 6, Relation.RENTAL)
    diag = diagnose_fit(d, f)
    assert diag.capital_share_range == (pytest.approx(0.4), pytest.approx(0.4))
    assert diag.share_restriction_violated is False
    # same data, c_hat below the maximum share: violated
    f2 = FitReport(Estimate(0.0, 0.1), Estimate(0.8, 0.1), Estimate(0.35, 0.1),
                   1e-3, 0.9, 6, Relation.RENTAL)
    assert diagnose_fit(d, f2).share_restriction_violated is True


def test_diagnose_zero_stderr_gives_inf_sentinel(rng):
    src = _generate("rental", a=2.0, b=0.8, c=0.3, n=20, rng=rng)
    d = load_dataset(src)
    f = fit_loglinear(d, "rental")
    f = FitReport(f.intercept_ln_a, f.b_hat, Estimate(f.c_hat.value, 0.0),
                  f.residual_variance, f.r_squared, f.n_obs, f.relation)
    assert math.isinf(diagnose_fit(d, f).c_significance)



def test_diagnose_overflowing_share_raises():
    d = load_dataset("period,y,k,r\nt0,0.2,1e300,1e10\nt1,2,2,1\nt2,1,1,2\nt3,1.5,2,3\n")
    with pytest.raises(DomainError, match="period 't0': the capital share k\\*r/y overflows"):
        diagnose_fit(d, fit_loglinear(d, "rental"))


@pytest.mark.parametrize("value, share_range", [(1e200, (1.0, 1e200)), (1e-200, (1e-200, 4.0))])
def test_diagnose_share_whose_product_leaves_the_range(value, share_range):
    # k*r overflows (1e400) or underflows (1e-400) on the way to a share of 1e+-200;
    # the first once exited 2 as an overflow, the second gave a share of 0
    d = load_dataset(f"period,y,k,r\nt0,{value},{value},{value}\nt1,2,2,1\nt2,1,1,2\nt3,1.5,2,3\n")
    lo, hi = diagnose_fit(d, fit_loglinear(d, "rental")).capital_share_range
    assert (lo, hi) == (pytest.approx(share_range[0], rel=1e-15),
                        pytest.approx(share_range[1], rel=1e-15))


def test_scaled_share_is_the_rounded_true_share():
    # k*r/y's own bits where k*r and k*r/y are normal; elsewhere within 2 ulp
    # of the correctly rounded share, and inf exactly where the share overflows
    rng = np.random.default_rng(3)
    for k, r, y in (10.0 ** rng.uniform(-320.0, 308.0, size=(3000, 3))).tolist():
        share = _scaled_share(k, r, y)
        if all(sys.float_info.min <= x < math.inf for x in (k * r, k * r / y)):
            assert share == k * r / y
            continue
        true = Fraction(k) * Fraction(r) / Fraction(y)
        if true > Fraction(sys.float_info.max):
            assert share == math.inf
        else:
            assert abs(share - float(true)) <= 2.0 * math.ulp(float(true))


# ---------------------------------------------------------------------------
# Calibration of xi
# ---------------------------------------------------------------------------

def test_calibrate_xi_reference_value(reference_fit):
    p = LogLinearParams(a=reference_fit.a, b=reference_fit.b, c=reference_fit.c)  # without xi
    xi = calibrate_xi(p, 2.0799)
    assert xi == pytest.approx(-3.79, abs=0.01)
    # R vanishes at k0 and is positive beyond it
    v = ves_from_loglinear(p.with_xi(xi))
    assert abs(mrs_closed(v, 2.0799)) < 1e-9
    for k in np.linspace(2.08, 2 * 2.0799, 20):
        assert mrs_closed(v, k) > 0.0
    # validity range starts at k0
    interval = validity_range(v, 0.5, 50.0)
    assert interval.k_low == pytest.approx(2.0799, rel=1e-8)


@pytest.mark.parametrize("a,k0", [
    (2.0, 2.0),   # a^(1/b) = 2^10000 overflows
    (0.5, 2.0),   # a^(1/b) = 0.5^10000 underflows to 0, a division by zero
    (1.0, 0.5),   # k0^(1 - c/b) = 0.5^(-4999) overflows
    (1.0, 2.0),   # k0^(1 - c/b) = 2^(-4999) underflows to 0, so xi does
])
def test_calibrate_xi_out_of_range_is_singular(a, k0):
    with pytest.raises(SingularError):
        calibrate_xi(LogLinearParams(a=a, b=1e-4, c=0.5), k0)


def test_calibrate_xi_ignores_existing_xi(reference_fit):
    assert calibrate_xi(reference_fit, 2.0799) == calibrate_xi(
        LogLinearParams(a=reference_fit.a, b=reference_fit.b, c=reference_fit.c), 2.0799)


def test_calibrate_xi_scaling_law(reference_fit):
    # xi(k0) * k0^(c/b - 1) is constant in k0
    values = []
    for k0 in (0.5, 1.0, 2.0799, 5.0, 20.0):
        xi = calibrate_xi(reference_fit, k0)
        values.append(xi * k0 ** (reference_fit.c / reference_fit.b - 1.0))
    for v in values[1:]:
        assert relerr(v, values[0]) < 1e-12


def test_calibrate_xi_sign_by_case():
    # c > 1 > b: attainable, xi < 0
    assert calibrate_xi(LogLinearParams(a=1.0, b=0.6, c=1.4), 1.5) < 0.0
    # c < b < 1: attainable below k0, xi < 0
    assert calibrate_xi(LogLinearParams(a=1.0, b=0.8, c=0.3), 1.5) < 0.0
    # b < c < 1: the sign condition is not attainable, xi > 0
    assert calibrate_xi(LogLinearParams(a=1.0, b=0.3, c=0.8), 1.5) > 0.0


def test_calibrate_xi_errors(reference_fit):
    with pytest.raises(SingularError):
        calibrate_xi(LogLinearParams(a=1.0, b=0.6, c=1.0), 2.0)
    with pytest.raises(ParamError):
        calibrate_xi(LogLinearParams(a=1.0, b=0.7, c=0.7), 2.0)
    with pytest.raises(ParamError):
        calibrate_xi(LogLinearParams(a=1.0, b=1.0, c=0.7), 2.0)
    with pytest.raises(DomainError):
        calibrate_xi(reference_fit, -1.0)
