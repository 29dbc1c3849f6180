import contextlib
import math
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vesprod import (
    LogLinearParams,
    VESParams,
    VesprodError,
    calibrate_xi,
    classify_regime,
    loglinear_from_ves,
    ode_integrate_theorem,
    verify_family,
    ves_from_loglinear,
)
from vesprod.cli import TRAJECTORY_HEADER, main

REFERENCE_FLAGS = ["--ln-a", "0.773454", "--b", "0.934369", "--c", "1.191951"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_structural_ves(capsys):
    code, out, _ = run(capsys, "eval", "--family", "ves", "--psi", "1",
                       "--lambda", "0", "--theta", "2", "--mu", "1", "--k", "1")
    assert code == 0
    assert out.strip() == "0.500000000000"


def test_eval_cobb_douglas_extensive(capsys):
    code, out, _ = run(capsys, "eval", "--family", "cd", "--A", "2",
                       "--beta", "0.4", "--K", "8", "--L", "8")
    assert code == 0
    assert out.strip() == "16.0000000000"


def test_eval_regression_space_matches_structural(capsys):
    code1, out1, _ = run(capsys, "eval", "--family", "ves", *REFERENCE_FLAGS,
                         "--xi", "-3.79", "--k", "3.3")
    p = LogLinearParams(a=math.exp(0.773454), b=0.934369, c=1.191951, xi=-3.79)
    from vesprod import eval_intensive
    expected = eval_intensive(ves_from_loglinear(p), 3.3)
    assert code1 == 0
    assert float(out1) == pytest.approx(expected, rel=1e-11)


def test_eval_missing_flag_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--family", "ves", "--psi", "1",
                       "--lambda", "0", "--theta", "2", "--k", "1")
    assert code == 2
    assert "--mu" in err


def test_eval_mixed_parameter_spaces_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--family", "ves", "--psi", "1",
                       "--lambda", "0", "--theta", "2", "--mu", "1",
                       "--xi", "-1", "--k", "1")
    assert code == 2
    assert "mix" in err


def test_eval_parameter_overflow_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--family", "ves", "--a", "2", "--b", "1e-4",
                       "--c", "0.5", "--xi=-1", "--k", "1")
    assert code == 2
    assert "overflows" in err


@pytest.mark.parametrize("value", ["-9.68e-05", "-1E3", "-2.5e+00"])
def test_negative_exponent_value_as_separate_token(capsys, value):
    base = ["eval", "--family", "ves", "--a", "2", "--b", "0.5", "--c", "1.5"]
    joined = run(capsys, *base, f"--xi={value}", "--k", "3")
    assert joined[0] == 0
    assert run(capsys, *base, "--xi", value, "--k", "3") == joined


def test_negative_value_after_double_dash_stays_positional(capsys):
    code, _, err = run(capsys, "fit", "--relation", "rental", "--", "-1e-3")
    assert code == 2
    assert "'-1e-3'" in err  # read as the input path, which does not exist


def test_eval_needs_exactly_one_input_form(capsys):
    base = ["eval", "--family", "cd", "--A", "2", "--beta", "0.4"]
    assert run(capsys, *base)[0] == 2
    assert run(capsys, *base, "--k", "1", "--K", "2", "--L", "2")[0] == 2
    assert run(capsys, *base, "--K", "2")[0] == 2


def test_eval_domain_error_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--family", "sh", "--gamma", "1",
                       "--delta", "0.5", "--rho", "0.5", "--k", "1.6")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_fit_noiseless_output(tmp_path, capsys, rng):
    a, b, c = 2.0, 0.8, 0.3
    lines = ["period,y,k,r"]
    for i in range(50):
        y = float(rng.uniform(0.5, 5.0))
        k = float(rng.uniform(0.5, 8.0))
        r = (y / (a * k ** c)) ** (1.0 / b)
        lines.append(f"t{i},{y!r},{k!r},{r!r}")
    path = _write(tmp_path, "d.csv", "\n".join(lines) + "\n")
    code, out, _ = run(capsys, "fit", path, "--relation", "rental")
    assert code == 0
    match = re.search(r"ln\(y\) = (\S+) \+ (\S+) ln\(r\) \+ (\S+) ln\(k\)", out)
    assert match
    assert float(match.group(1)) == pytest.approx(math.log(2.0), abs=1e-9)
    assert float(match.group(2)) == pytest.approx(0.8, abs=1e-9)
    assert float(match.group(3)) == pytest.approx(0.3, abs=1e-9)
    assert "n_obs: 50" in out
    # standard errors on the following line, parenthesized
    lines_out = out.splitlines()
    idx = next(i for i, ln in enumerate(lines_out) if ln.startswith("ln(y)"))
    assert lines_out[idx + 1].count("(") == 3


def test_fit_three_rows_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "small.csv",
                  "period,y,k,r\na,1,2,0.3\nb,1.1,2.1,0.31\nc,1.2,2.2,0.32\n")
    code, _, err = run(capsys, "fit", path, "--relation", "rental")
    assert code == 2
    assert "at least 4" in err


def test_fit_diagnose_degenerate_sum(tmp_path, capsys, rng):
    a, b, c = 1.2, 0.62, 0.38  # b + c = 1 exactly
    lines = ["period,y,k,w"]
    for i in range(30):
        y = float(rng.uniform(0.5, 5.0))
        k = float(rng.uniform(0.5, 8.0))
        w = (y / (a * k ** c)) ** (1.0 / b)
        lines.append(f"t{i},{y!r},{k!r},{w!r}")
    path = _write(tmp_path, "deg.csv", "\n".join(lines) + "\n")
    code, out, _ = run(capsys, "fit", path, "--relation", "wage", "--diagnose")
    assert code == 0
    assert "b+c within 1e-6 of unity: marginal rate of substitution degenerates" in out
    assert "capital_share_range = (no rental column)" in out


def test_fit_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "fit", "/nonexistent/file.csv", "--relation", "rental")
    assert code == 2


def test_fit_non_finite_cell_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "inf.csv", "period,y,k,r\na,1,2,0.3\nb,1e400,2.1,0.31\n"
                  "c,1.2,2.2,0.32\nd,1.3,2.3,0.33\n")
    code, out, err = run(capsys, "fit", path, "--relation", "rental")
    assert code == 2
    assert out == ""
    assert "row 2, column 'y'" in err


def test_fit_bad_relation_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "d.csv", "period,y,k\na,1,2\n")
    assert run(capsys, "fit", path, "--relation", "price")[0] == 2


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

def _parse_rows(out):
    lines = out.strip().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def test_trajectory_reference_fit(capsys):
    code, out, _ = run(capsys, "trajectory", "--family", "ves", *REFERENCE_FLAGS,
                       "--xi", "-3.79", "--k-from", "2.0799", "--k-to", "50",
                       "--points", "200")
    assert code == 0
    rows = _parse_rows(out)
    assert len(rows) == 200
    ks = [row[0] for row in rows]
    sigmas = [row[4] for row in rows]
    assert ks[0] == pytest.approx(2.0799, rel=1e-12)
    assert ks[-1] == pytest.approx(50.0, rel=1e-12)
    assert all(a < b for a, b in zip(ks, ks[1:]))
    assert all(a < b for a, b in zip(sigmas, sigmas[1:])), "sigma must increase"
    # frozen from the closed form; the limit b/c = 0.7839 is still 0.105 away at k=50
    assert sigmas[-1] == pytest.approx(0.679295452987, rel=1e-9)
    assert all(math.isfinite(v) for row in rows for v in row)


def test_trajectory_long_range_approaches_limit(capsys):
    code, out, _ = run(capsys, "trajectory", "--family", "ves", *REFERENCE_FLAGS,
                       "--xi", "-3.79", "--k-from", "2.0799", "--k-to", "1e4",
                       "--points", "60")
    assert code == 0
    rows = _parse_rows(out)
    assert abs(rows[-1][4] - 0.934369 / 1.191951) < 0.05


def test_trajectory_clips_to_validity(capsys):
    # request below the R > 0 boundary at ~2.0776: rows start there, not at 0.5
    code, out, _ = run(capsys, "trajectory", "--family", "ves", *REFERENCE_FLAGS,
                       "--xi", "-3.79", "--k-from", "0.5", "--k-to", "10",
                       "--points", "50")
    assert code == 0
    rows = _parse_rows(out)
    assert rows[0][0] == pytest.approx(2.0776, abs=2e-3)
    assert all(row[2] > 0.0 for row in rows)  # R > 0 on emitted rows


def test_trajectory_emitted_points_satisfy_oracles(capsys, reference_fit_ves):
    code, out, _ = run(capsys, "trajectory", "--family", "ves", *REFERENCE_FLAGS,
                       "--xi", "-3.79", "--k-from", "2.0799", "--k-to", "50",
                       "--points", "40")
    assert code == 0
    ks = [row[0] for row in _parse_rows(out)]
    report = verify_family(reference_fit_ves, ks)
    assert report.passed, report


def test_trajectory_empty_intersection_exits_2(capsys):
    code, _, err = run(capsys, "trajectory", "--family", "ves", *REFERENCE_FLAGS,
                       "--xi", "-3.79", "--k-from", "0.5", "--k-to", "2.0")
    assert code == 2
    assert "validity" in err


def test_trajectory_constant_sigma_for_ces(capsys):
    code, out, _ = run(capsys, "trajectory", "--family", "ces", "--gamma", "1",
                       "--delta", "0.4", "--sigma", "0.7", "--k-from", "0.5",
                       "--k-to", "5", "--points", "20")
    assert code == 0
    rows = _parse_rows(out)
    assert all(row[4] == pytest.approx(0.7, abs=1e-15) for row in rows)
    assert all(row[5] == 0.0 for row in rows)


def test_trajectory_bad_points_exits_2(capsys):
    code, _, _ = run(capsys, "trajectory", "--family", "ces", "--gamma", "1",
                     "--delta", "0.4", "--sigma", "0.7", "--k-from", "0.5",
                     "--k-to", "5", "--points", "1")
    assert code == 2


# ---------------------------------------------------------------------------
# regime
# ---------------------------------------------------------------------------

def test_regime_reference_fit(capsys):
    code, out, _ = run(capsys, "regime", "--family", "ves", *REFERENCE_FLAGS,
                       "--xi", "-3.79")
    assert code == 0
    assert out.startswith("case iii, limit ")
    assert out.strip().endswith("increasing")
    value = float(out.split("limit")[1].split(",")[0])
    assert value == pytest.approx(0.934369 / 1.191951, rel=1e-10)


def test_regime_case_ii(capsys):
    code, out, _ = run(capsys, "regime", "--family", "ves", "--a", "1",
                       "--b", "0.9", "--c", "0.5", "--xi", "-1")
    assert code == 0
    assert out.startswith("case ii, limit 1.00000000000, increasing")


def test_regime_boundary_exits_2(capsys):
    code, _, err = run(capsys, "regime", "--family", "ves", "--a", "1",
                       "--b", "0.6", "--c", "1", "--xi", "-1")
    assert code == 2
    assert "reduce" in err and "sigma = b" in err


def test_regime_ces(capsys):
    code, out, _ = run(capsys, "regime", "--family", "ces", "--gamma", "1",
                       "--delta", "0.4", "--sigma", "0.7")
    assert code == 0
    assert out.startswith("constant sigma, limit 0.700000000000, constant")


@pytest.mark.parametrize("argv, out", [
    ("regime --family lh --a 1 --b 0.01 --c 0.5 --xi=-1",
     "LH CD limit, limit 1.00000000000, increasing\n"),
    ("regime --family ves --lambda=-0.5 --mu 1 --theta 200 --psi 1",
     "case iii, limit 0.00500000000000, increasing\n"),
], ids=["lh", "ves"])
def test_regime_needs_no_closed_form_evaluation(capsys, argv, out):
    # sigma' of these specs nears the ends of the double range in [1e-3, 1e3]
    assert run(capsys, *argv.split()) == (0, out, "")


@pytest.mark.parametrize("argv", [
    "regime --family ves --lambda 0 --mu 1 --theta 1e4 --psi 0.5",
    "regime --family ves --lambda 0.9998 --mu 1 --theta 0.5 --psi 0.5",
    "verify --suite ode --lambda 0 --mu 1 --theta 1e4 --psi 0.5 --k-from 2 --k-to 3",
])
def test_overflow_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "overflows" in err


def test_underflow_exits_2(capsys):
    # b = 1e4: psi^(1-b) = 2^-9999 rounds to 0
    code, out, err = run(capsys, *"regime --family ves --lambda 0.9998 --mu 1 --theta 0.5 "
                                   "--psi 2".split())
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "psi^(1-b) underflows" in err


# ---------------------------------------------------------------------------
# calibrate-xi and reduce
# ---------------------------------------------------------------------------

def test_calibrate_xi_reference(capsys):
    code, out, _ = run(capsys, "calibrate-xi", *REFERENCE_FLAGS, "--k0", "2.0799")
    assert code == 0
    value = float(out.splitlines()[0].split("=")[1])
    assert value == pytest.approx(-3.79, abs=0.01)
    assert "criterion: R(k0) = 0" in out


def test_calibrate_xi_other_k0(capsys):
    code, out, _ = run(capsys, "calibrate-xi", *REFERENCE_FLAGS, "--k0", "1.0")
    assert code == 0
    value = float(out.splitlines()[0].split("=")[1])
    p = LogLinearParams(a=math.exp(0.773454), b=0.934369, c=1.191951)
    assert value == pytest.approx(calibrate_xi(p, 1.0), rel=1e-10)
    assert value != pytest.approx(-3.79, abs=0.01)


def test_calibrate_xi_constant_sigma_exits_2(capsys):
    code, _, err = run(capsys, "calibrate-xi", "--a", "1", "--b", "0.6",
                       "--c", "1", "--k0", "2.0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    "calibrate-xi --a 2 --b 1e-4 --c 0.5 --k0 2",
    "verify --suite equivalence --a 0.5 --b 1e-4 --c 0.5 --xi=-1",
    "verify --suite reduction --a 0.5 --b 1e-4 --c 1 --xi=-1",
])
def test_scale_power_overflow_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith(("error: ", "usage error: "))


def test_reduce_cobb_douglas(capsys):
    code, out, _ = run(capsys, "reduce", "--a", "2", "--b", "0", "--c", "0.4")
    assert code == 0
    assert out.startswith("cobb-douglas: A = 2.00000000000, beta = 0.400000000000")


def test_reduce_ces(capsys):
    code, out, _ = run(capsys, "reduce", "--a", "1", "--b", "0.6", "--c", "1",
                       "--xi", "-1")
    assert code == 0
    assert out.startswith("ces: ")
    assert "sigma = 0.600000000000" in out


def test_reduce_general_case_unchanged(capsys):
    code, out, _ = run(capsys, "reduce", *REFERENCE_FLAGS, "--xi", "-3.79")
    assert code == 0
    assert out.startswith("ves (no special case within tol)")


def test_reduce_overflowing_scale_power_is_no_special_case(capsys):
    code, out, _ = run(capsys, "reduce", "--a", "0.5", "--b", "1e-4", "--c", "1",
                       "--xi=-1")
    assert code == 0
    assert out.startswith("ves (no special case within tol)")


@pytest.mark.parametrize("argv", [
    "reduce --a 2 --b 1.0001 --c 1 --xi 1",  # the CES gamma rounds to 0
    "reduce --a 2 --b 1.9657695262926573 --c 1 --xi 4.906446850327949e+170",  # overflows
])
def test_reduce_without_a_ces_gamma_is_no_special_case(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert out.startswith("ves (no special case within tol)")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("suite", ["family", "equivalence", "ode",
                                   "sato-hoffman", "reduction"])
def test_verify_suites_pass_with_defaults(capsys, suite):
    code, out, _ = run(capsys, "verify", "--suite", suite)
    assert code == 0
    assert "PASS" in out


def test_verify_failure_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "family",
                       "--tolerance", "1e-18")
    assert code == 1
    assert "FAIL" in out


def test_verify_family_with_reference_fit(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "family", "--family", "ves",
                       *REFERENCE_FLAGS, "--xi", "-3.79",
                       "--k-from", "2.4", "--k-to", "80", "--points", "64")
    assert code == 0
    assert "64 points" in out


def test_verify_equivalence_custom_params(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "equivalence", "--a", "1",
                       "--b", "0.5", "--c", "0.2", "--xi", "-1")
    assert code == 0
    assert "PASS" in out


def test_verify_ode_reports_steps(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "ode", "--steps", "5000")
    assert code == 0
    assert "5000" in out


def test_verify_unknown_suite_exits_2(capsys):
    assert run(capsys, "verify", "--suite", "nonsense")[0] == 2


# ---------------------------------------------------------------------------
# Golden output
# ---------------------------------------------------------------------------

# Frozen stdout of eval, trajectory, regime and verify for every family (and
# VES given in regression space): refactors of the closed forms keep it
# byte-identical.
GOLDEN_FAMILIES = {
    'ves': '--family ves --lambda 0 --mu 1 --theta 2 --psi 1',
    'ves-regression': '--family ves --ln-a 0.773454 --b 0.934369 --c 1.191951 --xi -3.79',
    'ces': '--family ces --gamma 1 --delta 0.4 --sigma 0.7',
    'cd': '--family cd --A 2 --beta 0.4',
    'lh': '--family lh --a 1 --b 0.5 --c 0.2 --xi -1',
    'lf': '--family lf --a 1 --b 0.5 --c 0.2 --zeta 1',
    'sh': '--family sh --gamma 1 --delta 0.5 --rho 0.5',
    'lh-pole': '--family lh --a 1 --b 0.5 --c 0.2 --xi 1',
}

GOLDEN = [
    ('ves', 'eval {} --k 1.3',
     '0.565217391304\n'),
    ('ves', 'eval {} --K 3.4 --L 2',
     '1.25925925926\n'),
    ('ves', 'trajectory {} --k-from 0.5 --k-to 20 --points 7',
     'k,y,R,R_prime,sigma,sigma_prime\n'
     '0.500000000000,0.333333333333,0.250000000000,1.00000000000,0.500000000000,-0.00000000000\n'
     '0.924655597149,0.480426523332,0.854987973338,1.84931119430,0.500000000000,-0.00000000000\n'
     '1.70997594668,0.630993034744,2.92401773821,3.41995189335,0.500000000000,-0.00000000000\n'
     '3.16227766017,0.759746926648,10.0000000000,6.32455532034,0.500000000000,-0.00000000000\n'
     '5.84803547643,0.853972719119,34.1995189335,11.6960709529,0.500000000000,-0.00000000000\n'
     '10.8148374712,0.915360663874,116.960709529,21.6296749424,0.500000000000,-0.00000000000\n'
     '20.0000000000,0.952380952381,400.000000000,40.0000000000,0.500000000000,-0.00000000000\n'),
    ('ves', 'verify --suite family {}',
     'family: 64 points, max_rel_error = 1.521524e-07, tolerance = 1e-06: PASS\n'
     'worst: k = 13.2746576624, quantity = sigma\n'),
    ('ves-regression', 'eval {} --k 1.3',
     '1415199.55296\n'),
    ('ves-regression', 'eval {} --K 3.4 --L 2',
     '3771840.61055\n'),
    ('ves-regression', 'trajectory {} --k-from 0.5 --k-to 10 --points 7',
     'k,y,R,R_prime,sigma,sigma_prime\n'
     '2.07760001316,2314447.55049,4.23045820597e-10,0.205433827795,9.91182681152e-10,0.481324601179\n'
     '2.69961365469,2986507.32856,0.150616709754,0.276606212821,0.201701723632,0.219620867504\n'
     '3.50785225184,3801712.66734,0.406072258237,0.353107137351,0.327835161757,0.111480769831\n'
     '4.55806978135,4776568.76910,0.821453893986,0.435335538882,0.413978799202,0.0606708659435\n'
     '5.92271242915,5926483.85115,1.47774242136,0.523720222597,0.476407676172,0.0346772970297\n'
     '7.69591607877,7265177.83869,2.49329359473,0.618722097494,0.523621500761,0.0205526657554\n'
     '10.0000000000,8804131.55091,4.04023617050,0.720836579945,0.560492666841,0.0125256786618\n'),
    ('ves-regression', 'regime {}',
     'case iii, limit 0.783898834768, increasing\n'),
    ('ves-regression', 'verify --suite family {} --k-from 2.4 --k-to 80',
     'family: 64 points, max_rel_error = 7.452207e-07, tolerance = 1e-06: PASS\n'
     'worst: k = 2.40000000000, quantity = sigma\n'),
    ('ces', 'eval {} --k 1.3',
     '1.10675661007\n'),
    ('ces', 'eval {} --K 3.4 --L 2',
     '2.43796526502\n'),
    ('ces', 'trajectory {} --k-from 0.5 --k-to 20 --points 7',
     'k,y,R,R_prime,sigma,sigma_prime\n'
     '0.500000000000,0.739061878887,0.557247858426,1.59213673836,0.700000000000,0.00000000000\n'
     '0.924655597149,0.968845769110,1.34119295401,2.07211197359,0.700000000000,0.00000000000\n'
     '1.70997594668,1.22145702457,3.22800440177,2.69678346566,0.700000000000,0.00000000000\n'
     '3.16227766017,1.48459572530,7.76921201885,3.50977222919,0.700000000000,0.00000000000\n'
     '5.84803547643,1.74539204871,18.6990622939,4.56784953543,0.700000000000,0.00000000000\n'
     '10.8148374712,1.99258296080,45.0051987027,5.94490126875,0.700000000000,0.00000000000\n'
     '20.0000000000,2.21792054902,108.319223629,7.73708740209,0.700000000000,0.00000000000\n'),
    ('ces', 'regime {}',
     'constant sigma, limit 0.700000000000, constant\n'),
    ('ces', 'verify --suite family {}',
     'family: 64 points, max_rel_error = 1.694174e-07, tolerance = 1e-06: PASS\n'
     'worst: k = 12.5196966547, quantity = sigma\n'),
    ('cd', 'eval {} --k 1.3',
     '2.22130061367\n'),
    ('cd', 'eval {} --K 3.4 --L 2',
     '4.94583427441\n'),
    ('cd', 'trajectory {} --k-from 0.5 --k-to 20 --points 7',
     'k,y,R,R_prime,sigma,sigma_prime\n'
     '0.500000000000,1.51571656651,0.750000000000,1.50000000000,1.00000000000,0.00000000000\n'
     '0.924655597149,1.93830446784,1.38698339572,1.50000000000,1.00000000000,0.00000000000\n'
     '1.70997594668,2.47871158306,2.56496392002,1.50000000000,1.00000000000,0.00000000000\n'
     '3.16227766017,3.16978638492,4.74341649025,1.50000000000,1.00000000000,0.00000000000\n'
     '5.84803547643,4.05353563307,8.77205321464,1.50000000000,1.00000000000,0.00000000000\n'
     '10.8148374712,5.18367774142,16.2222562068,1.50000000000,1.00000000000,0.00000000000\n'
     '20.0000000000,6.62890803468,30.0000000000,1.50000000000,1.00000000000,0.00000000000\n'),
    ('cd', 'regime {}',
     'unit sigma, limit 1.00000000000, constant\n'),
    ('cd', 'verify --suite family {}',
     'family: 64 points, max_rel_error = 8.029248e-08, tolerance = 1e-06: PASS\n'
     'worst: k = 8.81082680270, quantity = sigma\n'),
    ('lh', 'eval {} --k 1.3',
     '0.440557141881\n'),
    ('lh', 'eval {} --K 3.4 --L 2',
     '1.03296660727\n'),
    ('lh', 'trajectory {} --k-from 0.5 --k-to 20 --points 7',
     'k,y,R,R_prime,sigma,sigma_prime\n'
     '0.500000000000,0.238141740867,0.229107332021,0.649159191129,0.705858701999,0.0761084273944\n'
     '0.924655597149,0.356989885357,0.539224106802,0.797028154621,0.731670649501,0.0495282631694\n'
     '1.70997594668,0.518245287717,1.22891980049,0.943284198419,0.761887732560,0.0304983456152\n'
     '3.16227766017,0.731088562862,2.70776820574,1.07675403871,0.795234064430,0.0176369775029\n'
     '5.84803547643,1.00671988159,5.77162443127,1.18947882682,0.829719598887,0.00953748945052\n'
     '10.8148374712,1.35960146969,11.9326591678,1.27841469050,0.863068937676,0.00482286046430\n'
     '20.0000000000,1.80881535118,24.0272170454,1.34487020468,0.893291299104,0.00229032127913\n'),
    ('lh', 'regime {}',
     'LH CD limit, limit 1.00000000000, increasing\n'),
    ('lh', 'verify --suite family {}',
     'family: 64 points, max_rel_error = 1.076836e-07, tolerance = 1e-06: PASS\n'
     'worst: k = 0.500000000000, quantity = sigma\n'),
    ('lf', 'eval {} --k 1.3',
     '0.440557141881\n'),
    ('lf', 'eval {} --K 3.4 --L 2',
     '1.03296660727\n'),
    ('lf', 'trajectory {} --k-from 0.5 --k-to 20 --points 7',
     'k,y,R,R_prime,sigma,sigma_prime\n'
     '0.500000000000,0.238141740867,0.229107332021,0.649159191129,0.705858701999,0.0761084273944\n'
     '0.924655597149,0.356989885357,0.539224106802,0.797028154621,0.731670649501,0.0495282631694\n'
     '1.70997594668,0.518245287717,1.22891980049,0.943284198419,0.761887732560,0.0304983456152\n'
     '3.16227766017,0.731088562862,2.70776820574,1.07675403871,0.795234064430,0.0176369775029\n'
     '5.84803547643,1.00671988159,5.77162443127,1.18947882682,0.829719598887,0.00953748945052\n'
     '10.8148374712,1.35960146969,11.9326591678,1.27841469050,0.863068937676,0.00482286046430\n'
     '20.0000000000,1.80881535118,24.0272170454,1.34487020468,0.893291299104,0.00229032127913\n'),
    ('lf', 'regime {}',
     'LH CD limit, limit 1.00000000000, increasing\n'),
    ('lf', 'verify --suite family {}',
     'family: 64 points, max_rel_error = 1.076836e-07, tolerance = 1e-06: PASS\n'
     'worst: k = 0.500000000000, quantity = sigma\n'),
    ('sh', 'eval {} --k 1.3',
     '0.936428289625\n'),
    ('sh', 'eval {} --K 1.2 --L 2',
     '1.24714785315\n'),
    ('sh', 'trajectory {} --k-from 0.1 --k-to 2 --points 7',
     'k,y,R,R_prime,sigma,sigma_prime\n'
     '0.100000000000,0.175562154278,0.0357142857143,0.382653061224,0.933333333333,-0.666666666667\n'
     '0.157041780222,0.244417771948,0.0584686023395,0.415849573065,0.895305479852,-0.666666666667\n'
     '0.246621207352,0.338636879172,0.0983825515471,0.477415570661,0.835585861766,-0.666666666667\n'
     '0.387298334429,0.465227342906,0.174035119391,0.605764456230,0.741801110381,-0.666666666667\n'
     '0.608220199156,0.629043621115,0.341014787832,0.943074497803,0.594519867230,-0.666666666667\n'
     '0.955159828421,0.821413815743,0.876550480532,2.52652163394,0.363226781053,-0.666666666667\n'
     '1.49999999851,0.958414656369,504561582.029,3.39443187419e+17,9.90959314606e-10,-0.666666666667\n'),
    ('sh', 'verify --suite family {} --k-from 0.1 --k-to 1.4',
     'family: 64 points, max_rel_error = 1.271707e-07, tolerance = 1e-06: PASS\n'
     'worst: k = 0.158532239069, quantity = sigma\n'),
    # trajectories whose window ends where R rounds to 0 (k^2 underflows), where
    # R overflows, at the Sato-Hoffman domain bound and at the wage form's pole
    # of sigma (R' = 0)
    ('ves', 'trajectory {} --k-from 1e-300 --k-to 1e3 --points 7',
     'k,y,R,R_prime,sigma,sigma_prime\n'
     '1.57172778624e-162,1.57172778624e-162,4.94065645841e-324,3.14345557249e-162,0.500000000000,-0.00000000000\n'
     '4.60943585669e-135,4.60943585669e-135,2.12468989170e-269,9.21887171339e-135,0.500000000000,-0.00000000000\n'
     '1.35181798674e-107,1.35181798674e-107,1.82741186926e-214,2.70363597347e-107,0.500000000000,-0.00000000000\n'
     '3.96450222127e-80,3.96450222127e-80,1.57172778624e-159,7.92900444253e-80,0.500000000000,-0.00000000000\n'
     '1.16267707758e-52,1.16267707758e-52,1.35181798674e-104,2.32535415517e-52,0.500000000000,-0.00000000000\n'
     '3.40980509352e-25,3.40980509352e-25,1.16267707758e-49,6.81961018705e-25,0.500000000000,-0.00000000000\n'
     '1000.00000000,0.999000999001,1000000.00000,2000.00000000,0.500000000000,-0.00000000000\n'),
    ('ves-regression', 'trajectory {} --k-from 0.1 --k-to 1e300 --points 7',
     'k,y,R,R_prime,sigma,sigma_prime\n'
     '2.07760001318,2314447.55051,4.26994439806e-10,0.205433827797,1.00043427722e-09,0.481324601164\n'
     '3.45186396793e+40,152346333.380,3.14851021092e+51,116356705075.,0.783898834766,1.10530969457e-53\n'
     '5.73515824870e+80,152346333.386,6.40285113505e+102,1.42419015738e+22,0.783898834768,5.43520189081e-105\n'
     '9.52877646489e+120,152346333.386,1.30209209788e+154,1.74318927566e+33,0.783898834768,2.67268257388e-156\n'
     '1.58317481367e+161,152346333.386,2.64795135103e+205,2.13363983385e+44,0.783898834768,1.31425332200e-207\n'
     '2.63039278956e+201,152346333.386,5.38490815578e+256,2.61154597735e+55,0.783898834768,6.46265221040e-259\n'
     '4.37031095214e+241,152346333.386,1.09508189548e+308,3.19649656122e+66,0.783898834768,3.17791653204e-310\n'),
    ('sh', 'trajectory {} --k-from 1e-3 --k-to 1e3 --points 7',
     'k,y,R,R_prime,sigma,sigma_prime\n'
     '0.00100000000000,0.00562271019341,0.000333555703803,0.333778222618,0.999333333333,-0.666666666667\n'
     '0.00338336259094,0.0140225688108,0.00113033709046,0.334842153003,0.997744424939,-0.666666666667\n'
     '0.0114471424217,0.0349461712340,0.00384505742052,0.338479789183,0.992368571719,-0.666666666667\n'
     '0.0387298334428,0.0868782528681,0.0132521125556,0.351236974724,0.974180111038,-0.666666666667\n'
     '0.131037069624,0.214135317775,0.0478599773288,0.400200739678,0.912641953584,-0.666666666667\n'
     '0.443345919390,0.510325848511,0.209787634159,0.671731314139,0.704436053740,-0.666666666667\n'
     '1.49999999851,0.958414656369,503008972.490,3.37357369211e+17,9.94018090061e-10,-0.666666666667\n'),
    ('lh-pole', 'trajectory {} --k-from 0.1 --k-to 100 --points 7',
     'k,y,R,R_prime,sigma,sigma_prime\n'
     '4.30214856107,1.43404951919,17.2085942268,6.50853147830e-09,614577959.601,-1.40471691459e+17\n'
     '7.26782569020,1.62268973354,20.0509440295,1.36965005699,2.01428399543,-0.310217351211\n'
     '12.2778861569,1.88759300176,27.6169272325,1.57513528964,1.42801869081,-0.0447903822333\n'
     '20.7416213471,2.23530940136,41.1111787345,1.59987129074,1.23888838748,-0.0113125819448\n'
     '35.0398147212,2.67899663402,63.9073468432,1.58758839364,1.14881757660,-0.00355952851704\n'
     '59.1944378478,3.23734077877,102.016591171,1.56940032900,1.09813609780,-0.00125502954821\n'
     '100.000000000,3.93470180709,165.680609622,1.55288717776,1.06691981230,-0.000473171054234\n'),
]


@pytest.mark.parametrize("family,command,expected", GOLDEN,
                         ids=[f"{f}-{i}" for i, (f, _, _) in enumerate(GOLDEN)])
def test_golden_stdout(capsys, family, command, expected):
    code, out, _ = run(capsys, *command.format(GOLDEN_FAMILIES[family]).split())
    assert code == 0
    assert out == expected


# Frozen exit code, stdout and stderr of every verify suite at its defaults,
# with custom flags and --tolerance, and of the verify usage and input
# errors.
GOLDEN_VERIFY = [
    ('--suite equivalence', 0,
     'lh-lf-equivalence: 50 points, max_rel_error = 0.000000e+00, tolerance = 1e-10: PASS\nworst: k = 10.0000000000, quantity = y\n',
     ''),
    ('--suite equivalence --a 1.5 --b 0.4 --c 0.3 --xi -2 --k-from 0.3 --k-to 5 --points 9', 0,
     'lh-lf-equivalence: 9 points, max_rel_error = 2.296739e-16, tolerance = 1e-10: PASS\nworst: k = 0.300000000000, quantity = y\n',
     ''),
    ('--suite equivalence --a 2 --b 0.7 --c 0.6 --xi -0.5 --k-from 0.2 --k-to 5 --points 9', 2,
     '',
     'error: LiuHildebrandParams: bracketed base is non-positive at k = 0.2 (base = -3.54587); the closed form is not defined there\n'),
    ('--suite equivalence --a 1.5 --b 0.4 --c 0.3 --xi -2 --k-from 0.3 --k-to 5 --points 9 --tolerance 1e-16', 1,
     'lh-lf-equivalence: 9 points, max_rel_error = 2.296739e-16, tolerance = 1e-16: FAIL\nworst: k = 0.300000000000, quantity = y\n',
     ''),
    ('--suite ode', 0,
     'ode: 10000 points, max_rel_error = 1.665335e-16, tolerance = 1e-09: PASS\nworst: k = 2.00000000000, quantity = y\n',
     ''),
    ('--suite ode --steps 5000', 0,
     'ode: 5000 points, max_rel_error = 1.665335e-16, tolerance = 1e-09: PASS\nworst: k = 2.00000000000, quantity = y\n',
     ''),
    ('--suite ode --lambda 0.5 --mu 2 --theta 1.5 --psi 1 --k-from 0.5 --k-to 3 --steps 200', 0,
     'ode: 200 points, max_rel_error = 4.006972e-10, tolerance = 1e-09: PASS\nworst: k = 3.00000000000, quantity = y\n',
     ''),
    ('--suite ode --ln-a 0.773454 --b 0.934369 --c 1.191951 --xi -3.79 --k-from 3 --k-to 10', 0,
     'ode: 10000 points, max_rel_error = 4.188985e-14, tolerance = 1e-09: PASS\nworst: k = 10.0000000000, quantity = y\n',
     ''),
    ('--suite ode --family ces --gamma 1 --delta 0.4 --sigma 0.7', 0,
     'ode: 10000 points, max_rel_error = 1.665335e-16, tolerance = 1e-09: PASS\nworst: k = 2.00000000000, quantity = y\n',
     ''),
    ('--suite ode --steps 20 --tolerance 1e-12', 1,
     'ode: 20 points, max_rel_error = 1.153524e-08, tolerance = 1e-12: FAIL\nworst: k = 2.00000000000, quantity = y\n',
     ''),
    ('--suite sato-hoffman', 0,
     'sato-hoffman: 32 points, max_rel_error = 1.691381e-07, tolerance = 1e-06: PASS\nworst: k = 0.100229707283, quantity = sigma\n',
     ''),
    ('--suite sato-hoffman --gamma 2 --delta 0.3 --rho 1.5 --points 12', 0,
     'sato-hoffman: 12 points, max_rel_error = 8.393866e-07, tolerance = 1e-06: PASS\nworst: k = 5.38806094136, quantity = sigma\n',
     ''),
    ('--suite sato-hoffman --k-from 0.05 --k-to 1 --tolerance 1e-9', 1,
     'sato-hoffman: 32 points, max_rel_error = 7.479921e-08, tolerance = 1e-09: FAIL\nworst: k = 0.0550729973824, quantity = sigma\n',
     ''),
    ('--suite reduction', 0,
     'reduction: 50 points, max_rel_error = 4.017044e-16, tolerance = 1e-10: PASS\nworst: k = 0.308884359648, quantity = y\n',
     ''),
    ('--suite reduction --a 2 --b 0.7 --c 1 --xi -0.5 --k-from 0.5 --k-to 4 --points 7', 0,
     'reduction: 7 points, max_rel_error = 6.970482e-16, tolerance = 1e-10: PASS\nworst: k = 2.82842712475, quantity = y\n',
     ''),
    ('--suite reduction --tolerance 1e-18', 1,
     'reduction: 50 points, max_rel_error = 4.017044e-16, tolerance = 1e-18: FAIL\nworst: k = 0.308884359648, quantity = y\n',
     ''),
    ('--suite family --tolerance 1e-7', 1,
     'family: 64 points, max_rel_error = 1.521524e-07, tolerance = 1e-07: FAIL\nworst: k = 13.2746576624, quantity = sigma\n',
     ''),
    ('--suite family --k-from 1 --k-to 2 --points 5', 0,
     'family: 5 points, max_rel_error = 4.284542e-08, tolerance = 1e-06: PASS\nworst: k = 2.00000000000, quantity = sigma\n',
     ''),
    ('--suite family --k-from 5 --k-to 1', 2,
     '',
     'usage error: need 0 < --k-from < --k-to\n'),
    ('--suite equivalence --points 1', 2,
     '',
     'usage error: --points must be at least 2\n'),
    ('--suite reduction --a 1 --b 0.6 --c 0.5 --xi -1', 2,
     '',
     'usage error: parameters do not reduce to a special case; nothing to verify\n'),
    ('--suite reduction --a 1 --b 0 --c 0.5 --xi -1', 2,
     '',
     'usage error: b = 0 is unreachable through the general closed form; only the c = 1 (ces) reduction can be verified pointwise\n'),
    ('--suite ode --steps 1', 2,
     '',
     'error: steps must be an integer >= 2, got 1\n'),
    ('--suite ode --k-from 0', 2,
     '',
     'error: capital-labor ratio must be positive and finite, got 0.0\n'),
    ('--suite ode --lambda -2 --mu 1 --theta 2 --psi 1 --k-from 2 --k-to 0.5', 2,
     '',
     'error: (1+lam) k + mu k^theta changes sign at k = 0.99995\n'),
    ('--suite ode --lambda -2 --mu 1 --theta 2 --psi 1 --k-from 0.5 --k-to 2', 2,
     '',
     'error: VESParams: bracketed base is non-positive at k = 0.5 (base = -1); the closed form is not defined there\n'),
    ('--suite ode --a 1 --b 0.5 --c 0.2', 2,
     '',
     'usage error: missing --xi\n'),
    ('--suite sato-hoffman --k-to 2.5', 2,
     '',
     'error: k = 1.7000962891 is outside the admissible range k < 1.5\n'),
    ('--suite sato-hoffman --delta 1.5', 2,
     '',
     'error: delta must lie in (0, 1), got 1.5\n'),
    ('--suite equivalence --a 1 --b 0.5 --c 0.5 --xi -1', 2,
     '',
     'error: b + c = 1 is excluded: the integration step divides by b + c - 1\n'),
    ('--suite family --family ves --lambda 0', 2,
     '',
     "usage error: family 'ves' needs --mu, --theta, --psi\n"),
]


@pytest.mark.parametrize("flags,code,out,err", GOLDEN_VERIFY,
                         ids=[f"verify-{i}" for i in range(len(GOLDEN_VERIFY))])
def test_golden_verify(capsys, flags, code, out, err):
    assert run(capsys, "verify", *flags.split()) == (code, out, err)


# ---------------------------------------------------------------------------
# Determinism and exit-code contract
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lam=st.floats(-5.0, 5.0), mu=st.floats(-5.0, 5.0), theta=st.floats(-50.0, 1e4),
       psi=st.floats(0.0, 2.0, exclude_min=True), k_from=st.floats(0.01, 10.0),
       ratio=st.floats(0.1, 100.0))
@example(lam=0.0, mu=1.0, theta=1e4, psi=0.5, k_from=2.0, ratio=1.5)
@example(lam=0.9998, mu=1.0, theta=0.5, psi=0.5, k_from=1.0, ratio=2.0)
@example(lam=-0.5, mu=1.0, theta=1.0 + 2.0 ** -52, psi=1.0, k_from=1.0, ratio=2.0)
@example(lam=-2.0, mu=1.0, theta=2.0, psi=1.0, k_from=1.0 + 1e-6, ratio=2.0)
@example(lam=0.0, mu=1.0, theta=2.0, psi=5e-324, k_from=2.0, ratio=0.5)
def test_ves_errors_and_exit_codes_property(capsys, lam, mu, theta, psi, k_from, ratio):
    # the library raises only VesprodError; regime exits 0 or 2, verify 0, 1 or 2
    k_to = k_from * ratio
    with contextlib.suppress(VesprodError):
        v = VESParams(lam=lam, mu=mu, theta=theta, psi=psi)
        for call in (lambda: loglinear_from_ves(v), lambda: classify_regime(v),
                     lambda: ode_integrate_theorem(v, k_from, 1.0, k_to, 64)):
            with contextlib.suppress(VesprodError):
                call()
    flags = [f"--lambda={lam!r}", f"--mu={mu!r}", f"--theta={theta!r}", f"--psi={psi!r}"]
    assert run(capsys, "regime", "--family", "ves", *flags)[0] in (0, 2)
    code = run(capsys, "verify", "--suite", "ode", *flags, f"--k-from={k_from!r}",
               f"--k-to={k_to!r}", "--steps", "64")[0]
    assert code in (0, 1, 2)


#: flag sets per family; each family's own spellings, and flags a family ignores
_FAMILY_FLAGS = {
    "ves": [("lambda", "mu", "theta", "psi"), ("a", "b", "c", "xi"), ("ln-a", "b", "c", "xi")],
    "cd": [("A", "beta")],
    "ces": [("gamma", "delta", "sigma")],
    "lh": [("a", "b", "c", "xi"), ("ln-a", "b", "c", "xi")],
    "lf": [("a", "b", "c", "zeta"), ("ln-a", "b", "c", "zeta")],
    "sh": [("gamma", "delta", "rho"), ("gamma", "delta", "rho", "alpha")],
}
_EXTREME = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(),  # any double, infinities and NaN included
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 5e-324, 1e-300, 1e300, 1.79e308, -1e300]),
)
_RATIO = st.one_of(st.floats(1e-3, 1e3), st.floats(),
                   st.sampled_from([5e-324, 1e-300, 1e300, 1.79e308, math.inf, math.nan]))


@st.composite
def _argv(draw):
    """argv for eval, trajectory, regime or verify over the six families, and
    for reduce and calibrate-xi, with flags missing at times and values
    anywhere in the double range."""
    command = draw(st.sampled_from(["eval", "trajectory", "regime", "verify", "reduce",
                                    "calibrate-xi"]))
    argv = [command]
    if command in ("reduce", "calibrate-xi"):
        family = "lh"  # its flag sets are the regression-space ones
    else:
        family = draw(st.sampled_from(sorted(_FAMILY_FLAGS)))
        if command != "verify" or draw(st.booleans()):
            argv.append(f"--family={family}")
    for name in draw(st.sampled_from(_FAMILY_FLAGS[family])):
        if draw(st.integers(0, 9)):
            argv.append(f"--{name}={draw(_EXTREME)!r}")
    if command == "eval":
        names = ["k"] if draw(st.booleans()) else ["K", "L"]
        argv += [f"--{name}={draw(_RATIO)!r}" for name in names]
    elif command == "trajectory":
        argv += [f"--k-from={draw(_RATIO)!r}", f"--k-to={draw(_RATIO)!r}",
                 f"--points={draw(st.integers(-1, 20))}"]
    elif command == "verify":
        argv.append("--suite=" + draw(st.sampled_from(
            ["family", "equivalence", "ode", "sato-hoffman", "reduction"])))
        argv += [f"--{name}={draw(_RATIO)!r}" for name in ("k-from", "k-to")
                 if draw(st.booleans())]
        if draw(st.booleans()):
            argv.append(f"--points={draw(st.integers(-1, 20))}")
        argv.append(f"--steps={draw(st.integers(-1, 500))}")
        if draw(st.booleans()):  # finite: the report line echoes the tolerance given
            argv.append(f"--tolerance={draw(st.floats(0.0, 1e300))!r}")
    elif command == "reduce" and draw(st.booleans()):
        argv.append(f"--tol={draw(_RATIO)!r}")
    elif command == "calibrate-xi":
        argv.append(f"--k0={draw(_RATIO)!r}")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
@example(argv="eval --family cd --A 1e300 --beta 0.5 --k 1e300".split())
@example(argv="trajectory --family sh --gamma 1 --delta 0.5 --rho 2 --k-from 0.1 --k-to 10".split())
@example(argv="trajectory --family cd --A 1 --beta 1e-10 --k-from 1e290 --k-to 1e300 "
              "--points 3".split())
@example(argv="trajectory --family ves --lambda 0 --mu 1 --theta 1.0001 --psi 1 --k-from 1e306 "
              "--k-to 1.79e308 --points 20".split())
@example(argv="trajectory --family ces --gamma 1 --delta 0.5 --sigma 0.999 --k-from 1e300 "
              "--k-to 1.79e308 --points 20".split())
@example(argv="verify --suite sato-hoffman --delta 0.5 --rho 2".split())
@example(argv="regime --family lf --a 2.387225697911483 --b 8.314849275752976e-207 "
              "--c 1.0858932576444476 --zeta 9.668955631133263e-235".split())
@example(argv="verify --family cd --A 0.5093706720837234 --beta 2.0976140957680002e-46 "
              "--suite family --points 10".split())
@example(argv="verify --suite ode --a 2.6222489997406666 --b 0.5 --c 1.9981682408774857 "
              "--xi=-2.2977550030302227 --steps 129 --k-from 2.4998678075824543 "
              "--k-to 3.2769317457538814e-157".split())
@example(argv="reduce --a 2 --b 1.9657695262926573 --c 1 --xi 4.906446850327949e+170".split())
def test_exit_codes_property(capsys, argv):
    # main never raises; 0 ok, 1 only for a failed verification, 2 for input
    # errors; a successful command prints no inf or nan
    code, out, _ = run(capsys, *argv)
    assert code in (0, 1, 2)
    assert code != 1 or argv[0] == "verify"
    if code == 0:
        assert not re.search(r"\b(inf|nan)\b", out), out


def test_byte_identical_output_on_repeat(capsys):
    argv = ["trajectory", "--family", "ves", *REFERENCE_FLAGS, "--xi", "-3.79",
            "--k-from", "2.0799", "--k-to", "50", "--points", "50"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_no_arguments_exits_2(capsys):
    assert run(capsys)[0] == 2


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
