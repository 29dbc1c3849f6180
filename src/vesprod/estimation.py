"""Time-series ingestion, ordinary least squares fitting of the two
log-linear relations, degeneracy diagnostics, and calibration of the
integration constant.

Input format
------------
Delimited text (comma separator, UTF-8), header on the first line.
Required columns ``period``, ``y``, ``k``; optional ``r`` (rental rate,
the marginal product of capital) and ``w`` (wage rate).  Column order is
free and names are case-insensitive.  Numbers use decimal-point notation
without thousands separators; all numeric values must be strictly
positive (their logarithms enter the regressions).

The two relations
-----------------
rental:  ln y = ln a + b ln r + c ln k
wage:    ln y = ln a + b ln w + c ln k

Both are fitted by ordinary least squares on [1, ln price, ln k] with
classical homoskedastic standard errors (residual variance times the
diagonal of the inverse normal matrix).  The solver is SVD based; the
normal matrix is never inverted directly.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from enum import Enum

from .errors import (
    DomainError,
    MissingColumnError,
    ParseError,
    RankError,
    SingularError,
    ValidationError,
)
from .families import LogLinearParams, _check_ves_branch, _parameter_space

__all__ = [
    "Relation",
    "Observation",
    "Dataset",
    "Estimate",
    "FitReport",
    "DegeneracyDiagnostics",
    "load_dataset",
    "fit_loglinear",
    "diagnose_fit",
    "calibrate_xi",
]


class Relation(str, Enum):
    RENTAL = "rental"
    WAGE = "wage"


@dataclass(frozen=True)
class Observation:
    period: str
    y: float
    k: float
    r: float | None = None
    w: float | None = None


@dataclass(frozen=True)
class Dataset:
    """Immutable time-indexed observations.  ``has_r``/``has_w`` record
    column-level presence; absent columns are never imputed."""

    rows: tuple[Observation, ...]
    has_r: bool
    has_w: bool

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float


@dataclass(frozen=True)
class FitReport:
    intercept_ln_a: Estimate
    b_hat: Estimate
    c_hat: Estimate
    residual_variance: float
    r_squared: float
    n_obs: int
    relation: Relation


@dataclass(frozen=True)
class DegeneracyDiagnostics:
    """Health indicators of a fitted log-linear relation.

    ``c_significance`` is the ratio of c to its standard error (+inf for a
    noiseless fit).  ``capital_share_range`` is the observed range of
    beta = k*r/y when the rental column is present, else None;
    ``share_restriction_violated`` flags max(beta) >= c, which breaks the
    share form's requirement c > beta.
    """

    b_plus_c: float
    dist_to_unity: float
    c_significance: float
    capital_share_range: tuple[float, float] | None
    share_restriction_violated: bool | None


_COLUMNS = ("period", "y", "k", "r", "w")
_REQUIRED = ("period", "y", "k")
_NUMBER_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")


def _parse_number(cell: str, row_no: int, column: str) -> float:
    text = cell.strip()
    if not _NUMBER_RE.match(text):
        raise ParseError(
            f"row {row_no}, column '{column}': {cell!r} is not a decimal-point number")
    value = float(text)
    if not math.isfinite(value):
        raise ValidationError(
            f"row {row_no}, column '{column}': {cell!r} is out of the finite "
            "floating-point range")
    return value


def load_dataset(source: str) -> Dataset:
    """Parse delimited-text content into a :class:`Dataset`.

    Raises :class:`ParseError` with row/column location for structural
    problems and :class:`ValidationError` for non-positive or non-finite
    values or duplicate period labels.  Row numbers count data rows from 1.
    """
    reader = csv.reader(io.StringIO(source))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input: missing header row") from None
    names = [h.strip().lower() for h in header]
    for name in names:
        if name not in _COLUMNS:
            raise ParseError(f"unknown column {name!r}; expected a subset of "
                             f"{', '.join(_COLUMNS)}")
    if len(set(names)) != len(names):
        raise ParseError("duplicate column names in header")
    for required in _REQUIRED:
        if required not in names:
            raise ParseError(f"missing required column {required!r}")
    index = {name: i for i, name in enumerate(names)}
    has_r = "r" in index
    has_w = "w" in index

    rows: list[Observation] = []
    seen_periods: set[str] = set()
    for row_no, cells in enumerate(reader, start=1):
        if not cells or (len(cells) == 1 and not cells[0].strip()):
            continue  # ignore blank lines
        if len(cells) != len(names):
            raise ParseError(
                f"row {row_no}: expected {len(names)} fields, got {len(cells)}")
        period = cells[index["period"]].strip()
        if not period:
            raise ParseError(f"row {row_no}, column 'period': empty label")
        if period in seen_periods:
            raise ValidationError(f"row {row_no}: duplicate period {period!r}")
        seen_periods.add(period)
        values: dict[str, float] = {}
        for column in ("y", "k", "r", "w"):
            if column not in index:
                continue
            value = _parse_number(cells[index[column]], row_no, column)
            if not value > 0.0:
                raise ValidationError(
                    f"row {row_no}, column '{column}': value {value:g} must be "
                    "strictly positive (its logarithm enters the regression)")
            values[column] = value
        rows.append(Observation(period=period, y=values["y"], k=values["k"],
                                r=values.get("r"), w=values.get("w")))
    if not rows:
        raise ValidationError("no data rows")
    return Dataset(rows=tuple(rows), has_r=has_r, has_w=has_w)


def fit_loglinear(d: Dataset, relation: Relation | str) -> FitReport:
    """Ordinary least squares fit of ln y on [1, ln price, ln k].

    ``relation`` selects the price column: rental uses r, wage uses w.
    Raises :class:`MissingColumnError` when the price column is absent,
    :class:`ValidationError` for fewer than 4 observations, and
    :class:`RankError` when the regressors are collinear.
    """
    import numpy as np  # imported here so that `import vesprod` does not load it

    rel = Relation(relation)
    if rel is Relation.RENTAL:
        if not d.has_r:
            raise MissingColumnError("the rental relation needs column 'r'")
        price = np.array([row.r for row in d.rows], dtype=float)
    else:
        if not d.has_w:
            raise MissingColumnError("the wage relation needs column 'w'")
        price = np.array([row.w for row in d.rows], dtype=float)

    n = len(d.rows)
    if n < 4:
        raise ValidationError(
            f"need at least 4 observations for a 3-coefficient fit, got {n}")

    ln_y = np.log(np.array([row.y for row in d.rows], dtype=float))
    ln_k = np.log(np.array([row.k for row in d.rows], dtype=float))
    X = np.column_stack([np.ones(n), np.log(price), ln_k])

    # SVD solve: orthogonalization-based, no explicit normal-matrix inverse
    U, sv, Vt = np.linalg.svd(X, full_matrices=False)
    tol = sv[0] * max(X.shape) * np.finfo(float).eps
    if np.sum(sv > tol) < 3:
        raise RankError("regressors are collinear (the design matrix "
                        "[1, ln price, ln k] is rank deficient)")
    beta = Vt.T @ ((U.T @ ln_y) / sv)
    resid = ln_y - X @ beta
    rss = float(resid @ resid)
    dof = n - 3
    s2 = rss / dof
    # diag of (X'X)^-1 through the same SVD factors
    xtx_inv_diag = np.einsum("ij,j,ij->i", Vt.T, sv ** -2.0, Vt.T)
    stderr = np.sqrt(s2 * xtx_inv_diag)

    tss = float(np.sum((ln_y - ln_y.mean()) ** 2))
    if tss == 0.0:
        r_squared = 1.0
    else:
        r_squared = min(1.0, max(0.0, 1.0 - rss / tss))

    return FitReport(
        intercept_ln_a=Estimate(float(beta[0]), float(stderr[0])),
        b_hat=Estimate(float(beta[1]), float(stderr[1])),
        c_hat=Estimate(float(beta[2]), float(stderr[2])),
        residual_variance=s2,
        r_squared=r_squared,
        n_obs=n,
        relation=rel,
    )


def diagnose_fit(d: Dataset, f: FitReport) -> DegeneracyDiagnostics:
    """Degeneracy indicators for a fit produced from ``d``: b + c and its
    distance to unity, the significance ratio of c, and (when the rental
    column is present) the observed capital-share range k*r/y with a flag
    when it reaches c."""
    b = f.b_hat.value
    c = f.c_hat.value
    se_c = f.c_hat.stderr
    c_significance = math.inf if se_c == 0.0 else c / se_c
    if d.has_r:
        shares = [row.k * row.r / row.y for row in d.rows]
        share_range: tuple[float, float] | None = (min(shares), max(shares))
        violated: bool | None = max(shares) >= c
    else:
        share_range = None
        violated = None
    return DegeneracyDiagnostics(
        b_plus_c=b + c,
        dist_to_unity=abs(b + c - 1.0),
        c_significance=c_significance,
        capital_share_range=share_range,
        share_restriction_violated=violated,
    )


@_parameter_space
def calibrate_xi(p: LogLinearParams, k0: float) -> float:
    """Integration constant that places the zero of the marginal rate of
    substitution at ``k0`` under the rental-rate closed form:

        xi = (1-c)/(c-b) * b / ((1-b) a^(1/b)) * k0^(1 - c/b).

    The existing ``p.xi`` (if any) is ignored.  The result is negative
    exactly when the sign condition for an R > 0, increasing range beyond
    ``k0`` is attainable (c > 1 with b < 1, or c < b < 1 for a range
    below ``k0``).  The calibration criterion R(k0) = 0 is a convention;
    override xi manually to use a different one.
    """
    if not (math.isfinite(k0) and k0 > 0.0):
        raise DomainError(f"k0 must be positive and finite, got {k0!r}")
    _check_ves_branch(p)
    b, c = p.b, p.c
    if c == 1.0:
        raise SingularError(
            "c = 1 is the constant-elasticity case: R(k) = mu k^theta never "
            "vanishes at positive k (R(k0) = 0 would force mu = 0)")
    return (1.0 - c) / (c - b) * b / ((1.0 - b) * p.a ** (1.0 / b)) * k0 ** (1.0 - c / b)
