"""Time-series ingestion, ordinary least squares fitting of the two
log-linear relations, degeneracy diagnostics, and calibration of the
integration constant.

Input format
------------
Delimited text (comma separator, UTF-8), header on the first line.  A line
ends in LF, CRLF or a lone CR; a line break inside a quoted field reads as
LF.  Required columns ``period``, ``y``, ``k``; optional ``r`` (rental
rate, the marginal product of capital) and ``w`` (wage rate).  Column order
is free and names are case-insensitive.  Numbers use decimal-point notation
without thousands separators; all numeric values must be strictly positive
(their logarithms enter the regressions).

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
import operator
import re
from dataclasses import dataclass
from enum import Enum

from .errors import (
    DomainError,
    MissingColumnError,
    ParamError,
    ParseError,
    RankError,
    SingularError,
    ValidationError,
)
from .families import (LogLinearParams, _check_ves_branch, _nearest_float, _parameter_space,
                       _quote, _require_in_domain, _require_type)

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
    noiseless fit, +-inf where the ratio overflows).  ``capital_share_range``
    is the observed range of beta = k*r/y when the rental column is present,
    else None; ``share_restriction_violated`` flags max(beta) >= c, which
    breaks the share form's requirement c > beta.
    """

    b_plus_c: float
    dist_to_unity: float
    c_significance: float
    capital_share_range: tuple[float, float] | None
    share_restriction_violated: bool | None


_COLUMNS = ("period", "y", "k", "r", "w")
_REQUIRED = ("period", "y", "k")
_NUMBER_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")
_NORMAL = 2.0 ** -1022  # the smallest normal double: a product below it has lost bits


def _parse_number(cell: str, row_no: int, column: str) -> float:
    """The number in a data cell: ParseError where it is no decimal-point number,
    ValidationError where it is not finite or not positive (its log is a regressor)."""
    text = cell.strip()
    if not _NUMBER_RE.match(text):
        raise ParseError(
            f"row {row_no}, column '{column}': {cell!r} is not a decimal-point number")
    value = float(text)
    if not math.isfinite(value):
        raise ValidationError(
            f"row {row_no}, column '{column}': {cell!r} is out of the finite "
            "floating-point range")
    if not value > 0.0:
        raise ValidationError(
            f"row {row_no}, column '{column}': value {value:g} must be "
            "strictly positive (its logarithm enters the regression)")
    return value


def load_dataset(source: str) -> Dataset:
    """Parse delimited-text content into a :class:`Dataset`.

    A leading byte-order mark is no part of the text, as the ``utf-8-sig``
    codec reads it.  LF, CRLF and a lone CR each end a line, and a line break
    inside a quoted field reads as LF, as in a file opened in text mode.
    Raises :class:`ParseError` with row/column location for structural
    problems (a NUL, and the ``csv`` reader's own faults such as a field past
    its size limit) and :class:`ValidationError` for duplicate period labels
    and the values :func:`_parse_number` rejects.  Row numbers count data rows
    from 1.  A ``source`` that is not a str raises TypeError.
    """
    _require_type(source, str)
    nul = "\0" in source  # Python 3.10's reader rejects a NUL, later ones keep it: reject it here
    reader = csv.reader(io.StringIO(source.removeprefix("\ufeff"), newline=None))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input: missing header row") from None
    except csv.Error as exc:
        raise ParseError(f"header row: {exc}") from None
    if nul and "\0" in "".join(header):
        raise ParseError("header row: line contains NUL")
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
    numeric = [(column, index[column]) for column in _COLUMNS[1:] if column in index]

    rows: list[Observation] = []
    seen_periods: set[str] = set()
    row_no = 0
    try:
        for row_no, cells in enumerate(reader, start=1):
            if nul and "\0" in "".join(cells):
                raise ParseError(f"row {row_no}: line contains NUL")
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
            rows.append(Observation(period, **{column: _parse_number(cells[i], row_no, column)
                                               for column, i in numeric}))
    except csv.Error as exc:  # raised reading the row after row_no
        raise ParseError(f"row {row_no + 1}: {exc}") from None
    if not rows:
        raise ValidationError("no data rows")
    return Dataset(rows=tuple(rows), has_r="r" in index, has_w="w" in index)


def _admit(row: Observation, column: str) -> float:
    """The float nearest a record's value in `column`: TypeError where it is
    not a number, ValidationError where it is not positive and finite."""
    value = getattr(row, column)
    try:
        number = _nearest_float(value)
    except TypeError:
        raise TypeError(f"period {row.period!r}, column '{column}': {_quote(value)} "
                        "is not a number") from None
    if not number > 0.0:
        raise ValidationError(f"period {row.period!r}, column '{column}': value must be "
                              f"positive and finite, got {_quote(value)}")
    return number


def _admitted(d: Dataset, columns: tuple[str, ...]) -> list:
    """The float arrays of `columns` over the rows of `d`.  A row that is not
    an :class:`Observation` raises TypeError, and so does a value that is not
    a number; one that is not positive and finite as a double (its logarithm
    is a regressor) raises ValidationError.  The first fault is named, row by
    row and in column order."""
    import numpy as np

    rows = d.rows
    if set(map(type, rows)) == {Observation}:
        # built without a dtype, a column holding a str, None, an int past int64, a
        # Fraction or sequences is no 1-d float array: only then must the rows be scanned
        try:
            arrays = [np.array(list(map(operator.attrgetter(c), rows))) for c in columns]
        except (ValueError, Warning):  # ragged: numpy >= 1.24 raises, an older one warns
            arrays = []
        if arrays and all(a.dtype == float and a.ndim == 1 and ((a > 0.0) & (a < np.inf)).all()
                          for a in arrays):
            return arrays
    table = np.empty((len(rows), len(columns)))
    for i, row in enumerate(rows):
        if not isinstance(row, Observation):
            raise TypeError(f"row {i + 1}: expected Observation, got {type(row).__name__}")
        table[i] = [_admit(row, column) for column in columns]
    return list(table.T)


def fit_loglinear(d: Dataset, relation: Relation | str) -> FitReport:
    """Ordinary least squares fit of ln y on [1, ln price, ln k].

    ``relation`` selects the price column: rental uses r, wage uses w.
    Raises :class:`ParamError` for any other relation,
    :class:`MissingColumnError` when the price column is absent,
    :class:`ValidationError` for fewer than 4 observations, and
    :class:`RankError` when the regressors are collinear.  The rows and their
    y, k and price values are admitted as :func:`_admitted` says.
    """
    import numpy as np  # imported here so that `import vesprod` does not load it

    _require_type(d, Dataset)
    try:
        rel = Relation(relation)
    except ValueError:
        raise ParamError(f"relation must be 'rental' or 'wage', got {_quote(relation)}") from None
    column = "r" if rel is Relation.RENTAL else "w"
    if not getattr(d, f"has_{column}"):
        raise MissingColumnError(f"the {rel.value} relation needs column '{column}'")
    y, k, price = _admitted(d, ("y", "k", column))

    n = len(d.rows)
    if n < 4:
        raise ValidationError(
            f"need at least 4 observations for a 3-coefficient fit, got {n}")

    ln_y = np.log(y)
    ln_k = np.log(k)
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


def _shares(y, k, r):
    """k*r/y over float arrays, taken on the mantissas and exponents of k, r and y
    where k*r is no normal double, so that a share is inf only where it overflows."""
    import numpy as np
    with np.errstate(over="ignore"):
        kr = k * r
        (mk, ek), (mr, er), (my, ey) = map(np.frexp, (k, r, y))
        return np.where((_NORMAL <= kr) & (kr < np.inf), kr / y,
                        np.ldexp(mk * mr / my, ek + er - ey))


def _reported(f: FitReport, name: str) -> float:
    """The float nearest the number `name` ("c_hat.stderr") of a fit report:
    TypeError where its estimate is no :class:`Estimate` or it is no number,
    ValidationError where it is not finite, or is a negative standard error."""
    field, part = name.split(".")
    estimate = getattr(f, field)
    if not isinstance(estimate, Estimate):
        raise TypeError(f"{field}: expected Estimate, got {type(estimate).__name__}")
    value = getattr(estimate, part)
    try:
        number = _nearest_float(value)
    except TypeError:
        raise TypeError(f"{name}: {_quote(value)} is not a number") from None
    if math.isnan(number):
        raise ValidationError(f"{name} must be finite, got {_quote(value)}")
    if part == "stderr" and number < 0.0:
        raise ValidationError(f"{name} must not be negative, got {_quote(value)}")
    return number


def diagnose_fit(d: Dataset, f: FitReport) -> DegeneracyDiagnostics:
    """Degeneracy indicators for a fit produced from ``d``: b + c and its
    distance to unity, the significance ratio of c, and (when the rental
    column is present) the observed capital-share range k*r/y with a flag
    when it reaches c.  The report's b, c and standard error of c are admitted
    as :func:`_reported` says.  With that column, the rows and their y, k and r
    values are admitted as :func:`_admitted` says, a dataset with no rows raises
    :class:`ValidationError`, and a share that overflows raises
    :class:`DomainError`."""
    _require_type(d, Dataset)
    _require_type(f, FitReport)
    b, c, se_c = (_reported(f, name) for name in ("b_hat.value", "c_hat.value", "c_hat.stderr"))
    c_significance = math.inf if se_c == 0.0 else c / se_c
    if d.has_r:
        shares = _shares(*_admitted(d, ("y", "k", "r")))
        if not shares.size:
            raise ValidationError("no data rows")
        top = shares.argmax()  # the first of the largest shares
        if math.isinf(shares[top]):
            raise DomainError(f"period {d.rows[top].period!r}: the capital share k*r/y overflows")
        share_range: tuple[float, float] | None = (float(shares.min()), float(shares[top]))
        violated: bool | None = bool(shares[top] >= c)
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
    k0 = _require_in_domain("k0", k0)
    _check_ves_branch(p)
    b, c = p.b, p.c
    if c == 1.0:
        raise SingularError(
            "c = 1 is the constant-elasticity case: R(k) = mu k^theta never "
            "vanishes at positive k (R(k0) = 0 would force mu = 0)")
    xi = (1.0 - c) / (c - b) * b / ((1.0 - b) * p.a ** (1.0 / b)) * k0 ** (1.0 - c / b)
    if xi == 0.0:  # c != 1, so the true xi is not 0
        raise SingularError(f"xi underflows to 0 for k0 = {_quote(k0)}: the calibrated "
                            "constant is too small to represent")
    return xi
