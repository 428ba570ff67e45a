"""Statistics kernel: chi-square testing, OLS trends, Pearson correlation.

The chi-square survival function is computed from the regularized upper
incomplete gamma function Q(df/2, x/2), using the power series for small
arguments and a Lentz-style continued fraction otherwise.  Both expansions
run to a relative term below 1e-15 under a hard iteration cap; breaching the
cap raises ConvergenceError rather than returning a silently wrong value.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Dict, List, Sequence, Tuple

from .errors import (
    ConvergenceError,
    DegenerateAbscissaError,
    EmptyIntersectionError,
    LengthMismatchError,
    NonPositiveExpectedError,
    ZeroVarianceError,
)
from .model import RankTable, _Record

_EPS = 1e-15
_MAX_ITER = 10_000
_TINY = 1e-300


class Decision(Enum):
    REJECT = "reject"
    DO_NOT_REJECT = "do-not-reject"


class ChiSquareResult(_Record):
    """Everything a hypothesis-test report needs.

    decision is REJECT exactly when statistic > critical_value, which for a
    continuous survival function is the same cut as p_value < alpha.
    """

    statistic: float
    df: int
    p_value: float
    critical_value: float
    alpha: float
    decision: Decision


class TrendResult(_Record):
    slope: float
    intercept: float
    n: int

    def predict(self, year: float) -> float:
        return self.intercept + self.slope * year


class TrendSeries(_Record):
    """A country's trend report: each node's (year, score) points, in year
    order, which the report fits by least squares."""

    country: str
    points: Dict[str, List[Tuple[int, float]]]

    def fits(self) -> Dict[str, TrendResult]:
        return {node: ols_fit(points) for node, points in self.points.items()}


class CorrelationResult(_Record):
    r: float
    n: int


# ---------------------------------------------------------------------------
# regularized incomplete gamma
# ---------------------------------------------------------------------------

def _lower_gamma_series(a: float, x: float) -> float:
    """P(a, x) by power series; accurate for x < a + 1."""
    term = 1.0 / a
    total = term
    n = 0
    while n < _MAX_ITER:
        n += 1
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ConvergenceError(f"gamma series did not converge for a={a}, x={x}")


def _upper_gamma_cf(a: float, x: float) -> float:
    """Q(a, x) by Lentz continued fraction; accurate for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ConvergenceError(f"gamma continued fraction did not converge for a={a}, x={x}")


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) for a > 0, x >= 0."""
    if a <= 0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _lower_gamma_series(a, x)
    return _upper_gamma_cf(a, x)


# ---------------------------------------------------------------------------
# chi-square distribution
# ---------------------------------------------------------------------------

def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability P(chi2_df > x)."""
    if df < 1:
        raise ValueError(f"df must be a positive integer, got {df}")
    if x < 0:
        raise ValueError(f"chi-square statistic must be nonnegative, got {x}")
    return regularized_gamma_q(df / 2.0, x / 2.0)


def chi_square_isf(alpha: float, df: int) -> float:
    """Critical value x with sf(x, df) == alpha, to |sf(x) - alpha| <= 1e-10.

    Bisects a doubled bracket, which holds the root as sf strictly decreases,
    until no float lies between its ends: a looser stop in x leaves up to
    1e-9 of slack at x ~ 1000, enough to move the sixth decimal.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    lo, hi = 0.0, float(df) + 10.0
    while chi_square_sf(hi, df) > alpha:
        hi *= 2.0
        if hi > 1e9:
            raise ConvergenceError(f"failed to bracket isf({alpha}, {df})")
    while True:
        x = 0.5 * (lo + hi)
        if x == lo or x == hi:  # no float left between the ends
            return x
        if chi_square_sf(x, df) > alpha:
            lo = x
        else:
            hi = x


# ---------------------------------------------------------------------------
# tests and fits
# ---------------------------------------------------------------------------

def chi_square_statistic(observed: Sequence[float], expected: Sequence[float]) -> float:
    """Sum of (O - E)^2 / E."""
    if len(observed) != len(expected):
        raise LengthMismatchError(
            f"observed has {len(observed)} entries, expected has {len(expected)}"
        )
    if len(observed) < 2:
        raise LengthMismatchError("need at least two categories")
    for e in expected:
        if not e > 0:
            raise NonPositiveExpectedError(f"expected entry {e} is not strictly positive")
    for o in observed:
        if o < 0:
            raise ValueError(f"observed entry {o} is negative")
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected))


def chi_square_test(statistic: float, df: int, alpha: float = 0.05) -> ChiSquareResult:
    """Decision for an already-computed statistic: reject iff it exceeds the
    critical value at alpha (equivalently, iff the p-value falls below it)."""
    critical = chi_square_isf(alpha, df)
    p_value = chi_square_sf(statistic, df)
    return ChiSquareResult(
        statistic=statistic,
        df=df,
        p_value=p_value,
        critical_value=critical,
        alpha=alpha,
        decision=Decision.REJECT if statistic > critical else Decision.DO_NOT_REJECT,
    )


def rank_homogeneity_test(
    prev: RankTable,
    cur: RankTable,
    alpha: float = 0.05,
    design: str = "prev-expected",
) -> ChiSquareResult:
    """Chi-square test of whether a ranking shifted between two years.

    Designs over the common country set (n countries, df = n - 1):
      prev-expected  observed = current ranks, expected = previous ranks
                     (the default contract)
      cur-expected   the swap of the above
      two-way        2 x n table of (previous, current) ranks with
                     margin-derived expecteds - the classic spreadsheet
                     contingency layout
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    common = sorted(set(prev.ranks) & set(cur.ranks))
    if len(common) < 2:
        raise EmptyIntersectionError(
            f"need at least two common countries, got {len(common)}"
        )
    prev_ranks = [float(prev.rank(c)) for c in common]
    cur_ranks = [float(cur.rank(c)) for c in common]
    df = len(common) - 1
    if design == "prev-expected":
        statistic = chi_square_statistic(cur_ranks, prev_ranks)
    elif design == "cur-expected":
        statistic = chi_square_statistic(prev_ranks, cur_ranks)
    elif design == "two-way":
        statistic = _two_way_statistic(prev_ranks, cur_ranks)
    else:
        raise ValueError(f"unknown design {design!r}")
    return chi_square_test(statistic, df, alpha)


def _two_way_statistic(row1: List[float], row2: List[float]) -> float:
    grand = sum(row1) + sum(row2)
    r1, r2 = sum(row1), sum(row2)
    statistic = 0.0
    for o1, o2 in zip(row1, row2):
        col = o1 + o2
        e1 = r1 * col / grand
        e2 = r2 * col / grand
        if not (e1 > 0 and e2 > 0):
            raise NonPositiveExpectedError("two-way expecteds require positive margins")
        statistic += (o1 - e1) ** 2 / e1 + (o2 - e2) ** 2 / e2
    return statistic


def ols_fit(series: Sequence[Tuple[float, float]]) -> TrendResult:
    """Least-squares line through (year, value) points.

    slope = cov(year, value) / var(year); intercept = mean(value) -
    slope * mean(year).  Needs at least two points on distinct years.
    """
    n = len(series)
    if n < 2:
        raise DegenerateAbscissaError(f"need at least two points, got {n}")
    xs = [float(x) for x, _ in series]
    ys = [float(y) for _, y in series]
    if len(set(xs)) < 2:
        raise DegenerateAbscissaError("all years are equal")
    x_mean = sum(xs) / n
    y_mean = sum(ys) / n
    sxx = sum((x - x_mean) ** 2 for x in xs)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return TrendResult(slope=slope, intercept=y_mean - slope * x_mean, n=n)


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Pearson correlation coefficient r = cov(x, y) / (sigma_x * sigma_y)."""
    if len(x) != len(y):
        raise LengthMismatchError(f"lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise LengthMismatchError("need at least two points")
    x_mean = sum(x) / n
    y_mean = sum(y) / n
    dx = [v - x_mean for v in x]
    dy = [v - y_mean for v in y]
    sxx = sum(v * v for v in dx)
    syy = sum(v * v for v in dy)
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVarianceError("correlation undefined for a constant series")
    r = sum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    return CorrelationResult(r=r, n=n)
