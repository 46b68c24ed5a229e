"""Daily tweet-count series: windows, accumulation, detrending, segment fits.

Time is discretized to UTC calendar days. A :class:`DayWindow` is half-open,
``[start, end)``, so ``DayWindow(2016-03-09, 2016-11-08)`` covers exactly 244
days and a tweet posted on the end date falls outside. Day offset ``t`` counts
from the window start (``t = 0`` is the first day).

Per-user counts are one ``(users, days)`` table, row ``i`` the daily counts of
``users[i]``; :class:`CountSeries` is the aggregate series of all tweets.

The detrend step works along the last axis, on one series or a whole table.
It subtracts a trailing moving average: with window ``w`` the output is
``xi[t] = nu[t] - mean(nu[t-w .. t-1])`` for ``t >= w``, so each detrended
series is ``w`` samples shorter than its input and carries no padding; sample
``i`` is day offset ``i + w``. A constant input maps to all zeros; a pure
linear ramp maps to the constant ``slope * (w + 1) / 2``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Sequence

import numpy as np

from .corpus import Corpus

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DayWindow:
    """Half-open range of UTC calendar days, ``[start, end)``."""

    start: date
    end: date

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError(f"empty window: {self.start} .. {self.end}")

    @property
    def n_days(self) -> int:
        return (self.end - self.start).days

    @classmethod
    def of_length(cls, start: date, n_days: int) -> "DayWindow":
        return cls(start, start + timedelta(days=n_days))

    def date_of(self, t: int) -> date:
        """Calendar date of day offset ``t`` (0-based from start)."""
        if not 0 <= t < self.n_days:
            raise IndexError(f"day offset {t} outside window of {self.n_days} days")
        return self.start + timedelta(days=t)


def _readonly(values: np.ndarray) -> np.ndarray:
    out = np.array(values, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class CountSeries:
    """Per-day tweet counts of all users together (the aggregate series)."""

    window: DayWindow
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.ndim != 1 or len(values) != self.window.n_days:
            raise ValueError(
                f"need {self.window.n_days} daily values, got shape {values.shape}"
            )
        if np.any(values < 0):
            raise ValueError("negative daily count")
        object.__setattr__(self, "values", _readonly(values.astype(np.int64)))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class LinearFit:
    """OLS line ``S_hat(t) = intercept + slope * (t - t0)`` on a day range."""

    intercept: float
    slope: float
    t0: int
    se_intercept: float
    se_slope: float
    r2_adj: float
    n_points: int
    t_range: tuple[int, int]

    def slope_interval(self, sigma: float) -> tuple[float, float]:
        """Slope estimate +- sigma standard errors."""
        return (self.slope - sigma * self.se_slope, self.slope + sigma * self.se_slope)


@dataclass(frozen=True)
class ChangePointReport:
    """Disjoint-slope-interval verdict for two adjacent segment fits."""

    interval_before: tuple[float, float]
    interval_after: tuple[float, float]
    significant: bool


def daily_counts(corpus: Corpus, window: DayWindow) -> CountSeries:
    """Count all tweets per day inside the window (the aggregate series).

    Tweets outside the window are ignored.
    """
    t, keep = corpus.window_offsets(window)
    values = np.bincount(t[keep], minlength=window.n_days)
    return CountSeries(window=window, values=values)


def counts_by_user(
    corpus: Corpus,
    window: DayWindow,
    users: Sequence[str],
) -> np.ndarray:
    """(len(users), n_days) daily counts, row ``i`` those of ``users[i]``."""
    t, keep = corpus.window_offsets(window)
    pos = corpus.positions(users)
    keep &= pos >= 0
    n_days = window.n_days
    return np.bincount(
        pos[keep] * n_days + t[keep], minlength=len(users) * n_days
    ).reshape(len(users), n_days)


def accumulate(series: CountSeries) -> np.ndarray:
    """Cumulative tweet count S(t); non-decreasing, S(t) = sum_{s<=t} nu(s)."""
    return np.cumsum(series.values)


def detrend(values: np.ndarray, ma_window: int) -> np.ndarray:
    """Subtract the trailing ``ma_window``-day moving average along the last axis.

    The first ``ma_window`` days have no full trailing window and are dropped,
    never padded: each output series has ``ma_window`` fewer samples.
    """
    if ma_window < 1:
        raise ValueError("ma_window must be >= 1")
    nu = np.asarray(values, dtype=np.float64)
    n_days = nu.shape[-1]
    if n_days <= ma_window:
        raise ValueError(
            f"series of {n_days} days too short for ma_window={ma_window}"
        )
    zero = np.zeros(nu.shape[:-1] + (1,))
    csum = np.concatenate([zero, np.cumsum(nu, axis=-1)], axis=-1)
    # trailing[t] = mean(nu[t-w .. t-1]) for t in [w, N)
    trailing = (csum[..., ma_window:-1] - csum[..., : -ma_window - 1]) / ma_window
    return nu[..., ma_window:] - trailing


def fit_segment(
    accumulated: np.ndarray | Sequence[float],
    t_range: tuple[int, int],
    t0: int,
) -> LinearFit:
    """OLS fit of the accumulation curve on days ``t_range`` (inclusive).

    Classical closed-form standard errors:
    ``se(slope) = sqrt(sigma2 / Sxx)``,
    ``se(intercept) = sqrt(sigma2 * (1/n + xbar^2 / Sxx))`` with
    ``sigma2 = SSE / (n - 2)``; adjusted R^2 uses ``(n - 1) / (n - 2)``. A
    flat range, such as one with no tweet, has no R^2: ``r2_adj`` is NaN.
    """
    s = np.asarray(accumulated, dtype=np.float64)
    lo, hi = t_range
    if not (0 <= lo < hi < len(s)):
        raise ValueError(f"t_range {t_range} outside series of length {len(s)}")
    t = np.arange(lo, hi + 1, dtype=np.float64)
    y = s[lo : hi + 1]
    n = len(t)
    if n < 3:
        raise ValueError("need at least 3 points for standard errors")
    x = t - t0
    xbar = x.mean()
    ybar = y.mean()
    sxx = np.sum((x - xbar) ** 2)
    if sxx == 0:
        raise ValueError("degenerate fit range")
    slope = np.sum((x - xbar) * (y - ybar)) / sxx
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    sse = np.sum(resid**2)
    tss = np.sum((y - ybar) ** 2)
    sigma2 = sse / (n - 2)
    se_slope = float(np.sqrt(sigma2 / sxx))
    se_intercept = float(np.sqrt(sigma2 * (1.0 / n + xbar**2 / sxx)))
    r2 = np.nan if tss == 0 else 1.0 - sse / tss
    r2_adj = 1.0 - (1.0 - r2) * (n - 1) / (n - 2)
    return LinearFit(
        intercept=float(intercept),
        slope=float(slope),
        t0=int(t0),
        se_intercept=se_intercept,
        se_slope=se_slope,
        r2_adj=float(r2_adj),
        n_points=n,
        t_range=(lo, hi),
    )


def changepoint_significant(
    fit_before: LinearFit, fit_after: LinearFit, sigma: float
) -> ChangePointReport:
    """Disjoint slope-interval test at ``sigma`` standard errors.

    The change point is called significant when the two slope intervals
    ``slope +- sigma * se`` do not overlap. Symmetric in its arguments.
    """
    a = fit_before.slope_interval(sigma)
    b = fit_after.slope_interval(sigma)
    disjoint = a[1] < b[0] or b[1] < a[0]
    return ChangePointReport(
        interval_before=a,
        interval_after=b,
        significant=bool(disjoint),
    )

