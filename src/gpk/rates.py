"""Log-log scaling fits for convergence experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budgets import DEGENERATE_FLOOR
from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class RateReport:
    """Least-squares power-law fit y ~ C x^slope in log-log coordinates."""

    x: np.ndarray
    y: np.ndarray
    slope: float
    r_squared: float


def rate_points(x) -> np.ndarray:
    """x as floats if it holds the 3 distinct values a rate fit needs."""
    x = np.asarray(x, dtype=float)
    if len(set(x.tolist())) < 3:  # np.unique imports numpy.ma: ms at start-up
        raise ConfigurationError("rate fit needs at least 3 distinct points")
    return x


def fit_rate(x, y) -> RateReport:
    """Fit the scaling exponent of positive data y against x.

    Raises ConfigurationError unless `rate_points` takes x.  Data all below
    DEGENERATE_FLOOR are round-off: the report has a NaN slope and r_squared
    0.  Otherwise raises DomainError if any y is non-positive.
    """
    x = rate_points(x)
    y = np.asarray(y, dtype=float)
    if np.max(y) < DEGENERATE_FLOOR:
        return RateReport(x=x, y=y, slope=float("nan"), r_squared=0.0)
    if np.any(y <= 0):
        raise DomainError("rate fit needs strictly positive values")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateReport(x=x, y=y, slope=float(slope),
                      r_squared=max(0.0, min(1.0, r2)))
