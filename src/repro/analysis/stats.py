"""Descriptive statistics and the Welch t-test.

The Figure 7 claim — "while slight, there is a statistically
significant difference between the two collection methods" — is checked
with Welch's unequal-variance t-test.  Its two-sided p-value is the
Student-t tail as a regularized incomplete beta function, evaluated with
a continued fraction, so the package needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError


class AnalysisError(ReproError):
    """Bad input to an analysis routine."""


@dataclass(frozen=True)
class Summary:
    """Descriptive summary of one sample."""

    n: int
    mean: float
    std: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


def summarize(values: np.ndarray) -> Summary:
    """Describe a 1-D sample."""
    data = np.asarray(values, dtype=np.float64)
    if data.ndim != 1 or len(data) == 0:
        raise AnalysisError("summarize needs a non-empty 1-D sample")
    q1, median, q3 = np.percentile(data, [25.0, 50.0, 75.0])
    return Summary(
        n=len(data),
        mean=float(data.mean()),
        std=float(data.std(ddof=1)) if len(data) > 1 else 0.0,
        minimum=float(data.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=float(data.max()),
    )


@dataclass(frozen=True)
class TTestResult:
    """Welch t-test outcome."""

    statistic: float
    pvalue: float
    mean_difference: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.pvalue < alpha


def _betacf(a: float, b: float, x: float) -> float:
    """The continued fraction ``1/(1+ d1/(1+ d2/(1+ ...)))`` of
    ``I_x(a, b)``, evaluated by the modified Lentz method."""
    tiny = 1e-300
    f, c, d = tiny, tiny, 0.0
    for n in range(20_000):
        m = n // 2
        if n == 0:
            num = 1.0
        elif n % 2:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return f


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def welch_ttest(a: np.ndarray, b: np.ndarray) -> TTestResult:
    """Welch's unequal-variance t-test between two samples (two-sided)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise AnalysisError("welch_ttest needs at least 2 samples per arm")
    va = float(a.var(ddof=1)) / len(a)
    vb = float(b.var(ddof=1)) / len(b)
    difference = float(a.mean() - b.mean())
    with np.errstate(divide="ignore", invalid="ignore"):
        statistic = float(np.divide(difference, np.sqrt(va + vb)))
    if not math.isfinite(statistic):  # no spread in either arm
        pvalue = math.nan if math.isnan(statistic) else 0.0
    else:
        df = (va + vb) ** 2 / (va**2 / (len(a) - 1) + vb**2 / (len(b) - 1))
        pvalue = _betainc(df / 2.0, 0.5, df / (df + statistic**2))
    return TTestResult(
        statistic=statistic,
        pvalue=pvalue,
        mean_difference=difference,
    )
