"""Hurst estimators: zero-crossing (with confidence intervals) and HEAF.

The zero-crossing estimator inverts the change rate c(H) through

    g(x) = log2(sin(pi (1 - x) / 2)) + 1   on [0, 2/3),   0 on [2/3, 1],

so that g(c(H)) = H; the flat branch clamps inputs whose change rate
exceeds the value any H could produce.  HEAF inverts the lag-1 increment
autocorrelation through rho_1 = 2^(2H-1) - 1 and is the comparison method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BadLength, DomainError
from .fbm import as_hurst
from .patterns import _finite_series, change_indicator_count
from .variance import change_prob, var_c_approx

# Fixed normal quantile for the two-sided 95% interval.
Z95 = 1.96

_LN2 = math.log(2.0)

# Plug-in evaluations at h_hat = 0 use this proxy for the H -> 0 limit.
H_FLOOR = 1e-4


def g(x: float) -> float:
    """Invert the change rate to a Hurst value; flat 0 branch on [2/3, 1]."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"g is defined on [0, 1], got {x}")
    if x >= 2.0 / 3.0:
        return 0.0
    return math.log2(math.sin(math.pi * (1.0 - x) / 2.0)) + 1.0


def g_prime(x: float) -> float:
    """g'(x) = -(pi / (2 ln 2)) cot(pi (1 - x) / 2) on (0, 2/3)."""
    if not 0.0 < x < 2.0 / 3.0:
        raise DomainError(f"g' is defined on (0, 2/3), got {x}")
    phi = math.pi * (1.0 - x) / 2.0
    return -math.pi / (2.0 * _LN2) * (math.cos(phi) / math.sin(phi))


def g_second(x: float) -> float:
    """g''(x) = -(pi^2 / (4 ln 2)) / sin^2(pi (1 - x) / 2) on (0, 2/3).

    Negative everywhere, which is why the estimator's quadratic bias term
    pushes the mean below H.
    """
    if not 0.0 < x < 2.0 / 3.0:
        raise DomainError(f"g'' is defined on (0, 2/3), got {x}")
    s = math.sin(math.pi * (1.0 - x) / 2.0)
    return -math.pi * math.pi / (4.0 * _LN2) / (s * s)


@dataclass(frozen=True)
class EstimateReport:
    """One estimator run on one series.

    statistic is c_hat for ZC and rho_hat for HEAF.  Interval and
    asymptotics fields exist only for ZC; HEAF has no interval theory, so
    its fields are None rather than zero.  degenerate marks the all-equal-
    increments input, reported as h_hat = 1.
    """

    method: str
    h_hat: float
    statistic: float
    n: int
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    s_n: Optional[float] = None
    asymptotic_bias: Optional[float] = None
    asymptotic_variance: Optional[float] = None
    degenerate: bool = False


def zc_interval(h: float, var_c: float) -> tuple:
    """(s_n, bias, ci_low, ci_high) at estimate h, given Var_H(c_n).

    s_n and the bias are plug-in values with the derivatives of g taken at
    max(h, H_FLOOR); the 95% interval is centred on h and clipped to [0, 1].
    h = 1 is the degenerate zero-width interval at 1.
    """
    if h == 1.0:
        return 0.0, 0.0, 1.0, 1.0
    c = change_prob(max(h, H_FLOOR))
    s_n = g_prime(c) ** 2 * var_c
    bias = 0.5 * g_second(c) * var_c
    half = Z95 * math.sqrt(s_n)
    return s_n, bias, max(h - half, 0.0), min(h + half, 1.0)


def zc_estimate(x, var_c: Optional[Callable[[float, int], float]] = None) -> EstimateReport:
    """Zero-crossing estimate with 95% interval and asymptotic diagnostics.

    s_n and the bias/variance diagnostics are plug-in values at H = h_hat
    (the H -> 0 boundary evaluated at H_FLOOR, and h_hat = 1 degenerating
    to a zero-width interval at 1).  Var_H(c_n) there is var_c_approx(h,
    n), or var_c(h, n) when var_c is given: campaigns pass an
    interpolating table so the quadrature runs once per grid point instead
    of once per replication.  NaN or infinite values raise InputError.
    """
    changes, n = change_indicator_count(x)
    c_hat = changes / n
    h_hat = g(c_hat)
    h_eval = max(h_hat, H_FLOOR)
    variance = var_c(h_eval, n) if var_c is not None else var_c_approx(h_eval, n)
    s_n, bias, ci_low, ci_high = zc_interval(h_hat, variance)
    return EstimateReport(
        method="ZC",
        h_hat=h_hat,
        statistic=c_hat,
        n=n,
        ci_low=ci_low,
        ci_high=ci_high,
        s_n=s_n,
        asymptotic_bias=bias,
        asymptotic_variance=s_n,
    )


def heaf_transform(rho_hat: float) -> float:
    """H = (1 + log2(1 + max(-1/2, rho_hat))) / 2; a non-finite rho_hat is refused."""
    if not math.isfinite(rho_hat):
        raise DomainError(f"lag-1 correlation must be finite, got {rho_hat!r}")
    return 0.5 * (1.0 + math.log2(1.0 + max(-0.5, rho_hat)))


# Below this sum of squares the centred increments may have lost bits to
# underflow; heaf_estimate then recomputes at unit scale.
_HEAF_DENOM_FLOOR = float(np.finfo(float).tiny / np.finfo(float).eps)


def _lag1_sums(levels: np.ndarray) -> tuple:
    """(lag-1 cross sum, sum of squares) of the centred first differences."""
    y = np.diff(levels)
    # bit for bit y.mean(), without its Python-level dispatch
    centered = y - y.sum() / y.size
    return float(centered[:-1] @ centered[1:]), float(centered @ centered)


def heaf_estimate(x) -> EstimateReport:
    """HEAF estimate from the lag-1 autocorrelation of first differences.

    All-equal increments make rho_hat 0/0; that input is reported as the
    degenerate h_hat = 1 path (statistic pinned to the rho = 1 limit)
    rather than raised, so campaigns keep running.  NaN or infinite values
    raise InputError.  rho_hat is scale-free: levels whose sum of squares
    over- or underflows are recomputed scaled by a power of two, which is
    exact, so x * 2**k gives the report of x bit for bit wherever that
    product is exact and the sums at x lose no bits.
    """
    arr = _finite_series(x)
    if arr.ndim != 1 or arr.size < 3:
        raise BadLength(f"need at least 3 values, got {arr.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        cross, denom = _lag1_sums(arr)
    if not _HEAF_DENOM_FLOOR <= denom < math.inf:
        peak = float(np.abs(arr).max())
        cross, denom = _lag1_sums(np.ldexp(arr, -math.frexp(peak)[1]))
    n = arr.size - 1
    if denom == 0.0:
        return EstimateReport(
            method="HEAF", h_hat=1.0, statistic=1.0, n=n, degenerate=True
        )
    rho_hat = cross / denom
    return EstimateReport(
        method="HEAF", h_hat=heaf_transform(rho_hat), statistic=rho_hat, n=n
    )


def asymptotic_expectation(h, n: int) -> float:
    """Large-n mean H + (1/2) g''(c(H)) Var_H(c_n) of the ZC estimator.

    g'' < 0, so this sits below H, hardest at H near 1 and small n.
    """
    hh = as_hurst(h)
    return hh + zc_interval(hh, var_c_approx(hh, n))[1]


def asymptotic_variance(h, n: int) -> float:
    """Large-n variance g'(c(H))^2 Var_H(c_n) of the ZC estimator."""
    hh = as_hurst(h)
    return zc_interval(hh, var_c_approx(hh, n))[0]
