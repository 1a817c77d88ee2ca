"""Autocovariance of the change indicator and the variance of its mean.

With C_k the indicator that window k holds a local extremum, the rate
c(H) = P(C_k = 1) has the arcsine closed form below, gamma_H(k) = Cov(C_0,
C_k) has closed forms at lags 0 and 1, and every further lag reduces to two
structured 4-dim orthant probabilities.  Var_H(c_n) follows by the usual
stationary-sum identity.  For long series the exact lag-k values are needed
only up to a threshold; past it a Taylor expansion of the orthant functional
in the correlation tail is accurate to a chosen relative error, and the
threshold itself is the k_threshold table this module computes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapReached, DomainError, NumericalError, UnsupportedOrder
from .fbm import as_hurst, rho
from .orthant import DEFAULT_QUADRATURE, QuadratureConfig, orthant4_excess

_TWO_PI = 2.0 * math.pi
_PI_SQ = math.pi * math.pi

# Lags per gamma_exact call in k_threshold; larger blocks only cost memory.
_BLOCK = 16


def _check_order(m: int) -> None:
    if m < 1:
        raise DomainError(f"Taylor order must be >= 1, got {m}")
    if m > 3:
        raise UnsupportedOrder(f"derivatives beyond order 6 are not implemented (m={m})")


@dataclass(frozen=True)
class VarianceApproxConfig:
    """Knobs for the exact-head/Taylor-tail split in var_c_approx."""

    m: int = 3
    eps: float = 0.01
    n_tilde_cap: int = 250

    def __post_init__(self):
        _check_order(self.m)
        if not self.eps > 0:
            raise DomainError(f"eps must be positive, got {self.eps}")
        if self.n_tilde_cap < 2:
            raise DomainError(f"n_tilde_cap must be >= 2, got {self.n_tilde_cap}")


DEFAULT_VARIANCE = VarianceApproxConfig()


def change_prob(h) -> float:
    """c(H) = P(local extremum) = 1 - (2/pi) arcsin(2^(H-1))."""
    hh = as_hurst(h)
    return 1.0 - 2.0 / math.pi * math.asin(2.0 ** (hh - 1.0))


def gamma0(h) -> float:
    """gamma_H(0) = c(H)(1 - c(H))."""
    c = change_prob(h)
    return c * (1.0 - c)


def gamma1(h) -> float:
    """gamma_H(1), closed form via arcsines of rho_H(1) and rho_H(2)."""
    hh = as_hurst(h)
    return math.asin(rho(hh, 2)) / _TWO_PI - (math.asin(rho(hh, 1)) / math.pi) ** 2


@functools.lru_cache(maxsize=2048)
def _gamma_memo(hh: float, q: QuadratureConfig) -> dict:
    """The {k: gamma_exact} memo of one (H, quadrature); idempotent writes.

    figure1 and the proxy grids revisit about a thousand H values once per
    length, so maxsize stays well above that.
    """
    return {}


def gamma_exact(h, k, q: QuadratureConfig = DEFAULT_QUADRATURE):
    """gamma_H(k) for k >= 2 via two orthant4 evaluations.

    The orthant vectors are (rho_1, s*rho_k, s*rho_{k+1}, s*rho_{k-1}) for
    s = +1, -1; the s = 0 term is the decoupled orthant2(rho_1)^2, and

        gamma = 2*P(+1) + 2*P(-1) - 4*P(0)

    is assembled from the two orthant4 *excesses* over that shared
    baseline, so the baseline never enters the arithmetic.  Adding and
    subtracting it would cap relative accuracy near 1e-4 once gamma falls
    to ~1e-13 (large k, H < 1/2).

    k may be a 1-d array of lags, giving an array equal bit for bit to one
    call per lag; a failure raises the error of the lowest failing lag.
    """
    hh = as_hurst(h)
    lags = np.atleast_1d(k).tolist()
    if min(lags, default=2) < 2:
        raise DomainError(f"gamma_exact needs k >= 2, got {min(lags)}")
    if hh in (0.5, 1.0):
        return 0.0 if np.ndim(k) == 0 else np.zeros(len(lags))
    cache = _gamma_memo(hh, q)
    misses = [v for v in dict.fromkeys(lags) if v not in cache]
    if misses:
        # Scalar rho: numpy's pow may differ in the last ulp (see fbm.rho).
        tails = np.array([(rho(hh, v), rho(hh, v + 1), rho(hh, v - 1)) for v in misses])
        rows = [np.insert(s * tails, 0, rho(hh, 1), axis=1) for s in (1.0, -1.0)]
        try:
            plus, minus = (orthant4_excess(r, q) for r in rows)
        except NumericalError:  # lag by lag, the lowest failing lag raises
            if len(misses) == 1:
                raise
            return np.array([gamma_exact(hh, v, q) for v in lags])
        cache.update(zip(misses, (2.0 * (plus + minus)).tolist()))
    values = [cache[v] for v in lags]
    return values[0] if np.ndim(k) == 0 else np.array(values)


def gamma_asymptotic(h, k: int) -> float:
    """Leading-order tail of gamma_H(k), the order-1 Taylor form; 0 at H in {1/2, 1}."""
    hh = as_hurst(h)
    if k < 1:
        raise DomainError(f"lag must be positive, got {k}")
    return _taylor_series(hh, float(k), _taylor_coeffs(hh, 1))


def _taylor_coeffs(hh: float, m: int) -> list:
    """Per-order coefficients a_l with gamma_taylor = sum_l a_l * u^(2l).

    a_l = 4 * D_{2l}(rho_1)/(2l)! where D_{2l} is the 2l-th derivative of
    the lag functional along its correlation-tail direction at tail 0.
    """
    _check_order(m)
    r = rho(hh, 1)
    d2 = (1.0 - r) / (_PI_SQ * (1.0 + r))
    d4 = 4.0 * (1.0 - r) * (2.0 + r) ** 2 / (_PI_SQ * (1.0 + r) ** 3)
    d6 = 16.0 * (1.0 - r) * (7.0 + 6.0 * r + 2.0 * r * r) ** 2 / (_PI_SQ * (1.0 + r) ** 5)
    return [4.0 * d / f for d, f in ((d2, 2.0), (d4, 24.0), (d6, 720.0))][:m]


def gamma_taylor(h, k: int, m: int = 3) -> float:
    """Taylor approximation of gamma_H(k) in the correlation tail, order m <= 3."""
    hh = as_hurst(h)
    if k < 2:
        raise DomainError(f"gamma_taylor needs k >= 2, got {k}")
    return _taylor_series(hh, float(k), _taylor_coeffs(hh, m))


def _taylor_series(hh: float, k, coeffs: list):
    """gamma_taylor at a float lag k, or at each lag of a float array k."""
    u2 = (hh * (2.0 * hh - 1.0) * k ** (2.0 * hh - 2.0)) ** 2
    total = 0.0
    power = u2
    for a in coeffs:
        total = total + a * power
        power = power * u2
    return total


def k_threshold(
    h,
    m: int,
    eps: float,
    q: QuadratureConfig = DEFAULT_QUADRATURE,
    k_max: int = 100_000,
) -> int:
    """Least k >= 2 with |gamma_taylor - gamma_exact| / gamma_exact < eps.

    Upward search against memoized gamma_exact in blocks of _BLOCK lags;
    raises CapReached past k_max (the H -> 1 corner needs five-digit k's).
    """
    hh = as_hurst(h)
    if hh in (0.5, 1.0):
        raise DomainError(
            f"relative error is undefined at H={hh} where gamma vanishes identically"
        )
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps}")
    coeffs = _taylor_coeffs(hh, m)  # also validates the order before searching
    for start in range(2, k_max + 1, _BLOCK):
        ks = np.arange(start, min(start + _BLOCK, k_max + 1))
        try:
            block = gamma_exact(hh, ks, q).tolist()
        except NumericalError:
            # The failing lag may lie past the threshold: go lazily, lag by lag.
            block = (gamma_exact(hh, k, q) for k in ks.tolist())
        for k, exact in zip(ks.tolist(), block):
            if exact != 0.0 and abs(_taylor_series(hh, k, coeffs) - exact) / abs(exact) < eps:
                return k
    raise CapReached(k_max)


def _var_c(hh: float, n: int, n_tilde: int, m: int, q: QuadratureConfig) -> float:
    """(n gamma(0) + 2 sum_{k=1}^{n-1} (n-k) gamma(k)) / n^2.

    Lags below n_tilde are exact; from n_tilde on the order-m Taylor form.
    """
    if n < 1:
        raise DomainError(f"need n >= 1 windows, got {n}")
    if hh == 1.0:
        return 0.0
    head_top = min(n_tilde, n)
    ks = np.arange(2, head_top)
    acc = (n - 1) * gamma1(hh)
    # Added in lag order: np.sum adds pairwise and would move output bytes.
    for term in ((n - ks) * gamma_exact(hh, ks, q)).tolist():
        acc += term
    if head_top < n:
        ks = np.arange(head_top, n, dtype=float)
        acc += float(np.sum((n - ks) * _taylor_series(hh, ks, _taylor_coeffs(hh, m))))
    return (n * gamma0(hh) + 2.0 * acc) / (n * n)


def var_c_exact(h, n: int, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Var_H(c_n) with every lag evaluated exactly; intended for n <= ~2000."""
    return _var_c(as_hurst(h), n, n, 3, q)


def var_c_approx(
    h,
    n: int,
    cfg: VarianceApproxConfig = DEFAULT_VARIANCE,
    q: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Var_H(c_n) with the exact head / Taylor tail split at the n_tilde rule.

    n_tilde = min(k_threshold(h, m, eps), n_tilde_cap, n); the capped search
    never scans lags the cap would discard anyway, and there is no search at
    H in {1/2, 1}, where gamma vanishes identically.
    """
    hh = as_hurst(h)
    n_tilde = min(cfg.n_tilde_cap, n)
    if n > 2 and hh not in (0.5, 1.0):
        try:
            n_tilde = k_threshold(hh, cfg.m, cfg.eps, q, k_max=n_tilde)
        except CapReached:
            pass
    return _var_c(hh, n, n_tilde, cfg.m, q)


def var_c_asymptotic(h, n: int) -> float:
    """Large-n variance law for H >= 3/4 (log decay exactly at 3/4)."""
    hh = as_hurst(h)
    if hh < 0.75:
        raise DomainError(f"asymptotic law requires H >= 3/4, got {hh}")
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    r1 = rho(hh, 1)
    d_h = 4.0 * (1.0 - r1) * (hh * (2.0 * hh - 1.0)) ** 2 / (_PI_SQ * (1.0 + r1))
    if hh == 0.75:
        return d_h * math.log(n) / n
    return d_h * float(n) ** (4.0 * hh - 4.0) / (4.0 * hh - 3.0)


def f_n(
    h,
    n: int,
    cfg: VarianceApproxConfig = DEFAULT_VARIANCE,
    q: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """n * Var_H(c_n); converges to f_infinity below H = 3/4."""
    return n * var_c_approx(h, n, cfg, q)


def _taylor_zeta_tail(hh: float, start: int, m: int) -> float:
    """sum_{k >= start} gamma_taylor(k) in closed form via Hurwitz zeta."""
    from scipy.special import zeta
    coeffs = _taylor_coeffs(hh, m)
    base = (hh * (2.0 * hh - 1.0)) ** 2
    total = 0.0
    power = base  # base^l, the k-free part of u^(2l)
    for l, a in enumerate(coeffs, start=1):
        s = 2.0 * l * (2.0 - 2.0 * hh)  # > 1 for every order when H < 3/4
        total += a * power * float(zeta(s, start))
        power *= base
    return total


def f_infinity(h, tail_tol: float = 1e-9, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """gamma(0) + 2 sum_{k>=1} gamma(k), summable exactly when H < 3/4.

    Exact lags run to a threshold where the Taylor form is accurate to a
    relative error sized so the absolute tail error stays below tail_tol;
    the Taylor tail itself sums to infinity in closed form (Hurwitz zeta),
    so tail_tol only pays for |gamma - gamma_taylor| past the threshold.
    """
    hh = as_hurst(h)
    if hh >= 0.75:
        raise DomainError(f"the series diverges for H >= 3/4, got {hh}")
    if not tail_tol > 0:
        raise DomainError(f"tail_tol must be positive, got {tail_tol}")
    if hh == 0.5:
        return 0.25
    eps = 1e-3
    start = k_threshold(hh, 3, eps, q, k_max=20_000)
    tail = _taylor_zeta_tail(hh, start, 3)
    if eps * abs(tail) > tail_tol / 2.0:
        eps = max(tail_tol / (2.0 * abs(tail) + 1e-300), 1e-12)
        start = k_threshold(hh, 3, eps, q, k_max=20_000)
        tail = _taylor_zeta_tail(hh, start, 3)
    head = gamma1(hh)
    for value in gamma_exact(hh, np.arange(2, start), q).tolist():
        head += value
    return gamma0(hh) + 2.0 * (head + tail)

