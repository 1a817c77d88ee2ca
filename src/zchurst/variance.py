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
import itertools
import math

import numpy as np

from .errors import CapReached, DomainError, NumericalError, UnsupportedOrder
from .fbm import _rho_spans, as_hurst, rho
from .orthant import orthant4_excess

_TWO_PI = 2.0 * math.pi
_PI_SQ = math.pi * math.pi

# Lags in k_threshold's first gamma_exact call; each later block doubles, up
# to _MAX_BLOCK, so short searches stay short and long ones make few calls.
# One block spans every H still searching.  orthant4_excess integrates its
# rows in passes of at most 64 x 96 cells in a workspace kept across calls,
# so a block of a 1 000-H grid needs no more kernel memory than a block of
# one H.
_BLOCK = 16
_MAX_BLOCK = 64


def _check_order(m: int) -> None:
    if m < 1:
        raise DomainError(f"Taylor order must be >= 1, got {m}")
    if m > 3:
        raise UnsupportedOrder(f"derivatives beyond order 6 are not implemented (m={m})")


# var_c_approx's one rule: exact lags up to the order-3 Taylor threshold at
# relative error 0.01, but never past lag 250, then the Taylor form.  Read
# at call time.
_TAYLOR_ORDER = 3
_TAYLOR_EPS = 0.01
_N_TILDE_CAP = 250


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
def _gamma_memo(hh: float) -> dict:
    """The {k: gamma_exact} memo of one H; idempotent writes.

    figure1 and the proxy grids revisit about a thousand H values once per
    length, so maxsize stays well above that.
    """
    return {}


def gamma_exact(h, k):
    """gamma_H(k) for k >= 2 via two orthant4 evaluations.

    The orthant vectors are (rho_1, s*rho_k, s*rho_{k+1}, s*rho_{k-1}) for
    s = +1, -1; the s = 0 term is the decoupled orthant2(rho_1)^2, and

        gamma = 2*P(+1) + 2*P(-1) - 4*P(0)

    is assembled from the two orthant4 *excesses* over that shared
    baseline, so the baseline never enters the arithmetic.  Adding and
    subtracting it would cap relative accuracy near 1e-4 once gamma falls
    to ~1e-13 (large k, H < 1/2).

    h and k may be 1-d arrays, broadcast into (H, lag) pairs, giving an
    array equal bit for bit to one call per pair: the rows of every pair
    missing from the memo go through one orthant4_excess call per sign.  A
    failure raises the error of the first failing lag of the first H that
    fails, in order of appearance.
    """
    hs, ks = np.broadcast_arrays(np.atleast_1d(np.asarray(h, dtype=float)), np.atleast_1d(k))
    # runs of one H, the shape of k_threshold's blocks and of one-H calls
    ends = [*(np.flatnonzero(hs[1:] != hs[:-1]) + 1).tolist(), len(hs)]
    runs = [(float(hs[a]), ks[a:b].tolist()) for a, b in zip([0, *ends], ends) if b > a]
    values = _gamma_runs(runs)
    return float(values[0]) if np.ndim(h) == 0 and np.ndim(k) == 0 else values


def _gamma_runs(runs: list) -> np.ndarray:
    """gamma_exact of each (H, lags) run, joined in order."""
    hurst = [as_hurst(hh) for hh, _ in runs]
    lowest = min((min(ks) for _, ks in runs), default=2)
    if lowest < 2:
        raise DomainError(f"gamma_exact needs k >= 2, got {lowest}")
    # gamma vanishes identically at H 1/2 and 1: no memo, no orthant rows
    memos = {hh: _gamma_memo(hh) for hh in hurst if hh not in (0.5, 1.0)}
    missing = {hh: {} for hh in memos}  # H -> its distinct missing lags, in order
    for hh, (_, ks) in zip(hurst, runs):
        if hh in memos:
            missing[hh].update(dict.fromkeys(v for v in ks if v not in memos[hh]))
    todo = [(hh, list(misses)) for hh, misses in missing.items() if misses]
    if todo:
        rows = _orthant_rows(todo)
        try:
            plus, minus = (orthant4_excess(x) for x in (rows, rows * (1.0, -1.0, -1.0, -1.0)))
        except NumericalError:
            if len(rows) == 1:
                raise
            # H by H, then lag by lag: each part fills the memos or raises
            parts = todo if len(todo) > 1 else [(todo[0][0], [v]) for v in todo[0][1]]
            for part in parts:
                _gamma_runs([part])
        else:
            values = iter((2.0 * (plus + minus)).tolist())
            for hh, misses in todo:
                memos[hh].update(zip(misses, values))
    out = []
    for hh, (_, ks) in zip(hurst, runs):
        out += map(memos[hh].__getitem__, ks) if hh in memos else [0.0] * len(ks)
    return np.array(out)


def _orthant_rows(todo: list) -> np.ndarray:
    """The (rho_1, rho_k, rho_{k+1}, rho_{k-1}) row of each lag k of each
    (H, lags) item of todo, in order.

    Scalar pow, once per power over one span per H, from its lowest lag's
    neighbour to its highest's (numpy's pow may differ in the last ulp, see
    fbm.rho).
    """
    spans = [(hh, min(lags) - 1, max(lags) + 1) for hh, lags in todo]
    r, starts = _rho_spans(spans)
    counts = [len(lags) for _, lags in todo]
    at = np.repeat(np.subtract(starts, [lo for _, lo, _ in spans]), counts)
    at += [k for _, lags in todo for k in lags]
    rows = np.empty((at.size, 4))
    rows[:, 0] = np.repeat([rho(hh, 1) for hh, _ in todo], counts)
    rows[:, 1:] = r[at[:, None] + (0, 1, -1)]  # rho_k, rho_{k+1}, rho_{k-1}
    return rows


def _taylor_coeffs(hh: float, m: int) -> tuple:
    """Per-order coefficients a_l with gamma_taylor = sum_l a_l * u^(2l).

    a_l = 4 * D_{2l}(rho_1)/(2l)! where D_{2l} is the 2l-th derivative of
    the lag functional along its correlation-tail direction at tail 0.
    """
    _check_order(m)
    r = rho(hh, 1)
    d2 = (1.0 - r) / (_PI_SQ * (1.0 + r))
    d4 = 4.0 * (1.0 - r) * (2.0 + r) ** 2 / (_PI_SQ * (1.0 + r) ** 3)
    d6 = 16.0 * (1.0 - r) * (7.0 + 6.0 * r + 2.0 * r * r) ** 2 / (_PI_SQ * (1.0 + r) ** 5)
    return tuple(4.0 * d / f for d, f in ((d2, 2.0), (d4, 24.0), (d6, 720.0)))[:m]


def gamma_taylor(h, k: int, m: int = 3) -> float:
    """Taylor approximation of gamma_H(k) in the correlation tail, order m <= 3."""
    hh = as_hurst(h)
    if k < 2:
        raise DomainError(f"gamma_taylor needs k >= 2, got {k}")
    return _taylor_series(hh, float(k), _taylor_coeffs(hh, m))


def _taylor_series(hh, k, coeffs):
    """gamma_taylor at a lag k, or at each lag of a float array k."""
    u2 = (hh * (2.0 * hh - 1.0) * k ** (2.0 * hh - 2.0)) ** 2
    total = coeffs[0] * u2  # never -0.0: both factors are >= 0
    power = u2
    for a in coeffs[1:]:
        power = power * u2
        total = total + a * power
    return total


def k_threshold(h, m: int, eps: float, k_max: int = 100_000):
    """Least k >= 2 with |gamma_taylor - gamma_exact| / gamma_exact < eps.

    h is one H, giving an int and raising CapReached past k_max (the H -> 1
    corner needs five-digit k's), or a 1-d array of H, giving an int array
    equal to one call per H, with k_max + 1 where that call would raise
    CapReached.  Upward search against memoized gamma_exact in blocks of
    _BLOCK lags, then twice as many each time up to _MAX_BLOCK; each block
    is one gamma_exact call over every H still searching.
    """
    hs = [as_hurst(v) for v in np.atleast_1d(h).tolist()]
    for hh in hs:
        if hh in (0.5, 1.0):
            raise DomainError(
                f"relative error is undefined at H={hh} where gamma vanishes identically"
            )
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps}")
    _check_order(m)  # before searching, also for an empty grid
    found = _search(hs, [_taylor_coeffs(hh, m) for hh in hs], eps, k_max, 2, _BLOCK)
    if np.ndim(h):
        return np.array(found, dtype=int)
    if found[0] > k_max:
        raise CapReached(k_max)
    return found[0]


def _scalar_hit(hh, coeffs, lags, exact, eps):
    """The first of lags that meets the threshold rule, given their exact
    values, or None: the rule with Python's scalar pow, lag by lag."""
    for k, value in zip(lags, exact):
        if value != 0.0 and abs(_taylor_series(hh, k, coeffs) - value) / abs(value) < eps:
            return k
    return None


def _search(hs, coeffs, eps, k_max, start, size) -> list:
    """k_threshold's scan of each H in hs (with its (m,) Taylor coeffs) from
    lag start, in blocks from size on: its threshold, or k_max + 1.

    Each block is one gamma_exact call over every H still searching, and
    each H's row is decided by the scalar rule up to its first hit.
    """
    found = [k_max + 1] * len(hs)
    live = list(range(len(hs)))
    while live and start <= k_max:
        lags = list(range(start, min(start + size, k_max + 1)))
        try:
            grid = np.repeat([hs[i] for i in live], len(lags))
            rows = gamma_exact(grid, np.tile(lags, len(live))).reshape(len(live), -1).tolist()
        except NumericalError:
            if len(live) > 1:
                # Every pending H alone, in grid order: the first H that
                # fails alone raises, as in a loop of one-H calls.
                for i in live:
                    found[i] = _search([hs[i]], [coeffs[i]], eps, k_max, start, size)[0]
                return found
            # One H, lag by lag: the failing lag may lie past the threshold.
            rows = [(gamma_exact(hs[live[0]], k) for k in lags)]
        searching = []
        for i, row in zip(live, rows):
            k = _scalar_hit(hs[i], coeffs[i], lags, row, eps)
            if k is None:
                searching.append(i)
            else:
                found[i] = k
        live = searching
        start, size = start + size, min(2 * size, _MAX_BLOCK)
    return found


def _var_c(hs: list, n: int, n_tilde: list) -> list:
    """(n gamma(0) + 2 sum_{k=1}^{n-1} (n-k) gamma(k)) / n^2 for each H of hs.

    Lags below that H's n_tilde are exact, read for every H in one
    gamma_exact call; from n_tilde on the order-_TAYLOR_ORDER Taylor form.  Each value
    is bit for bit a one-H sum.
    """
    # H = 1 has no head and no tail: gamma vanishes, and so does the value
    tops = [n if hh == 1.0 else min(top, n) for hh, top in zip(hs, n_tilde)]
    counts = [0 if hh == 1.0 else max(top - 2, 0) for hh, top in zip(hs, tops)]
    starts = list(itertools.accumulate([0, *counts]))[:-1]
    ks = np.arange(sum(counts)) - np.repeat(np.subtract(starts, 2), counts)  # 2, 3, ... per H
    terms = gamma_exact(np.repeat(hs, counts), ks)
    terms *= n - ks  # (n - k) gamma(k)
    values = []
    for hh, top, start, count in zip(hs, tops, starts, counts):
        total = (n - 1) * gamma1(hh)
        # Added in lag order: np.sum adds pairwise and would move output bytes.
        for term in terms[start : start + count].tolist():
            total += term
        if top < n:
            tail = np.arange(top, n, dtype=float)
            series = _taylor_series(hh, tail, _taylor_coeffs(hh, _TAYLOR_ORDER))
            total += float(np.sum((n - tail) * series))
        values.append(0.0 if hh == 1.0 else (n * gamma0(hh) + 2.0 * total) / (n * n))
    return values


def window_count(n) -> int:
    """n as an int, refused unless it is a whole number >= 1 (64.0 is whole)."""
    # n % 1 is nonzero for a fraction, and NaN for NaN and +-inf
    if n < 1 or n % 1 != 0:
        raise DomainError(f"need a whole number n >= 1 of windows, got {n}")
    return int(n)


def var_c_exact(h, n: int) -> float:
    """Var_H(c_n) with every lag evaluated exactly; intended for n <= ~2000."""
    n = window_count(n)
    return _var_c([as_hurst(h)], n, [n])[0]


def var_c_approx(h, n: int):
    """Var_H(c_n) with the exact head / Taylor tail split at the n_tilde rule.

    n_tilde = min(k_threshold(h, _TAYLOR_ORDER, _TAYLOR_EPS), _N_TILDE_CAP,
    n); the capped search never scans lags the cap would discard anyway, and
    there is no search at H in {1/2, 1}, where gamma vanishes identically.

    h is one H, giving a float, or a 1-d array of H, giving an array equal
    bit for bit to one call per H.  One k_threshold call searches every H,
    and one gamma_exact call reads every H's exact head.
    """
    hs = [as_hurst(v) for v in np.atleast_1d(h).tolist()]
    n = window_count(n)
    cap = min(_N_TILDE_CAP, n)
    n_tilde = dict.fromkeys(hs, cap)
    searched = [hh for hh in n_tilde if hh not in (0.5, 1.0)] if n > 2 else []
    if searched:
        found = k_threshold(np.array(searched), _TAYLOR_ORDER, _TAYLOR_EPS, k_max=cap)
        n_tilde.update(zip(searched, np.minimum(found, cap).tolist()))
    values = _var_c(hs, n, [n_tilde[hh] for hh in hs])
    return values[0] if np.ndim(h) == 0 else np.array(values)


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
