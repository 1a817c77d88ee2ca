"""Gaussian orthant probabilities for the structured 4x4 correlation family.

Dimension 2 has an arcsine closed form.  The 4-dim case needed here has the
four-parameter matrix

    Sigma(r) = [[1,  r1, r2, r3],
                [r1, 1,  r4, r2],
                [r2, r4, 1,  r1],
                [r3, r2, r1, 1]],

whose orthant probability is evaluated by integrating the derivative of the
probability along the straight path t -> (r1, t*r2, t*r3, t*r4): at t=0 the
(1,2) and (3,4) blocks decouple and the value is orthant2(r1)^2; the three
partial derivatives along the way reduce to bivariate quantities (Plackett's
reduction), leaving one smooth 1-dim integral done by Gauss-Legendre.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCorrelation,
    DomainError,
    NotPositiveDefinite,
    NumericalError,
    QuadratureNotConverged,
)

# Strict positive definiteness margin for leading principal minors.
PD_TOL = 1e-12

# Rounding slack for arcsin arguments; anything further outside [-1,1]
# means the path left the positive definite region.
_ARCSIN_SLACK = 1e-12

_MC_CHUNK = 1 << 19


# Sigma(r) as indices into (1, r1, r2, r3, r4); see the module docstring.
_SIGMA_IDX = np.array([[0, 1, 2, 3], [1, 0, 4, 2], [2, 4, 0, 1], [3, 2, 1, 0]])


def _sigma(r1, r2, r3, r4) -> np.ndarray:
    """Sigma(r) as an array, broadcasting over array-valued parameters."""
    return np.stack(np.broadcast_arrays(1.0, r1, r2, r3, r4), axis=-1)[..., _SIGMA_IDX]


def _cofactors(r1, r2, r3, r4):
    """The six 2x2 cofactors that the minors of Sigma(r) share."""
    return (
        1.0 - r1 * r1,
        r4 - r1 * r2,
        r2 - r1 * r3,
        r2 * r2 - r4 * r3,
        r4 * r1 - r2,
        r1 * r2 - r3,
    )


def _row_minors(r1, r2, r4, a, u, v, w, x, y):
    """|M11|, |M13|, |M14| of Sigma(r) from its cofactors."""
    return a - r4 * u + r2 * x, r1 * u - v + r2 * w, r1 * x - y + r4 * w


def _minors(r1, r2, r3, r4):
    """|M11|, |M22|, |M13|, |M23|, |M14| of Sigma(r) from six shared 2x2
    cofactors, broadcasting: bit for bit their first-row expansions."""
    a, u, v, w, x, y = c = _cofactors(r1, r2, r3, r4)
    det11, det13, det14 = _row_minors(r1, r2, r4, *c)
    return det11, a - r2 * v + r3 * y, det13, u - r1 * v + r3 * w, det14


def _leading_minors(rows: np.ndarray) -> np.ndarray:
    """The (R, 3) leading principal minors of Sigma for (R, 4) rows; of the
    3x3 minors only the three of the first row are formed."""
    r1, r2, r3, r4 = rows.T
    a, u, v, w, x, y = c = _cofactors(r1, r2, r3, r4)
    det11, det13, det14 = _row_minors(r1, r2, r4, *c)
    det3 = 1.0 - r4 * r4 - r1 * (r1 - r4 * r2) + r2 * x
    det12 = r1 * a - r4 * v + r2 * y
    det4 = det11 - r1 * det12 + r2 * det13 - r3 * det14
    return np.stack([a, det3, det4], axis=1)


@dataclass(frozen=True)
class OrthantSpec4:
    """A point r = (r1, r2, r3, r4) with Sigma(r) strictly positive definite."""

    r: tuple

    def __post_init__(self):
        r = tuple(float(v) for v in self.r)
        if len(r) != 4:
            raise DomainError(f"need exactly 4 correlations, got {len(r)}")
        if any(not abs(v) <= 1.0 for v in r):
            raise DomainError(f"correlations must lie in [-1, 1], got {r}")
        object.__setattr__(self, "r", r)
        minors = tuple(_leading_minors(np.array([r]))[0].tolist())
        if min(minors) <= PD_TOL:
            raise NotPositiveDefinite(
                f"Sigma(r) is not strictly positive definite for r={r} "
                f"(leading minors {minors})"
            )

    @property
    def matrix(self) -> np.ndarray:
        return _sigma(*self.r)


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre settings for the path integral on [0, 1]."""

    nodes: int = 32
    abs_tol: float = 1e-9

    def __post_init__(self):
        if self.nodes < 4:
            raise DomainError(f"need at least 4 quadrature nodes, got {self.nodes}")
        if not self.abs_tol > 0:
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")


DEFAULT_QUADRATURE = QuadratureConfig()


def _gauss_legendre01(n: int):
    """The n-node Gauss-Legendre rule on [0, 1]: ascending nodes, weights.

    Newton's method on the Legendre three-term recurrence, with no linear
    algebra.  Each root x >= 0 of P_n is found as y = 1 - x, with P_n
    advanced through its differences P_j - P_{j-1}, so y keeps its relative
    accuracy next to the end point; the roots x < 0 mirror them.  Against
    40-digit rules the nodes on [0, 1] are within 4 ulp and the weights
    within 6e-15 relative for 32 to 256 nodes.
    """
    half = (n + 1) // 2
    theta = math.pi * (np.arange(half) + 0.75) / (n + 0.5)
    # Tricomi's root estimates, as y = 1 - x
    y = 2.0 * np.sin(0.5 * theta) ** 2 + (n - 1.0) / (8.0 * n**3) * np.cos(theta)
    j = np.arange(1.0, n)
    coeffs = list(zip((j / (j + 1.0)).tolist(), ((2.0 * j + 1.0) / (j + 1.0)).tolist()))
    settled = False
    while True:  # quadratic convergence: four passes from 4 to 1 024 nodes
        p_prev, p, dp = 1.0, 1.0 - y, -y  # P_0, P_1, P_1 - P_0
        for a, b in coeffs:
            dp = a * dp - b * (y * p)
            p_prev, p = p, p + dp
        slope = n * (p_prev - (1.0 - y) * p)  # (1 - x^2) P_n'(x)
        step = p * y * (2.0 - y) / slope
        y = y + step
        if settled:  # this last step only refreshed slope for the weights
            break
        settled = bool(np.all(np.abs(step) <= 1e-10 * y))
    w = y * (2.0 - y) / slope**2
    up = n // 2  # for odd n the middle root x = 0 is not mirrored
    nodes = np.concatenate([0.5 * y, (1.0 - 0.5 * y[:up])[::-1]])
    return nodes, np.concatenate([w, w[:up][::-1]])


@functools.lru_cache(maxsize=32)
def _nodes01(*counts: int):
    """Gauss-Legendre nodes on [0, 1] of each node count, joined, and the
    weights of each rule."""
    rules = [_gauss_legendre01(count) for count in counts]
    return np.concatenate([t for t, _ in rules]), tuple(w for _, w in rules)


def orthant2(rho12: float) -> float:
    """P(Z1 > 0, Z2 > 0) for correlation rho12: 1/4 + arcsin(rho12)/(2 pi)."""
    if not abs(rho12) < 1.0:  # also NaN
        raise DegenerateCorrelation(f"|rho| must be < 1, got {rho12}")
    return 0.25 + math.asin(rho12) / (2.0 * math.pi)


def _clamped_arcsin(arg: np.ndarray) -> np.ndarray:
    excess = max(float(np.max(arg, initial=0.0)), -float(np.min(arg, initial=0.0))) - 1.0
    if excess > _ARCSIN_SLACK:
        raise NotPositiveDefinite(
            f"arcsin argument {1.0 + excess:.17g} outside [-1, 1]: "
            "path left the positive definite region"
        )
    if not excess <= 0.0:  # also when a NaN hides the extremes
        arg = np.clip(arg, -1.0, 1.0)
    return np.arcsin(arg)


def _partials(r1, r2, r3, r4):
    """The three Plackett partial derivatives, broadcasting over arrays.

    d/dr2 carries a doubled weight because r2 occupies two symmetric entry
    pairs of Sigma ((1,3) and (2,4)); r3 and r4 occupy one pair each.
    """
    det11, det22, det13, det23, det14 = _minors(r1, r2, r3, r4)
    pi = math.pi
    # one clamp check for the three arcsine arguments
    args = np.stack([det13 / np.sqrt(det11 * det22), det23 / det22, det14 / det11])
    a2, a3, a4 = _clamped_arcsin(args)
    d2 = (0.25 - a2 / (2.0 * pi)) / (pi * np.sqrt(1.0 - r2 * r2))
    d3 = (0.25 + a3 / (2.0 * pi)) / (2.0 * pi * np.sqrt(1.0 - r3 * r3))
    d4 = (0.25 + a4 / (2.0 * pi)) / (2.0 * pi * np.sqrt(1.0 - r4 * r4))
    return d2, d3, d4


def _path_integral(r, *counts) -> list:
    """Path integral of each row of r ((R, 4), or one 4-tuple), one (R,) array
    per Gauss-Legendre node count, from one integrand pass over the joined
    nodes: each node's integrand is elementwise, so joining moves no bit."""
    r1, r2, r3, r4 = np.atleast_2d(r).T[:, :, None]
    t, weights = _nodes01(*counts)
    d2, d3, d4 = _partials(r1, t * r2, t * r3, t * r4)
    f = r2 * d2 + r3 * d3 + r4 * d4
    # vecdot takes the same 1-d dot per row as w @ row; a 2-d gemv would
    # sum in another order (last bits move).
    ends = itertools.accumulate(counts)
    return [np.vecdot(f[:, end - w.size : end], w) for w, end in zip(weights, ends)]


# Hard ceiling on node-doubling refinement, as a multiple of q.nodes.
_MAX_REFINE = 32

# Rows per _refined pass, so memory is flat in R: a (rows, 96 nodes) array
# of the joined first pass is 48 kB.  On 16 000 gamma rows, passes of 64 rows
# took about 7 us per row and 400 page faults per call; passes of 256 took
# 10 us and 52 000 faults, their temporaries handed back to the OS and
# faulted in again on every pass.  32 rows took 8 us, 16 rows 10 to 15 us.
_CHUNK = 64


def orthant4_excess(s, q: QuadratureConfig = DEFAULT_QUADRATURE):
    """orthant4(s) minus the decoupled baseline orthant2(r1)^2.

    This is the path integral itself, exposed separately because callers
    that difference orthant values against the same baseline (lagged-
    indicator covariances) would otherwise add a ~0.1-sized start term and
    subtract it again, losing up to ~1e-16 absolute to rounding, which
    dominates once the covariance is below ~1e-12.

    s is an OrthantSpec4 (or its four correlations), giving a float, or an
    (R, 4) array of rows, giving an (R,) array equal bit for bit to one call
    per row; a batch raises the error of its lowest failing row.

    Each row starts at q.nodes and doubles until one doubling moves it by
    at most q.abs_tol (the usual case is the first check: well-conditioned
    Sigma converges at 32->64, both rules taken in one integrand pass);
    near-singular Sigma gets more nodes, one new rule per doubling, and
    QuadratureNotConverged means even q.nodes*_MAX_REFINE disagreed.
    """
    if isinstance(s, OrthantSpec4) or np.ndim(s) == 1:
        spec = s if isinstance(s, OrthantSpec4) else OrthantSpec4(tuple(s))
        return float(_refined(np.array([spec.r]), q)[0])
    rows = np.asarray(s, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise DomainError(f"need (R, 4) correlation rows, got shape {rows.shape}")
    if np.all(np.abs(rows) <= 1.0) and np.all(_leading_minors(rows) > PD_TOL):
        with contextlib.suppress(NumericalError):  # then row by row: the lowest failing row raises
            return _refined(rows, q)
    return np.array([orthant4_excess(row, q) for row in rows.tolist()])


def _refined(rows: np.ndarray, q: QuadratureConfig) -> np.ndarray:
    """Node doubling per row of valid (R, 4) rows; converged rows drop out."""
    if len(rows) > _CHUNK:  # in order, so the first chunk to fail holds the lowest failing row
        starts = range(0, len(rows), _CHUNK)
        return np.concatenate([_refined(rows[i : i + _CHUNK], q) for i in starts])
    out = np.empty(len(rows))
    live = np.arange(len(rows))
    nodes = q.nodes
    coarse, fine = _path_integral(rows, nodes, 2 * nodes)
    while live.size and nodes <= q.nodes * _MAX_REFINE // 2:
        if nodes > q.nodes:
            (fine,) = _path_integral(rows[live], 2 * nodes)
        moved = np.abs(fine - coarse)
        done = moved <= q.abs_tol
        out[live[done]] = fine[done]
        live, coarse, moved = live[~done], fine[~done], moved[~done]
        nodes *= 2
    if live.size:
        raise QuadratureNotConverged(
            f"the last node doubling ({nodes // 2} -> {nodes}) moved orthant4 by "
            f"{moved[0]:.3e} > {q.abs_tol:.3e} at r={tuple(rows[live[0]].tolist())}"
        )
    return out


def orthant4(s: OrthantSpec4, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Orthant probability of Sigma(r) by path integration from orthant2(r1)^2."""
    if not isinstance(s, OrthantSpec4):
        s = OrthantSpec4(tuple(s))
    return orthant2(s.r[0]) ** 2 + orthant4_excess(s, q)


def orthant4_mc(s: OrthantSpec4, draws: int, seed: int):
    """Monte Carlo orthant probability with binomial standard error.

    Brute-force oracle: Cholesky-transform standard normals and count the
    all-positive draws.  Deterministic given the seed.
    """
    if not isinstance(s, OrthantSpec4):
        s = OrthantSpec4(tuple(s))
    if draws < 1:
        raise DomainError(f"need at least 1 draw, got {draws}")
    chol = np.linalg.cholesky(s.matrix)
    rng = np.random.Generator(np.random.Philox(key=seed))
    hits = 0
    remaining = int(draws)
    while remaining > 0:
        chunk = min(remaining, _MC_CHUNK)
        z = rng.standard_normal((chunk, 4))
        hits += int(np.count_nonzero((z @ chol.T > 0.0).all(axis=1)))
        remaining -= chunk
    p = hits / draws
    se = math.sqrt(max(p * (1.0 - p), 1.0 / draws) / draws)
    return p, se
