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
import threading
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


def _cofactors(rows: np.ndarray):
    """r1, r2, r3, r4 of (R, 4) rows and the six 2x2 cofactors a, u, v, w,
    x, y that the 3x3 minors of Sigma(r) share."""
    r1, r2, r3, r4 = rows.T
    return (
        r1,
        r2,
        r3,
        r4,
        1.0 - r1 * r1,
        r4 - r1 * r2,
        r2 - r1 * r3,
        r2 * r2 - r4 * r3,
        r4 * r1 - r2,
        r1 * r2 - r3,
    )


def _leading_minors(rows: np.ndarray) -> np.ndarray:
    """The (R, 3) leading principal minors of Sigma for (R, 4) rows; of the
    3x3 minors only the three of the first row are formed."""
    r1, r2, r3, r4, a, u, v, w, x, y = _cofactors(rows)
    det11 = a - r4 * u + r2 * x
    det13 = r1 * u - v + r2 * w
    det14 = r1 * x - y + r4 * w
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


def _clamped_arcsin(arg: np.ndarray, out=None) -> np.ndarray:
    top = float(np.maximum.reduce(arg, axis=None, initial=0.0))
    excess = max(top, -float(np.minimum.reduce(arg, axis=None, initial=0.0))) - 1.0
    if excess > _ARCSIN_SLACK:
        raise NotPositiveDefinite(
            f"arcsin argument {1.0 + excess:.17g} outside [-1, 1]: "
            "path left the positive definite region"
        )
    if not excess <= 0.0:  # also when a NaN hides the extremes
        arg = np.clip(arg, -1.0, 1.0, out=out)
    return np.arcsin(arg, out=out)


# r d/dr of the orthant probability, for r = r2, r3, r4 in turn, is
# (k + g arcsin) / sqrt(1 - r r), the arcsine of a partial correlation, with
# k and g r times these constants.  d/dr2 carries a doubled weight
# because r2 occupies two symmetric entry pairs of Sigma ((1,3) and (2,4));
# r3 and r4 occupy one pair each.
_TERM_CONST = np.array([[1.0 / (4.0 * math.pi)], [1.0 / (8.0 * math.pi)], [1.0 / (8.0 * math.pi)]])
_TERM_SLOPE = np.array([[-0.5], [0.25], [0.25]]) / math.pi**2


def _path_coeffs(rows: np.ndarray) -> tuple:
    """Per-row coefficients of the integrand along t -> (r1, t r2, t r3, t r4),
    each (..., R, 1) to broadcast against the nodes.

    Along the path the cofactors u, v, x, y scale with t and w with t^2, so
    |M22|, |M11| = a + t^2 m and |M13|, |M23|, |M14| = t (c + t^2 s), with
    a, u, v, w, x, y those of the row (t = 1).  Each Plackett term is
    (k + g arcsin) / sqrt(1 - t^2 q) with q = r^2.
    """
    r1, r2, r3, r4, a, u, v, w, x, y = _cofactors(rows)
    r = rows.T[1:]
    m = np.array([r3 * y - r2 * v, r2 * x - r4 * u])
    c = np.array([r1 * u - v, u - r1 * v, r1 * x - y])
    k, g = r * _TERM_CONST, r * _TERM_SLOPE
    return tuple(coeff[..., None] for coeff in (a, m, c, r * w, r * r, k, g))


def _path_terms(coeffs, t, tt, ws) -> np.ndarray:
    """The three Plackett terms r d/dr at nodes t (tt = t t) of the path, for
    coefficients of _path_coeffs: a (3, R, N) view of the (6, R, N) ws.

    Every step writes into ws: the numerators of the three arcsine arguments
    go into slots 0-2, which end up holding the terms, and their
    denominators sqrt(|M11| |M22|), |M22|, |M11| into slots 3-5, which then
    hold the square roots sqrt(1 - t^2 r^2).
    """
    a, m, c, s, q, k, g = coeffs
    mul, add = np.multiply, np.add
    num, den = ws[:3], ws[3:6]
    mul(t, add(c, mul(tt, s, out=num), out=num), out=num)
    add(a, mul(tt, m, out=den[1:]), out=den[1:])
    np.sqrt(mul(den[1], den[2], out=den[0]), out=den[0])
    args = np.divide(num, den, out=num)
    _clamped_arcsin(args, out=args)  # one clamp check for the three
    root = np.sqrt(np.subtract(1.0, mul(tt, q, out=den), out=den), out=den)
    return np.divide(add(k, mul(g, args, out=args), out=args), root, out=args)


# Doubles per workspace slot: one first pass of _CHUNK rows at the joined
# 32 + 64 nodes, 48 kB, so the 6 slots take 288 kB.  A pass with more nodes
# takes fewer rows at a time; every pass fits, the last doubling's 1 024
# nodes at 6 rows.
_SLOT_SIZE = 64 * 96
_SLOTS = 6


_kept = threading.local()


def _workspace() -> np.ndarray:
    """The (rows, nodes) buffers of _path_integral, kept across calls so
    its temporaries are not handed back to the allocator (and to the OS)
    and faulted in again on every pass.  Made on first use, one per thread."""
    if not hasattr(_kept, "workspace"):
        _kept.workspace = np.empty(_SLOTS * _SLOT_SIZE)
    return _kept.workspace


def _path_integral(r, *counts) -> list:
    """Path integral of each row of r ((R, 4), or one 4-tuple), one (R,) array
    per Gauss-Legendre node count, from one integrand pass over the joined
    nodes: each node's integrand is elementwise, so joining moves no bit.

    Rows go through the integrand as many at a time as the workspace
    holds; as every step is elementwise per row, that moves no bit either.
    """
    rows = np.atleast_2d(r)
    coeffs = _path_coeffs(rows)
    t, weights = _nodes01(*counts)
    tt = t * t
    size = t.size
    step = max(1, _SLOT_SIZE // size)
    flat = _workspace()
    ends = list(itertools.accumulate(counts))
    out = [np.empty(len(rows)) for _ in counts]
    for at in range(0, len(rows), step):
        part = [coeff[..., at : at + step, :] for coeff in coeffs]
        ws = flat[: _SLOTS * len(part[0]) * size].reshape(_SLOTS, len(part[0]), size)
        terms = _path_terms(part, t, tt, ws)
        f = np.add(np.add(terms[0], terms[1], out=ws[3]), terms[2], out=ws[3])
        # vecdot takes the same 1-d dot per row as w @ row; a 2-d gemv would
        # sum in another order (last bits move).
        for res, w, end in zip(out, weights, ends):
            np.vecdot(f[:, end - w.size : end], w, out=res[at : at + step])
    return out


# The quadrature's one rule: Gauss-Legendre from _NODES nodes, doubled until
# one doubling moves a row by at most _ABS_TOL, up to _NODES * _MAX_REFINE
# nodes.  Read at call time.
_NODES = 32
_ABS_TOL = 1e-9
_MAX_REFINE = 32

# Rows per _refined call: its first pass, at the joined 32 + 64 nodes,
# fills each workspace slot once; later passes, with more nodes, take fewer
# rows at a time.
_CHUNK = 64


def orthant4_excess(s):
    """orthant4(s) minus the decoupled baseline orthant2(r1)^2.

    This is the path integral itself, exposed separately because callers
    that difference orthant values against the same baseline (lagged-
    indicator covariances) would otherwise add a ~0.1-sized start term and
    subtract it again, losing up to ~1e-16 absolute to rounding, which
    dominates once the covariance is below ~1e-12.

    s is an OrthantSpec4 (or its four correlations), giving a float, or an
    (R, 4) array of rows, giving an (R,) array equal bit for bit to one call
    per row; a batch raises the error of its lowest failing row.

    Each row starts at _NODES and doubles until one doubling moves it by
    at most _ABS_TOL (the usual case is the first check: well-conditioned
    Sigma converges at 32->64, both rules taken in one integrand pass);
    near-singular Sigma gets more nodes, one new rule per doubling, and
    QuadratureNotConverged means even _NODES*_MAX_REFINE disagreed.
    """
    if isinstance(s, OrthantSpec4) or np.ndim(s) == 1:
        spec = s if isinstance(s, OrthantSpec4) else OrthantSpec4(tuple(s))
        return float(_refined(np.array([spec.r]))[0])
    rows = np.asarray(s, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise DomainError(f"need (R, 4) correlation rows, got shape {rows.shape}")
    if np.all(np.abs(rows) <= 1.0) and np.all(_leading_minors(rows) > PD_TOL):
        with contextlib.suppress(NumericalError):  # then row by row: the lowest failing row raises
            return _refined(rows)
    return np.array([orthant4_excess(row) for row in rows.tolist()])


def _refined(rows: np.ndarray) -> np.ndarray:
    """Node doubling per row of valid (R, 4) rows; converged rows drop out."""
    if len(rows) > _CHUNK:  # in order, so the first chunk to fail holds the lowest failing row
        starts = range(0, len(rows), _CHUNK)
        return np.concatenate([_refined(rows[i : i + _CHUNK]) for i in starts])
    out = np.empty(len(rows))
    live = np.arange(len(rows))
    start, tol = _NODES, _ABS_TOL
    nodes = start
    coarse, fine = _path_integral(rows, nodes, 2 * nodes)
    while live.size and nodes <= start * _MAX_REFINE // 2:
        if nodes > start:
            (fine,) = _path_integral(rows[live], 2 * nodes)
        moved = np.abs(fine - coarse)
        done = moved <= tol
        out[live[done]] = fine[done]
        live, coarse, moved = live[~done], fine[~done], moved[~done]
        nodes *= 2
    if live.size:
        raise QuadratureNotConverged(
            f"the last node doubling ({nodes // 2} -> {nodes}) moved orthant4 by "
            f"{moved[0]:.3e} > {tol:.3e} at r={tuple(rows[live[0]].tolist())}"
        )
    return out


def orthant4(s: OrthantSpec4) -> float:
    """Orthant probability of Sigma(r) by path integration from orthant2(r1)^2."""
    if not isinstance(s, OrthantSpec4):
        s = OrthantSpec4(tuple(s))
    return orthant2(s.r[0]) ** 2 + orthant4_excess(s)


def orthant4_mc(s: OrthantSpec4, draws: int, seed: int):
    """Monte Carlo orthant probability with binomial standard error.

    Brute-force oracle: Cholesky-transform standard normals and count the
    all-positive draws.  Deterministic given the seed.
    """
    if not isinstance(s, OrthantSpec4):
        s = OrthantSpec4(tuple(s))
    if draws < 1 or draws % 1 != 0:  # v % 1 is NaN for NaN and +-inf
        raise DomainError(f"need a whole number >= 1 of draws, got {draws}")
    chol = np.linalg.cholesky(s.matrix)
    rng = np.random.Generator(np.random.Philox(key=seed))
    hits = 0
    remaining = int(draws)
    while remaining > 0:
        chunk = min(remaining, _MC_CHUNK)
        z = rng.standard_normal((chunk, 4))
        # a C-contiguous (chunk, 4) bool row is four bytes, all 1 when positive
        positive = z @ chol.T > 0.0
        hits += int(np.count_nonzero(positive.view(np.uint32) == 0x01010101))
        remaining -= chunk
    p = hits / draws
    se = math.sqrt(max(p * (1.0 - p), 1.0 / draws) / draws)
    return p, se
