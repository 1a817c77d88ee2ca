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


# The minors and the integrand are written as ufunc calls so that each
# result can go into a workspace slot (out=...); with out=None a call
# allocates, as the plain expression would.  Either way the ufuncs and
# their order are those of the formula in the comment, so no bit moves.
_add, _sub, _mul, _div = np.add, np.subtract, np.multiply, np.divide


def _cofactors(r1, r2, r3, r4, out=(None,) * 5, tmp=None):
    """The six 2x2 cofactors that the minors of Sigma(r) share; all but the
    first, which is constant along the path, go into out where given."""
    u, v, w, x, y = out
    return (
        1.0 - r1 * r1,
        _sub(r4, _mul(r1, r2, out=u), out=u),  # r4 - r1 r2
        _sub(r2, _mul(r1, r3, out=v), out=v),  # r2 - r1 r3
        _sub(_mul(r2, r2, out=w), _mul(r4, r3, out=tmp), out=w),  # r2 r2 - r4 r3
        _sub(_mul(r4, r1, out=x), r2, out=x),  # r4 r1 - r2
        _sub(_mul(r1, r2, out=y), r3, out=y),  # r1 r2 - r3
    )


def _row_minors(r1, r2, r4, a, u, v, w, x, y, out=(None,) * 3, tmp=None):
    """|M11|, |M13|, |M14| of Sigma(r) from its cofactors."""
    o11, o13, o14 = out
    return (
        # a - r4 u + r2 x
        _add(_sub(a, _mul(r4, u, out=o11), out=o11), _mul(r2, x, out=tmp), out=o11),
        # r1 u - v + r2 w
        _add(_sub(_mul(r1, u, out=o13), v, out=o13), _mul(r2, w, out=tmp), out=o13),
        # r1 x - y + r4 w
        _add(_sub(_mul(r1, x, out=o14), y, out=o14), _mul(r4, w, out=tmp), out=o14),
    )


def _minors(r1, r2, r3, r4, ws=None):
    """|M11|, |M22|, |M13|, |M23|, |M14| of Sigma(r) from six shared 2x2
    cofactors, broadcasting: bit for bit their first-row expansions.

    With a workspace ws (see _partials) they go into its slots 3, 4, 0, 1
    and 2, through its temporary slot 5 and cofactor slots 6 to 10.
    """
    o13, o23, o14, o11, o22, tmp, *co = [None] * 11 if ws is None else ws[:11]
    a, u, v, w, x, y = c = _cofactors(r1, r2, r3, r4, co, tmp)
    det11, det13, det14 = _row_minors(r1, r2, r4, *c, (o11, o13, o14), tmp)
    # a - r2 v + r3 y
    det22 = _add(_sub(a, _mul(r2, v, out=o22), out=o22), _mul(r3, y, out=tmp), out=o22)
    # u - r1 v + r3 w
    det23 = _add(_sub(u, _mul(r1, v, out=o23), out=o23), _mul(r3, w, out=tmp), out=o23)
    return det11, det22, det13, det23, det14


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


# Workspace slots of _partials: the three arcsine arguments, which become
# the three partials (0-2), |M11| and |M22| (3, 4), a temporary (5) and the
# five cofactors that vary along the path (6-10).  _path_integral adds the
# three path correlations t*r2, t*r3, t*r4 (11-13).
_PARTIAL_SLOTS = 11
_SLOTS = 14


def _partials(r1, r2, r3, r4, ws=None):
    """The three Plackett partial derivatives, broadcasting over arrays.

    d/dr2 carries a doubled weight because r2 occupies two symmetric entry
    pairs of Sigma ((1,3) and (2,4)); r3 and r4 occupy one pair each.

    Every step writes into the workspace ws, of 11 or more (*shape) slots,
    fresh if not given (shape (1,) for four scalars); the partials are its
    first three slots.
    """
    if ws is None:
        shape = np.broadcast_shapes(*(np.shape(v) for v in (r1, r2, r3, r4))) or (1,)
        ws = np.empty((_PARTIAL_SLOTS, *shape))
    det11, det22, det13, det23, det14 = _minors(r1, r2, r3, r4, ws)
    tmp = ws[5]
    # the arcsine arguments det13 / sqrt(det11 det22), det23 / det22, det14 / det11
    _div(det13, np.sqrt(_mul(det11, det22, out=tmp), out=tmp), out=det13)
    _div(det23, det22, out=det23)
    _div(det14, det11, out=det14)
    args = ws[:3]
    _clamped_arcsin(args, out=args)  # one clamp check for the three
    pi = math.pi
    # d2 = (1/4 - a2 / (2 pi)) / (pi sqrt(1 - r2 r2)); d3 and d4 add a / (2 pi)
    # and divide by 2 pi sqrt(1 - r r)
    for d, r, sign, scale in zip(args, (r2, r3, r4), (_sub, _add, _add), (pi, 2 * pi, 2 * pi)):
        sign(0.25, _div(d, 2.0 * pi, out=d), out=d)
        root = np.sqrt(_sub(1.0, _mul(r, r, out=tmp), out=tmp), out=tmp)
        _div(d, _mul(scale, root, out=tmp), out=d)
    return tuple(args)


# Doubles per workspace slot: one first pass of _CHUNK rows at the default
# 32 + 64 joined nodes, 48 kB, so the 14 slots take 672 kB.  A pass with
# more nodes takes fewer rows at a time (6 at 1 024 nodes).  A pass of more
# than _SLOT_SIZE nodes, which the last doublings reach once q.nodes is
# above 192, takes one row at a time through a fresh buffer, one per call.
_SLOT_SIZE = 64 * 96


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
    t, weights = _nodes01(*counts)
    size = t.size
    step = max(1, _SLOT_SIZE // size)
    flat = _workspace() if size <= _SLOT_SIZE else np.empty(_SLOTS * size)
    ends = list(itertools.accumulate(counts))
    out = [np.empty(len(rows)) for _ in counts]
    for at in range(0, len(rows), step):
        part = rows[at : at + step]
        ws = flat[: _SLOTS * len(part) * size].reshape(_SLOTS, len(part), size)
        r1, r2, r3, r4 = part.T[:, :, None]
        path = [_mul(t, v, out=slot) for v, slot in zip((r2, r3, r4), ws[11:])]
        d2, d3, d4 = _partials(r1, *path, ws)
        # r2 d2 + r3 d3 + r4 d4, through the slot of t*r2, no longer needed
        f = _add(_mul(r2, d2, out=d2), _mul(r3, d3, out=path[0]), out=d2)
        f = _add(f, _mul(r4, d4, out=path[0]), out=d2)
        # vecdot takes the same 1-d dot per row as w @ row; a 2-d gemv would
        # sum in another order (last bits move).
        for res, w, end in zip(out, weights, ends):
            np.vecdot(f[:, end - w.size : end], w, out=res[at : at + step])
    return out


# Hard ceiling on node-doubling refinement, as a multiple of q.nodes.
_MAX_REFINE = 32

# Rows per _refined call: its first pass, at the default 32 + 64 nodes,
# fills each workspace slot once; later passes, with more nodes, take fewer
# rows at a time.
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
