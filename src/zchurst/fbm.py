"""Fractional Gaussian noise: covariance model and exact path synthesis.

The increment process of fractional Brownian motion sampled on an integer
grid is stationary Gaussian with autocovariance

    rho_H(k) = 0.5 * (|k+1|^(2H) - 2|k|^(2H) + |k-1|^(2H)),

H in (0, 1].  Synthesis embeds this covariance in a circulant matrix whose
eigenvalues come from one real FFT, cached per (H, embedding size).  Each
path scales independent standard normals by the eigenvalue square roots,
which gives the Hermitian half of a random spectrum, and one real inverse
FFT of that half is an exact draw (circulant embedding).  The embedding is
provably nonnegative definite for this covariance family, so the PSD guard
below only ever absorbs rounding noise.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import BadLength, DomainError, EmbeddingNotPSD

# Relative tolerance for clamping tiny negative embedding eigenvalues.
EPS_EIG = 1e-10


def as_hurst(h) -> float:
    """Validate and return the Hurst parameter as a plain float."""
    value = float(h)
    if not 0.0 < value <= 1.0:
        raise DomainError(f"Hurst parameter must lie in (0, 1], got {h!r}")
    return value


def rho(h, k: int) -> float:
    """Autocovariance of unit-variance fGn at lag k.

    Evaluated as the literal second difference. Downstream accuracy
    thresholds (the tabulated crossover lags) are calibrated to this exact
    floating-point form; a cancellation-robust rearrangement changes the
    last digits at large k and shifts those integers, so keep the formula
    as written.
    """
    hh = as_hurst(h)
    if k < 0:
        raise DomainError(f"lag must be nonnegative, got {k}")
    if k == 0:
        return 1.0
    a = 2.0 * hh
    return 0.5 * ((k + 1.0) ** a - 2.0 * float(k) ** a + (k - 1.0) ** a)


def _rho_spans(spans) -> tuple:
    """rho(h, k) for k = lo..hi of each (h, lo, hi) span (lo >= 1), joined,
    and the index at which each span's lag lo sits.

    Bit for bit rho: each power j^(2h) by Python's scalar pow, once for the
    lags that share it, and the second differences in numpy, whose
    subtraction, multiplication and addition round exactly as Python's do.
    Entries between two spans are not lags of either.
    """
    sizes = [hi - lo + 3 for _, lo, hi in spans]
    powers = itertools.chain.from_iterable(
        (float(j) ** (2.0 * h) for j in range(lo - 1, hi + 2)) for h, lo, hi in spans
    )
    p = np.fromiter(powers, float, sum(sizes))
    starts = list(itertools.accumulate([0, *sizes[:-1]]))
    return 0.5 * (p[2:] - 2.0 * p[1:-1] + p[:-2]), starts


@dataclass(frozen=True)
class SamplePath:
    """One synthesized path: increments Y_k and levels X_k (X_0 = 0)."""

    h_used: float
    seed: int
    increments: np.ndarray
    levels: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.increments)


def _embedding_size(n: int) -> int:
    """Smallest power of two m with m >= n - 1."""
    m = 1
    while m < n - 1:
        m *= 2
    return m


@functools.lru_cache(maxsize=64)
def _embedding_scales(h: float, m: int):
    """Precomputed spectral scale factors for the length-2m embedding.

    Returns (a0, am, amid) with the 1/sqrt(2m) FFT normalization and the
    1/sqrt(2) complex-pair split folded in, so per-path work is one normal
    draw, one scale of the half spectrum and one real inverse FFT.
    """
    r, _ = _rho_spans([(h, 1, m)])  # rho_1..rho_m, bit for bit rho
    circ = np.concatenate([[1.0], r, r[-2::-1]])  # length 2m, circulant row
    lam = np.fft.rfft(circ).real  # eigenvalues lambda_0..lambda_m
    lam_max = lam.max()
    if lam.min() < -EPS_EIG * lam_max:
        raise EmbeddingNotPSD(
            f"circulant eigenvalue {lam.min():.3e} below -{EPS_EIG:.0e} * max "
            f"for H={h}, m={m}"
        )
    lam = np.clip(lam, 0.0, None)
    two_m = 2 * m
    a0 = np.sqrt(lam[0] / two_m)
    am = np.sqrt(lam[m] / two_m)
    amid = np.sqrt(lam[1:m] / (2.0 * two_m))
    amid.setflags(write=False)
    return a0, am, amid


def _assemble(z: np.ndarray, a0: float, am: float, amid: np.ndarray, n: int) -> np.ndarray:
    """Turn standard normals (..., 2m) into fGn increments (..., n).

    The draw layout is fixed: z[..., 0] and z[..., 1] feed the two real
    spectral lines, then consecutive pairs feed the complex lines in
    frequency order.  Reproducibility of every path rests on this layout,
    so it must not change.

    Only the Hermitian half (lines 0..m) of the spectrum is built, in
    place.  The real part of the forward FFT of the full Hermitian
    spectrum equals the unscaled real inverse FFT of its conjugate half,
    so one irfft of length 2m gives the path.
    """
    two_m = z.shape[-1]
    m = two_m // 2
    half = np.empty(z.shape[:-1] + (m + 1,), dtype=complex)
    half[..., 0] = a0 * z[..., 0]
    half[..., m] = am * z[..., 1]
    mid = half[..., 1:m]
    np.multiply(amid, z[..., 2:].view(complex), out=mid)
    np.conjugate(mid, out=mid)
    return np.fft.irfft(half, n=two_m, norm="forward")[..., :n]


def _increments(hh: float, n: int, rng: np.random.Generator, lead=()) -> np.ndarray:
    """fGn increments of shape lead + (n,) from rng's standard normals.

    H = 1 is degenerate (all increments of a path equal one shared normal)
    and bypasses the FFT entirely.
    """
    if n < 2:
        raise BadLength(f"need n >= 2 increments, got {n}")
    if hh == 1.0:
        z = rng.standard_normal(lead + (1,))
        return np.broadcast_to(z, lead + (n,)).copy()
    m = _embedding_size(n)
    a0, am, amid = _embedding_scales(hh, m)
    z = rng.standard_normal(lead + (2 * m,))
    return _assemble(z, a0, am, amid, n)


_kept = threading.local()


def _keyed(seed) -> np.random.Generator:
    """The generator of Philox(key=seed) at its start, bit for bit.

    One generator per thread is re-keyed through its state for every path,
    which skips what the constructor does first: draw a fresh OS-entropy
    SeedSequence that the key then discards.
    """
    key = int(seed)
    if not 0 <= key < 1 << 128:
        raise ValueError("key must be positive and less than 2**128.")
    if not hasattr(_kept, "rng"):
        _kept.rng = np.random.Generator(np.random.Philox(key=0))
    rng = _kept.rng
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, np.uint64),
            "key": np.array([key & (1 << 64) - 1, key >> 64], np.uint64),
        },
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def synthesize(h, n: int, seed: int) -> SamplePath:
    """Draw one exact fGn/fBm path of n increments, deterministic in seed:
    the path of a Generator(Philox(key=seed))."""
    hh = as_hurst(h)
    increments = _increments(hh, n, _keyed(seed))
    levels = np.empty(n + 1)
    levels[0] = 0.0
    np.cumsum(increments, out=levels[1:])
    increments.setflags(write=False)
    levels.setflags(write=False)
    return SamplePath(h_used=hh, seed=int(seed), increments=increments, levels=levels)


def increments_block(h, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n) fGn increments sharing one generator stream.

    Batch route for Monte Carlo oracles where per-path seeds are not
    needed; campaigns derive one seed per replication instead.
    """
    return _increments(as_hurst(h), n, rng, (count,))
