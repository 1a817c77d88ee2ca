"""Seeded inputs for the benchmark, drawn without calling the package.

fGn paths come from this file's own circulant embedding (Davies and Harte),
so the estimate workload's series do not move when the package's synthesis
changes.  The Monte Carlo oracle of the tables check uses a Cholesky factor
of the exact Toeplitz covariance instead, a second route that shares nothing
with either embedding.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

# Every estimate round holds ESTIMATE_REPLICAS series of each (H, length) cell.
ESTIMATE_HURST = (0.25, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95)
ESTIMATE_LENGTHS = (256, 512, 1024, 2048, 4096, 8192)
ESTIMATE_REPLICAS = 10

# The cost of a ZC estimate near H = 0.95 turns on where its h_hat falls
# against the steep rise of k_threshold (33 lags at 0.93, 226 at 0.95, the
# 250-lag cap from 0.955).  Left to chance, that moves a round's time by
# about 10 % from seed to seed, so each H = 0.95 cell holds a fixed number
# of series per band of h_hat, as computed here from the change rate.
BANDED_HURST = 0.95
HURST_BANDS = ((0.0, 0.93, 4), (0.93, 0.955, 3), (0.955, 1.0, 3))
# Series whose increments change sign in under 1 % of windows are redrawn:
# the package cannot estimate them (see FOUND in CHANGES.md).
MIN_CHANGE_RATE = 0.01
MAX_DRAWS = 10_000
MANIFEST = "manifest.json"

# Series with one NaN; fixed, so they do not depend on the workload seed.
NAN_SEED = 7
NAN_CELLS = ((0.7, 512), (0.9, 2048))


def fgn_autocov(h: float, k: np.ndarray) -> np.ndarray:
    """Autocovariance of unit-variance fGn at integer lags k >= 0."""
    k = np.abs(np.asarray(k, dtype=float))
    a = 2.0 * h
    return 0.5 * (np.abs(k + 1.0) ** a - 2.0 * k**a + np.abs(k - 1.0) ** a)


def fgn_circulant(h: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n fGn increments by circulant embedding of size 2n.

    With lambda the eigenvalues of the circulant, W_k = sqrt(lambda_k / 2n)
    (Z_k + i Z'_k) and X = FFT(W), the real part of X[:n] has exactly the
    target covariance.
    """
    size = 2 * n
    row = fgn_autocov(h, np.arange(n + 1))
    circ = np.concatenate([row, row[-2:0:-1]])
    lam = np.fft.fft(circ).real
    if lam.min() < -1e-10 * lam.max():
        raise ValueError(f"circulant embedding not PSD for H={h}, n={n}")
    scale = np.sqrt(np.clip(lam, 0.0, None) / size)
    w = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    return np.fft.fft(w).real[:n]


def fgn_cholesky(h: float, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n) fGn increments from the Cholesky factor of the Toeplitz covariance."""
    lags = np.arange(n)
    cov = fgn_autocov(h, np.abs(lags[:, None] - lags[None, :]))
    chol = np.linalg.cholesky(cov)
    return rng.standard_normal((count, n)) @ chol.T


def levels(increments: np.ndarray) -> np.ndarray:
    """fBm levels X_0 = 0, X_k = Y_1 + ... + Y_k."""
    return np.concatenate(([0.0], np.cumsum(increments)))


def write_series(path: str, values) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{v!r}\n" for v in map(float, values)))


def sign_changes(x) -> tuple:
    """(changes, windows): sign changes of the increments, a zero counting as down."""
    up = np.diff(np.asarray(x, dtype=float)) > 0.0
    return int(np.count_nonzero(up[:-1] != up[1:])), up.size - 1


def hurst_from_rate(c: float) -> float:
    """H with change rate c: 1 + log2(cos(pi c / 2)) below 2/3, else 0."""
    if c >= 2.0 / 3.0:
        return 0.0
    return 1.0 + math.log2(math.cos(math.pi * c / 2.0))


def draw_cell(h: float, n: int, rng: np.random.Generator) -> list:
    """ESTIMATE_REPLICAS level series of one cell, band quotas filled at H = 0.95."""
    bands = HURST_BANDS if h == BANDED_HURST else ((0.0, 1.0, ESTIMATE_REPLICAS),)
    picked = [[] for _ in bands]
    for _ in range(MAX_DRAWS):
        if all(len(p) == quota for p, (_, _, quota) in zip(picked, bands)):
            # Interleave the bands so a round does not bunch its dear series.
            return [x for group in itertools.zip_longest(*picked) for x in group if x is not None]
        x = levels(fgn_circulant(h, n, rng))
        changes, windows = sign_changes(x)
        if changes < MIN_CHANGE_RATE * windows:
            continue
        h_hat = hurst_from_rate(changes / windows)
        for p, (low, high, quota) in zip(picked, bands):
            if low <= h_hat < high and len(p) < quota:
                p.append(x)
                break
    raise RuntimeError(f"no {bands} fill after {MAX_DRAWS} draws at H={h}, n={n}")


def estimate_series(seed: int, round_index: int):
    """The round's seeded series: [(true H, levels)], ESTIMATE_REPLICAS per cell."""
    rng = np.random.default_rng([seed, round_index])
    cells = {(h, n): draw_cell(h, n, rng) for h in ESTIMATE_HURST for n in ESTIMATE_LENGTHS}
    return [
        (h, cells[(h, n)][i])
        for i in range(ESTIMATE_REPLICAS)
        for h in ESTIMATE_HURST
        for n in ESTIMATE_LENGTHS
    ]


def nan_series():
    """Fixed series with one NaN in the middle: [(true H, levels)]."""
    rng = np.random.default_rng(NAN_SEED)
    out = []
    for h, n in NAN_CELLS:
        x = levels(fgn_circulant(h, n, rng))
        x[n // 2] = np.nan
        out.append((h, x))
    return out


def write_estimate_inputs(directory: str, seed: int, round_index: int) -> None:
    """Write the round's series files and a manifest of (file, true H).

    NaN series carry None as their H, which marks them as expected refusals.
    """
    os.makedirs(directory, exist_ok=True)
    cases = [(h, x, "s") for h, x in estimate_series(seed, round_index)]
    cases += [(None, x, "nan") for _, x in nan_series()]
    manifest = []
    for i, (h, x, tag) in enumerate(cases):
        name = f"{tag}{i:03d}.txt"
        write_series(os.path.join(directory, name), x)
        manifest.append({"file": name, "h": h})
    with open(os.path.join(directory, MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def read_estimate_inputs(directory: str) -> list:
    """[(path, true H or None)] in the order the round runs them."""
    with open(os.path.join(directory, MANIFEST), encoding="utf-8") as fh:
        return [(os.path.join(directory, c["file"]), c["h"]) for c in json.load(fh)]


def read_series(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([float(line) for line in fh])
