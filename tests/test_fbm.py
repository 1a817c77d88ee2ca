"""Synthesis and covariance-model tests.

The frozen draws at the bottom pin both the exact RNG consumption order of
the synthesizer and its FFT route: campaign reproducibility depends on
paths being bit-identical across releases (for a fixed numpy build), so any
refactor that changes how normals are drawn, or how the spectrum is
transformed, must show up here.  The full-spectrum oracle below separates
the two: a new FFT route moves paths by rounding only, a new layout by O(1).
"""

import concurrent.futures
import sys

import numpy as np
import pytest

from zchurst import (
    BadLength,
    DomainError,
    EmbeddingNotPSD,
    as_hurst,
    rho,
    synthesize,
)
from zchurst import fbm
from zchurst.fbm import (
    _assemble,
    _embedding_scales,
    _embedding_size,
    _increments,
    _rho_spans,
    increments_block,
)

H_GRID = [round(0.05 * i, 2) for i in range(1, 21)]


def test_as_hurst_domain():
    assert as_hurst(1.0) == 1.0
    assert as_hurst(1e-9) == 1e-9
    for bad in (0.0, -0.3, 1.0000001, 2.0, float("nan")):
        with pytest.raises(DomainError):
            as_hurst(bad)


def test_rho_anchor_values():
    for h in H_GRID:
        assert rho(h, 0) == 1.0
        assert abs(rho(h, 1) - (2.0 ** (2.0 * h - 1.0) - 1.0)) <= 1e-15
    # independence point: increments are white noise
    for k in range(1, 50):
        assert rho(0.5, k) == 0.0
    # persistent paths correlate positively, antipersistent negatively
    for k in (1, 2, 10, 100):
        assert rho(0.8, k) > 0.0
        assert rho(0.2, k) < 0.0
    with pytest.raises(DomainError):
        rho(0.7, -1)


def test_embedding_covariance_is_the_scalar_rho(monkeypatch):
    # paths are drawn from fbm.rho bit for bit: the row the embedding
    # transforms is rho_0..rho_m, then rho_{m-1}..rho_1
    rows = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda a: rows.append(a.copy()) or rfft(a))
    cases = [(0.55, 128), (0.95, 128), (0.05, 1), (0.3, 2), (0.75, 1024), (0.999, 4096)]
    _embedding_scales.cache_clear()
    try:
        for h, m in cases:
            _embedding_scales(h, m)
    finally:
        _embedding_scales.cache_clear()
    for (h, m), circ in zip(cases, rows, strict=True):
        want = [rho(h, k) for k in range(m + 1)]
        assert circ.tobytes() == np.array(want + want[-2:0:-1]).tobytes(), (h, m)


def test_embedding_guard_raises_and_clamps(monkeypatch):
    # every off-diagonal lag at 1 + d puts lambda_0 near 2m and every other
    # eigenvalue at -d; EPS_EIG * 2m = 1.6e-9 lies between the two d, so
    # the first raises and the second is clamped to zero
    m = 8
    for d, raises in ((1e-6, True), (1e-13, False)):
        monkeypatch.setattr(fbm, "_rho_spans", lambda spans: (np.full(m, 1.0 + d), [0]))
        _embedding_scales.cache_clear()
        try:
            if raises:
                with pytest.raises(EmbeddingNotPSD):
                    _embedding_scales(0.7, m)
            else:
                a0, am, amid = _embedding_scales(0.7, m)
                assert a0 > 0.0 and am == 0.0 and not amid.any()
        finally:
            _embedding_scales.cache_clear()


def test_rho_asymptotic_ratio():
    # the tail follows the power law H(2H-1)k^(2H-2)
    k = 1000
    for h in (0.1, 0.3, 0.7, 0.9):
        assert abs(rho(h, k) / (h * (2.0 * h - 1.0) * k ** (2.0 * h - 2.0)) - 1.0) <= 1e-4


def test_synthesize_shapes_and_levels():
    path = synthesize(0.7, 64, seed=5)
    assert path.increments.shape == (64,)
    assert path.levels.shape == (65,)
    assert path.levels[0] == 0.0
    np.testing.assert_allclose(np.diff(path.levels), path.increments, rtol=0, atol=1e-12)
    assert path.h_used == 0.7
    assert path.seed == 5
    for bad_n in (-1, 0, 1):
        with pytest.raises(BadLength):
            synthesize(0.7, bad_n, seed=1)


def test_synthesize_deterministic_per_seed():
    a = synthesize(0.62, 128, seed=901)
    b = synthesize(0.62, 128, seed=901)
    c = synthesize(0.62, 128, seed=902)
    np.testing.assert_array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)


def test_embedding_psd_across_grid():
    # the circulant embedding is nonnegative definite for this covariance
    # family; the clamp must never be asked to hide a real violation, so
    # synthesis has to succeed for every order and length in this sweep
    for h in H_GRID:
        for n in (2, 3, 4, 5, 9, 16, 17, 33, 64, 65):
            path = synthesize(h, n, seed=3)
            assert np.all(np.isfinite(path.increments))


def test_pooled_moments_match_model():
    # pooled across paths, the increments must look like the stationary
    # Gaussian model: unit variance and the model lag-1 correlation
    for h, seed0 in ((0.2, 100), (0.5, 400), (0.8, 700)):
        paths = [synthesize(h, 256, seed=seed0 + i).increments for i in range(200)]
        y = np.stack(paths)
        assert abs(y.mean()) < 0.02
        assert abs(y.var() - 1.0) < 0.05
        lag1 = np.mean(y[:, :-1] * y[:, 1:])
        assert abs(lag1 - rho(h, 1)) < 0.02


def test_unit_hurst_paths_are_straight_lines():
    path = synthesize(1.0, 50, seed=11)
    np.testing.assert_array_equal(path.increments, np.full(50, path.increments[0]))
    # across seeds the shared increment is standard normal
    draws = np.array([synthesize(1.0, 4, seed=i).increments[0] for i in range(400)])
    assert abs(draws.mean()) < 0.2
    assert abs(draws.var() - 1.0) < 0.25


def test_increments_block_shape_and_determinism():
    rng1 = np.random.Generator(np.random.Philox(key=5))
    rng2 = np.random.Generator(np.random.Philox(key=5))
    a = increments_block(0.7, 100, 200, rng1)
    b = increments_block(0.7, 100, 200, rng2)
    assert a.shape == (200, 100)
    np.testing.assert_array_equal(a, b)
    # correlated samples, so the variance tolerance stays loose
    assert abs(a.var() - 1.0) < 0.1
    with pytest.raises(BadLength):
        increments_block(0.7, 1, 4, rng1)


FROZEN_DRAWS = {
    (0.7, 8, 42): (
        0.24228376454865869,
        -0.033801704446373426,
        0.45816684817696374,
        -1.48134331854054,
        -0.9849929940284905,
        -0.71181478327220804,
        -0.23274404802965393,
        -1.005622327966923,
    ),
    (0.3, 5, 7): (
        0.64237115038563353,
        -0.63848002698468764,
        -0.97465006030172174,
        -0.22778045645113409,
        0.83157983157703663,
    ),
    (1.0, 4, 9): (
        0.32787239336687529,
        0.32787239336687529,
        0.32787239336687529,
        0.32787239336687529,
    ),
}


def test_draw_layout_frozen():
    for (h, n, seed), expected in FROZEN_DRAWS.items():
        got = synthesize(h, n, seed).increments
        np.testing.assert_array_equal(got, np.array(expected))


def _full_spectrum_assemble(z, a0, am, amid, n):
    """Reference kernel: the whole Hermitian spectrum and a complex FFT."""
    two_m = z.shape[-1]
    m = two_m // 2
    spec = np.empty(z.shape[:-1] + (two_m,), dtype=complex)
    spec[..., 0] = a0 * z[..., 0]
    spec[..., m] = am * z[..., 1]
    if m > 1:
        mid = amid * (z[..., 2::2] + 1j * z[..., 3::2])
        spec[..., 1:m] = mid
        spec[..., m + 1 :] = np.conj(mid[..., ::-1])
    return np.fft.fft(spec).real[..., :n]


def test_half_spectrum_matches_full_spectrum_oracle():
    # same normals on the same spectral lines: only FFT rounding may differ
    for h in (0.05, 0.3, 0.5, 0.75, 0.95):
        for n in (2, 3, 5, 8, 64, 1000, 8192):
            m = _embedding_size(n)
            for seed in (0, 1, 2):
                z = np.random.Generator(np.random.Philox(key=seed)).standard_normal(2 * m)
                ref = _full_spectrum_assemble(z, *_embedding_scales(h, m), n)
                got = synthesize(h, n, seed).increments
                assert np.abs(got - ref).max() <= 1e-14


def test_block_rows_and_levels_are_bit_identical():
    # the batch route and the per-path route share one kernel, bit for bit
    for h, n in ((0.3, 2), (0.7, 5), (0.75, 1000), (0.95, 8192)):
        m = _embedding_size(n)
        scales = _embedding_scales(h, m)
        z = np.random.Generator(np.random.Philox(key=3)).standard_normal((4, 2 * m))
        block = _assemble(z, *scales, n)
        for row, zrow in zip(block, z):
            np.testing.assert_array_equal(row, _assemble(zrow, *scales, n))
    path = synthesize(0.7, 1000, seed=4)
    np.testing.assert_array_equal(path.levels, np.concatenate(([0.0], np.cumsum(path.increments))))


def test_rho_spans_are_the_scalar_rho():
    # shared powers and numpy differences, each lag bit for bit fbm.rho
    spans = [(1e-4, 1, 3), (0.05, 2, 17), (0.3, 1, 1), (0.5, 7, 9), (0.61, 40, 140)]
    spans += [(0.75, 4090, 4100), (0.95, 99_990, 99_999), (0.9999, 2, 5), (1.0, 1, 4)]
    r, starts = _rho_spans(spans)
    for (h, lo, hi), at in zip(spans, starts):
        got = r[at : at + hi - lo + 1]
        want = np.array([rho(h, k) for k in range(lo, hi + 1)])
        assert got.tobytes() == want.tobytes(), (h, lo, hi)


def test_paths_are_the_philox_key_streams():
    # the re-keyed per-process generator draws what Philox(key=seed) draws,
    # whatever path came before, and refuses the keys Philox refuses
    seeds = (0, 1, 2**63, 2**64 - 1, 2**64, 2**128 - 1, 1)
    for h, n in ((0.3, 2), (0.7, 128), (0.95, 1024), (1.0, 16)):
        for seed in seeds:
            rng = np.random.Generator(np.random.Philox(key=seed))
            want = _increments(h, n, rng)
            assert synthesize(h, n, seed).increments.tobytes() == want.tobytes()
    for bad in (-1, 2**128):
        with pytest.raises(ValueError):
            np.random.Philox(key=bad)
        with pytest.raises(ValueError):
            synthesize(0.7, 16, bad)


def test_paths_are_per_thread_streams():
    # each thread re-keys its own generator: a switch between re-keying and
    # drawing cannot hand one thread another's stream
    seeds = range(8)
    def paths(seed, times=1):
        return [synthesize(0.7, 64, seed).increments.tobytes() for _ in range(times)]

    serial = [paths(seed) for seed in seeds]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            runs = [pool.submit(paths, seed, 300) for seed in seeds]
            results = [run.result(timeout=60) for run in runs]
    finally:
        sys.setswitchinterval(switch)
    for got, want in zip(results, serial):
        assert got == want * 300
