"""Estimator-layer tests: the link function g, the two point estimators,
their confidence intervals, and the deterministic asymptotic summaries."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zchurst import (
    BadLength,
    DomainError,
    InputError,
    asymptotic_expectation,
    asymptotic_variance,
    change_prob,
    g,
    g_prime,
    g_second,
    heaf_estimate,
    heaf_transform,
    rho,
    synthesize,
    zc_estimate,
)


def test_g_anchor_values():
    assert g(0.0) == 1.0
    assert abs(g(2.0 / 3.0)) <= 1e-15
    # flat branch: beyond 2/3 the change rate carries no more information
    for x in (0.67, 0.8, 1.0):
        assert g(x) == 0.0
    for bad in (-0.01, 1.01):
        with pytest.raises(DomainError):
            g(bad)


@settings(max_examples=200, deadline=None)
@given(h=st.floats(0.0, 1.0, exclude_min=True))
@example(h=0.05)
@example(h=0.25)
@example(h=0.5)
@example(h=0.75)
@example(h=0.95)
@example(h=1.0)
def test_g_inverts_change_prob(h):
    assert abs(g(change_prob(h)) - h) <= 1e-12


def test_g_monotone_decreasing():
    xs = np.linspace(0.001, 0.66, 80)
    vals = [g(float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_g_derivatives_match_finite_differences():
    step = 1e-6
    for x in np.linspace(0.02, 0.64, 20):
        x = float(x)
        fd1 = (g(x + step) - g(x - step)) / (2.0 * step)
        fd2 = (g(x + step) - 2.0 * g(x) + g(x - step)) / (step * step)
        assert abs(g_prime(x) - fd1) <= 1e-5 * abs(fd1)
        assert abs(g_second(x) - fd2) <= 1e-3 * abs(fd2)
        assert g_prime(x) < 0.0
        assert g_second(x) < 0.0
    with pytest.raises(DomainError):
        g_prime(0.7)
    with pytest.raises(DomainError):
        g_second(0.7)


def test_zc_report_coherence():
    path = synthesize(0.7, 512, seed=21)
    report = zc_estimate(path.levels)
    assert report.method == "ZC"
    assert report.n == 511
    assert 0.0 <= report.statistic <= 1.0
    assert abs(report.h_hat - g(report.statistic)) <= 1e-15
    assert report.ci_low <= report.h_hat <= report.ci_high
    assert report.s_n > 0.0
    assert report.asymptotic_variance == report.s_n
    assert report.asymptotic_bias < 0.0
    assert not report.degenerate


def test_zc_interval_tightens_with_length():
    short = zc_estimate(synthesize(0.6, 128, seed=3).levels)
    long = zc_estimate(synthesize(0.6, 8192, seed=3).levels)
    assert long.s_n < short.s_n
    assert (long.ci_high - long.ci_low) < (short.ci_high - short.ci_low)


def test_zc_affine_invariance():
    x = synthesize(0.55, 400, seed=9).levels
    base = zc_estimate(x)
    for a, b in ((3.0, 2.0), (0.02, -7.0), (1000.0, 0.0)):
        other = zc_estimate(a * x + b)
        assert other.h_hat == base.h_hat
        assert other.statistic == base.statistic
        assert other.ci_low == base.ci_low
        assert other.ci_high == base.ci_high


def test_zc_degenerate_inputs_stay_finite():
    # constant and monotone inputs have no changes at all: the estimate
    # pins to 1 with a collapsed interval
    for x in (np.full(50, 3.0), np.arange(50, dtype=np.float64)):
        report = zc_estimate(x)
        assert report.h_hat == 1.0
        assert report.statistic == 0.0
        assert (report.ci_low, report.ci_high) == (1.0, 1.0)
        assert report.s_n == 0.0
    # alternating input changes every window: the estimate clamps to 0 and
    # the interval is clipped into [0, 1]
    report = zc_estimate(np.array([1.0, -1.0] * 30))
    assert report.h_hat == 0.0
    assert report.statistic == 1.0
    assert report.ci_low == 0.0
    assert 0.0 < report.ci_high < 1.0
    assert math.isfinite(report.s_n)
    # a plain random walk lands near one half
    report = zc_estimate(np.cumsum(np.random.default_rng(8).standard_normal(20_000)))
    assert abs(report.h_hat - 0.5) < 0.03
    with pytest.raises(BadLength):
        zc_estimate(np.array([1.0, 2.0]))


def test_zc_variance_injection():
    x = np.cumsum(np.random.default_rng(5).standard_normal(200))
    report = zc_estimate(x, var_c=lambda h, n: 0.001)
    assert report.s_n == g_prime(report.statistic) ** 2 * 0.001


def test_heaf_transform_anchors():
    assert heaf_transform(0.0) == 0.5
    # the lag-1 correlation floor maps to the smallest expressible estimate
    assert heaf_transform(-0.6) == 0.0
    assert heaf_transform(-0.5) == 0.0
    for h in (0.3, 0.5, 0.8):
        assert abs(heaf_transform(2.0 ** (2.0 * h - 1.0) - 1.0) - h) <= 1e-12
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match=repr(bad)):
            heaf_transform(bad)


def test_heaf_report():
    path = synthesize(0.8, 2048, seed=17)
    report = heaf_estimate(path.levels)
    assert report.method == "HEAF"
    assert report.n == 2048
    assert abs(report.h_hat - heaf_transform(report.statistic)) <= 1e-15
    assert report.ci_low is None and report.ci_high is None
    assert not report.degenerate
    assert abs(report.h_hat - 0.8) < 0.15
    # constant input: zero variance in the denominator, flagged not raised
    flat = heaf_estimate(np.full(50, 3.0))
    assert flat.degenerate
    assert flat.h_hat == 1.0
    with pytest.raises(BadLength):
        heaf_estimate(np.array([1.0, 2.0]))


def _bits(report):
    return report.h_hat.hex(), report.statistic.hex(), report.n, report.degenerate


# Levels of 0 or of magnitude 2**-10 to 2**10: times any 2**k with |k| <= 1000
# they stay normal and finite, so the scaling itself is exact.
_LEVELS = st.lists(
    st.floats(-1024.0, 1024.0).map(lambda v: v if abs(v) >= 2.0**-10 else 0.0),
    min_size=3,
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(x=_LEVELS, k=st.integers(-1000, 1000))
@example(x=[0.0, 1.0, -0.5, 2.0, 1.5], k=-1000)
@example(x=[0.0, 1.0, -0.5, 2.0, 1.5], k=1000)
@example(x=[1024.0, -1024.0, 1024.0, -1024.0], k=1000)
@example(x=[3.0, 3.0, 3.0, 3.0], k=-700)
def test_heaf_scale_invariance(x, k):
    x = np.array(x)
    report = heaf_estimate(x)
    # H is scale-free: no scale may flip the degenerate flag or move a bit
    assert _bits(heaf_estimate(x * 2.0**k)) == _bits(report)
    y = np.diff(x)
    assert not report.degenerate or np.all(y == y[0])


def test_heaf_extreme_scales():
    x = synthesize(0.7, 1000, seed=3).levels
    expected = heaf_estimate(x)
    assert not expected.degenerate
    # sums of squares that under- or overflow at these scales
    for scale in (2.0**-565, 2.0**512, 2.0**1000):
        assert _bits(heaf_estimate(x * scale)) == _bits(expected)
    # levels near the largest float, where the increments themselves overflow
    top = heaf_estimate(x / np.abs(x).max() * 1.7e308)
    assert abs(top.h_hat - expected.h_hat) <= 1e-12


def test_estimators_refuse_non_finite_input():
    x = np.array(synthesize(0.7, 512, seed=2).levels)
    for bad in (math.nan, math.inf, -math.inf):
        y = x.copy()
        y[100] = bad
        for estimate in (zc_estimate, heaf_estimate):
            with pytest.raises(InputError, match="index 100 is"):
                estimate(y)


def test_asymptotic_summaries():
    # the estimate is biased low: the link is concave, so smoothing the
    # change rate pulls the expectation under the true parameter
    for h in (0.55, 0.75, 0.85):
        for n in (128, 8192):
            assert asymptotic_expectation(h, n) < h
    assert asymptotic_expectation(1.0, 128) == 1.0
    assert asymptotic_variance(1.0, 128) == 0.0
    assert asymptotic_variance(0.6, 8192) < asymptotic_variance(0.6, 128)
    # bias washes out with length
    gap_short = 0.55 - asymptotic_expectation(0.55, 128)
    gap_long = 0.55 - asymptotic_expectation(0.55, 8192)
    assert 0.0 < gap_long < gap_short
