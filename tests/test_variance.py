"""Change-indicator covariance and estimator-variance tests.

gamma_H(k) has three evaluation routes (closed form, quadrature, Taylor
tail); these tests pin each route against the others, against closed-form
anchors, and against direct simulation, then check the variance
aggregates built on top of them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zchurst import (
    CapReached,
    DomainError,
    QuadratureNotConverged,
    UnsupportedOrder,
    VarianceApproxConfig,
    change_indicator_count,
    change_prob,
    f_infinity,
    f_n,
    gamma0,
    gamma1,
    gamma_asymptotic,
    gamma_exact,
    gamma_taylor,
    k_threshold,
    orthant,
    orthant3,
    rho,
    synthesize,
    var_c_approx,
    var_c_asymptotic,
    var_c_exact,
    variance,
)

H_SAMPLE = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)


def test_gamma0_is_bernoulli_variance():
    for h in H_SAMPLE:
        c = change_prob(h)
        assert abs(gamma0(h) - c * (1.0 - c)) <= 1e-15


def test_gamma1_matches_trivariate_orthant_route():
    # both windows change exactly when the sign pattern of three
    # consecutive increments alternates, which is two orthant masses
    for h in H_SAMPLE:
        direct = 2.0 * orthant3(-rho(h, 1), rho(h, 2), -rho(h, 1)) - change_prob(h) ** 2
        assert abs(gamma1(h) - direct) <= 1e-14
    assert abs(gamma1(0.5)) <= 1e-15


def test_gamma_exact_zero_cases_and_domain():
    for k in (2, 3, 7):
        assert gamma_exact(0.5, k) == 0.0
        assert gamma_exact(1.0, k) == 0.0
    for k in (-1, 0, 1):
        with pytest.raises(DomainError):
            gamma_exact(0.7, k)


def test_gamma_exact_memoized():
    first = gamma_exact(0.62, 17)
    second = gamma_exact(0.62, 17)
    assert first == second


def test_gamma_continuity_in_h():
    # no evaluation-route seams: secant slopes across the H grid may not
    # spike relative to their neighbours at any fixed lag
    step = 0.01
    hs = [round(0.05 + step * i, 2) for i in range(91)]
    for k in (2, 3, 7, 10):
        vals = [gamma_exact(h, k) for h in hs]
        slopes = np.abs(np.diff(vals)) / step
        for i in range(1, len(slopes) - 1):
            limit = 10.0 * max(slopes[i - 1], slopes[i + 1]) + 1e-9
            assert slopes[i] <= limit, (k, hs[i], slopes[i], limit)


def test_gamma_magnitude_decays_in_k():
    for h in (0.3, 0.6, 0.85):
        a, b, c = (abs(gamma_exact(h, k)) for k in (100, 1000, 10000))
        assert a > b > c


def test_gamma_taylor_order1_is_the_asymptotic_form():
    for h in (0.1, 0.3, 0.6, 0.85, 0.97):
        for k in (5, 50, 500):
            assert gamma_asymptotic(h, k) == gamma_taylor(h, k, 1)
    assert gamma_asymptotic(0.5, 10) == 0.0
    assert gamma_asymptotic(1.0, 10) == 0.0


def test_gamma_taylor_orders_and_domain():
    assert gamma_taylor(0.5, 10, 3) == 0.0
    assert gamma_taylor(1.0, 10, 3) == 0.0
    for bad in (0, -1):
        with pytest.raises(DomainError):
            gamma_taylor(0.7, 10, bad)
    for bad in (4, 5):
        with pytest.raises(UnsupportedOrder):
            gamma_taylor(0.7, 10, bad)


def test_taylor_never_exceeds_quadrature():
    # observed ordering on this grid (the even-order truncations approach
    # the quadrature value from below); kept as a regression property
    for h in (0.15, 0.3, 0.45, 0.6, 0.75, 0.9):
        for k in range(2, 41):
            exact = gamma_exact(h, k)
            for m in (1, 2, 3):
                assert gamma_taylor(h, k, m) <= exact + 1e-15, (h, k, m)


def test_k_threshold_anchors_and_errors():
    assert k_threshold(0.55, 3, 0.01) == 9
    assert k_threshold(0.75, 3, 0.01) == 5
    assert k_threshold(0.95, 3, 0.01) == 226
    assert k_threshold(0.55, 3, 0.001) == 26
    for h in (0.5, 1.0):
        with pytest.raises(DomainError):
            k_threshold(h, 3, 0.01)
    with pytest.raises(CapReached):
        k_threshold(0.95, 3, 0.001, k_max=100)


def test_table1_last_cell_is_a_rounding_edge():
    # Table 1's (H 0.95, eps 1e-3) threshold, 10 040, rests on a margin of
    # under 1e-5 relative at lag 10 039; exact arithmetic puts that lag just
    # below eps, so a more accurate gamma or rho would move the cell to 10 039.
    eps = 1e-3
    ks = np.array([10_039, 10_040])
    exact = gamma_exact(0.95, ks)
    above, below = (
        abs(gamma_taylor(0.95, int(k), 3) - e) / abs(e) / eps for k, e in zip(ks, exact)
    )
    assert above > 1.0 > below
    assert above - 1.0 < 1e-5


@settings(max_examples=25, deadline=None)
@given(
    h=st.one_of(st.floats(0.02, 0.98), st.sampled_from([0.5, 1.0])),
    first=st.integers(2, 400),
    count=st.integers(1, 40),
)
def test_gamma_exact_blocks_equal_single_lags(h, first, count):
    ks = np.arange(first, min(first + count, 401))
    variance._gamma_memo.cache_clear()
    block = gamma_exact(h, ks)
    variance._gamma_memo.cache_clear()
    single = np.array([gamma_exact(h, int(k)) for k in ks])
    assert block.tobytes() == single.tobytes()
    if h in (0.5, 1.0):
        assert block.tobytes() == np.zeros(len(ks)).tobytes()


def _linear_threshold(h, m, eps, k_max):
    """The threshold by a plain scan, one lag at a time; None past k_max."""
    for k in range(2, k_max + 1):
        exact = gamma_exact(h, k)
        if exact != 0.0 and abs(gamma_taylor(h, k, m) - exact) / abs(exact) < eps:
            return k
    return None


def test_blocked_k_threshold_equals_linear_scan():
    # 9 lies inside the first block of 16 lags (2..17); 18 and 226 are the
    # first lags of the blocks 18..33 and 226..241; 225 and 100 are caps
    # that end a block early
    cases = (
        (0.55, 0.01, 1000, 9),
        (0.05, 0.01, 1000, 18),
        (0.95, 0.01, 1000, 226),
        (0.95, 0.01, 225, None),
        (0.95, 0.01, 100, None),
    )
    for h, eps, k_max, expected in cases:
        variance._gamma_memo.cache_clear()
        assert _linear_threshold(h, 3, eps, k_max) == expected
        variance._gamma_memo.cache_clear()
        if expected is None:
            with pytest.raises(CapReached):
                k_threshold(h, 3, eps, k_max=k_max)
        else:
            assert k_threshold(h, 3, eps, k_max=k_max) == expected


def test_blocks_raise_only_for_the_lowest_lag_used(monkeypatch):
    real = variance.orthant4_excess

    def fail_rows(**labelled_r2):
        """Make orthant4_excess raise, naming the label, on rows with that r2."""

        def excess(rows, q):
            for label, r2 in labelled_r2.items():
                if np.any(rows[:, 1] == r2):
                    raise QuadratureNotConverged(label)
            return real(rows, q)

        monkeypatch.setattr(variance, "orthant4_excess", excess)

    # k_threshold(0.55, 3, 0.01) is 9, and its first block holds lags 2..17
    fail_rows(plus12=rho(0.55, 12))
    variance._gamma_memo.cache_clear()
    assert k_threshold(0.55, 3, 0.01) == 9
    fail_rows(plus5=rho(0.55, 5))
    variance._gamma_memo.cache_clear()
    with pytest.raises(QuadratureNotConverged, match="plus5"):
        k_threshold(0.55, 3, 0.01)
    # the s = +1 rows go first, but lag 5 fails before lag 7 does
    fail_rows(plus7=rho(0.55, 7), minus5=-rho(0.55, 5))
    variance._gamma_memo.cache_clear()
    with pytest.raises(QuadratureNotConverged, match="minus5"):
        gamma_exact(0.55, np.arange(2, 18))


def test_orthant_batches_are_chunked(monkeypatch):
    real = orthant._path_integral
    batches = []

    def path_integral(rows, nodes):
        batches.append(len(rows))
        return real(rows, nodes)

    ks = np.arange(2, 2002)
    monkeypatch.setattr(orthant, "_path_integral", path_integral)
    variance._gamma_memo.cache_clear()
    chunked = gamma_exact(0.65, ks)
    assert max(batches) == orthant._CHUNK
    monkeypatch.setattr(orthant, "_CHUNK", len(ks))
    variance._gamma_memo.cache_clear()
    whole = gamma_exact(0.65, ks)
    assert max(batches) == len(ks)
    assert chunked.tobytes() == whole.tobytes()


def test_gamma_memo_is_bounded():
    memo = variance._gamma_memo
    maxsize = memo.cache_info().maxsize
    memo.cache_clear()
    hs = np.linspace(0.1, 0.4, maxsize + 1).tolist()
    for h in hs:
        gamma_exact(h, 2)
    assert memo.cache_info().currsize == maxsize
    misses = memo.cache_info().misses
    gamma_exact(hs[-1], 2)
    assert memo.cache_info().misses == misses
    gamma_exact(hs[0], 2)  # the oldest H was the one evicted
    assert memo.cache_info().misses == misses + 1


def test_var_c_exact_anchors():
    for n in (10, 100, 1000):
        assert var_c_exact(0.5, n) == 0.25 / n
        assert var_c_approx(0.5, n) == 0.25 / n
    assert var_c_exact(1.0, 64) == 0.0
    with pytest.raises(DomainError):
        var_c_exact(0.7, 0)


def test_var_c_exact_against_simulation():
    # 4000 independent paths with 256 windows each; the sample variance of
    # the change rate has a relative standard error of about 2.2%
    chats = []
    for i in range(4000):
        path = synthesize(0.7, 257, seed=600_000 + i)
        changes, windows = change_indicator_count(path.levels)
        assert windows == 256
        chats.append(changes / windows)
    empirical = np.var(chats, ddof=1)
    assert abs(empirical / var_c_exact(0.7, 256) - 1.0) <= 0.10


def test_var_c_approx_tracks_exact():
    assert abs(var_c_approx(0.65, 1024) / var_c_exact(0.65, 1024) - 1.0) <= 0.005
    assert abs(var_c_approx(0.7, 256) / var_c_exact(0.7, 256) - 1.0) <= 0.005
    for n in (10, 100, 1000):
        assert var_c_approx(0.5, n) == 0.25 / n
    assert var_c_approx(1.0, 64) == 0.0
    # a tiny lag cap still produces something finite and positive
    small_cap = VarianceApproxConfig(m=3, eps=0.01, n_tilde_cap=10)
    v = var_c_approx(0.85, 4096, small_cap)
    assert 0.0 < v < 1.0
    # with no lag accurate enough for the Taylor tail, every lag is exact
    for h in (0.3, 0.5, 0.7):
        for n in (1, 2, 3, 64):
            all_exact = VarianceApproxConfig(m=3, eps=1e-300, n_tilde_cap=max(n, 2))
            assert var_c_approx(h, n, all_exact) == var_c_exact(h, n), (h, n)


def test_variance_config_validation():
    with pytest.raises(DomainError):
        VarianceApproxConfig(m=0)
    with pytest.raises(DomainError):
        VarianceApproxConfig(m=3, eps=0.0)
    with pytest.raises(DomainError):
        VarianceApproxConfig(m=3, eps=0.01, n_tilde_cap=1)
    with pytest.raises(UnsupportedOrder):
        VarianceApproxConfig(m=4)


def test_var_c_asymptotic_domain_and_boundary():
    with pytest.raises(DomainError):
        var_c_asymptotic(0.74, 100)
    with pytest.raises(DomainError):
        var_c_asymptotic(0.8, 1)
    assert var_c_asymptotic(1.0, 100) == 0.0
    # boundary case decays like log(n)/n with the quoted constant
    r1 = rho(0.75, 1)
    d_h = 4.0 * (1.0 - r1) * (0.75 * 0.5) ** 2 / (math.pi**2 * (1.0 + r1))
    assert abs(var_c_asymptotic(0.75, 3) - d_h * math.log(3.0) / 3.0) <= 1e-18


def test_var_c_asymptotic_sharp_constant():
    # the quoted power law carries the right exponent but overshoots the
    # finite-n variance by a factor approaching 4H-2; after correcting for
    # that factor the ratio converges to one
    for h in (0.8, 0.85, 0.9):
        factor = 4.0 * h - 2.0
        r_small = var_c_approx(h, 2**10) * factor / var_c_asymptotic(h, 2**10)
        r_big = var_c_approx(h, 2**20) * factor / var_c_asymptotic(h, 2**20)
        assert abs(r_big - 1.0) < abs(r_small - 1.0), (h, r_small, r_big)
        assert abs(r_big - 1.0) <= 0.1, (h, r_big)
    # at the boundary the approach is logarithmic and from above
    ratios = [var_c_approx(0.75, 2**e) / var_c_asymptotic(0.75, 2**e) for e in (10, 16, 20)]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0


def test_f_n_is_scaled_variance():
    for h, n in ((0.3, 500), (0.6, 2048)):
        assert f_n(h, n) == n * var_c_approx(h, n)


def test_f_infinity_anchors_and_domain():
    assert abs(f_infinity(0.5) - 0.25) <= 1e-9
    for h in (0.05, 0.2, 0.35, 0.65, 0.74):
        assert f_infinity(h) > 0.0
    with pytest.raises(DomainError):
        f_infinity(0.75)
    with pytest.raises(DomainError):
        f_infinity(0.9)


def test_f_n_converges_below_three_quarters():
    for h in (0.3, 0.6):
        goal = f_infinity(h)
        gaps = [abs(goal - f_n(h, n)) for n in (2**8, 2**11, 2**14)]
        assert gaps[0] > gaps[1] > gaps[2]


def test_covariance_tail_summable_below_three_quarters():
    # partial tail sums form a Cauchy sequence when the exponent 4H-4 is
    # below -1, i.e. for H < 3/4
    for h in (0.3, 0.6):
        tails = [sum(gamma_taylor(h, k, 3) for k in range(kk, 2 * kk)) for kk in (1000, 2000, 4000)]
        assert tails[0] > tails[1] > tails[2] > 0.0


def test_scaled_variance_grows_above_three_quarters():
    # for H > 3/4 the scaled variance diverges like n^(4H-3); the log-log
    # fit over a thousand-fold range lands near the theoretical slope
    ns = [2**e for e in range(10, 21)]
    slope = np.polyfit(np.log(ns), np.log([f_n(0.85, n) for n in ns]), 1)[0]
    assert abs(slope - 0.4) <= 0.1
