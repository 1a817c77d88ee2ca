"""Change-indicator covariance and estimator-variance tests.

gamma_H(k) has three evaluation routes (closed form, quadrature, Taylor
tail); these tests pin each route against the others, against closed-form
anchors, and against direct simulation, then check the variance
aggregates built on top of them.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from zchurst import (
    CapReached,
    DomainError,
    NotPositiveDefinite,
    QuadratureNotConverged,
    UnsupportedOrder,
    change_indicator_count,
    change_prob,
    gamma0,
    gamma1,
    gamma_exact,
    gamma_taylor,
    k_threshold,
    orthant,
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
    def orthant3(r12, r13, r23):  # trivariate orthant probability, arcsine closed form
        return 0.125 + (math.asin(r12) + math.asin(r13) + math.asin(r23)) / (4.0 * math.pi)

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


def test_gamma_exact_scattered_pairs_equal_single_lags():
    # runs of one H come back to the same H, lags go down, skip and repeat
    # (H 0.3's lags scatter up to 900, inside its one span of powers from
    # lag 1 to 901), and H 0.05's lag 9 follows H 0.7's lag 8
    hs = np.array([0.3] * 6 + [0.7] * 4 + [0.3] * 5 + [0.5, 0.05])
    ks = np.array([2, 900, 3, 4, 40, 39, 10, 9, 8, 8, 5, 6, 7, 41, 2, 3, 9])
    variance._gamma_memo.cache_clear()
    pairs = gamma_exact(hs, ks)
    variance._gamma_memo.cache_clear()
    single = np.array([gamma_exact(h, k) for h, k in zip(hs.tolist(), ks.tolist())])
    assert pairs.tobytes() == single.tobytes()


def _linear_threshold(h, m, eps, k_max):
    """The threshold by a plain scan, one lag at a time; None past k_max."""
    for k in range(2, k_max + 1):
        exact = gamma_exact(h, k)
        if exact != 0.0 and abs(gamma_taylor(h, k, m) - exact) / abs(exact) < eps:
            return k
    return None


def test_threshold_at_the_ratio_is_the_scalar_decision(monkeypatch):
    # eps set to a lag's exact ratio (by the scalar rule) puts the rule on
    # its boundary, where numpy's pow and Python's may disagree: one H alone
    # and each H of a three-H grid are decided by the scalar rule, on the
    # grid's block as on their own.
    real = variance._scalar_hit
    rechecked = []

    def scalar_hit(hh, coeffs, lags, exact, eps):
        rechecked.extend((hh, k) for k in lags)
        return real(hh, coeffs, lags, exact, eps)

    monkeypatch.setattr(variance, "_scalar_hit", scalar_hit)
    for h, k in ((0.55, 9), (0.3, 41), (0.05, 18), (0.9354, 49)):
        exact = gamma_exact(h, k)
        ratio = abs(gamma_taylor(h, k, 3) - exact) / abs(exact)
        for eps in (ratio, np.nextafter(ratio, 1.0), np.nextafter(ratio, 0.0)):
            expected = _linear_threshold(h, 3, eps, 1000)
            assert k_threshold(h, 3, eps, k_max=1000) == expected
            rechecked.clear()
            grid = k_threshold(np.array([0.7, h, 0.95]), 3, eps, k_max=1000)
            assert grid[1] == expected
            assert (h, k) in rechecked
        # at eps equal to the ratio, lag k itself misses
        assert _linear_threshold(h, 3, ratio, 1000) != k


def test_blocked_k_threshold_equals_linear_scan():
    # the blocks are 2..17, 18..49, 50..113, then 64 lags each (114..177,
    # 178..241, 242..305, ...): each threshold below is a block's first or
    # last lag, or lies inside one (9, 226); the caps end a block early, or
    # sit on a block edge or one lag past it
    cases = (
        (0.55, 0.01, 1000, 9),
        (0.919, 0.01, 1000, 17),
        (0.05, 0.01, 1000, 18),
        (0.9354, 0.01, 1000, 49),
        (0.9356, 0.01, 1000, 50),
        (0.94426, 0.01, 1000, 113),
        (0.9444, 0.01, 1000, 114),
        (0.95, 0.01, 1000, 226),
        (0.95045, 0.01, 1000, 241),
        (0.95048, 0.01, 1000, 242),
        (0.95, 0.01, 225, None),
        (0.95, 0.01, 100, None),
        (0.95, 0.01, 49, None),
        (0.95, 0.01, 50, None),
        (0.95, 0.01, 113, None),
        (0.95, 0.01, 114, None),
        (0.9354, 0.01, 49, 49),
        (0.9356, 0.01, 50, 50),
        (0.94426, 0.01, 113, 113),
        (0.9444, 0.01, 113, None),
        (0.9444, 0.01, 114, 114),
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


def test_k_threshold_blocks_double_up_to_the_cap(monkeypatch):
    real = variance.gamma_exact
    blocks = []

    def gamma(h, k):
        blocks.append((int(k[0]), int(k[-1])))
        return real(h, k)

    monkeypatch.setattr(variance, "gamma_exact", gamma)
    with pytest.raises(CapReached):
        k_threshold(0.95, 3, 1e-3, k_max=1000)
    assert blocks[:5] == [(2, 17), (18, 49), (50, 113), (114, 177), (178, 241)]
    assert blocks[-1] == (946, 1000)
    assert all(b - a == variance._MAX_BLOCK - 1 for a, b in blocks[3:-1])


@pytest.fixture
def fail_rows(monkeypatch):
    real = variance.orthant4_excess

    def fail(**labelled_r2):
        """Make orthant4_excess raise, naming the label, on rows with that r2."""

        def excess(rows):
            for label, r2 in labelled_r2.items():
                if np.any(rows[:, 1] == r2):
                    raise QuadratureNotConverged(label)
            return real(rows)

        monkeypatch.setattr(variance, "orthant4_excess", excess)

    return fail


def test_blocks_raise_only_for_the_lowest_lag_used(fail_rows):
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


# H 0.5 and 1.0 (no search), mid H, H 0.95 (threshold 226 at eps 0.01, so
# capped at n 127) and near-1 H whose searches run to the cap.
GRID_H = (0.02, 0.3, 0.5, 0.55, 0.7, 0.95, 0.97, 0.999, 1.0, 0.3)


@pytest.mark.parametrize("n", [1, 2, 3, 127, 1023, 8191])
def test_var_c_approx_grid_equals_one_h_calls(n):
    # the figure1 and campaign proxy lengths (tables lengths minus one), and
    # n <= 2, where nothing is searched; 0.3 appears twice
    variance._gamma_memo.cache_clear()
    grid = var_c_approx(np.array(GRID_H), n)
    variance._gamma_memo.cache_clear()
    one_h = np.array([var_c_approx(h, n) for h in GRID_H])
    assert grid.tobytes() == one_h.tobytes()
    assert isinstance(var_c_approx(0.7, n), float)


def test_k_threshold_grid_equals_one_h_calls():
    hs = [h for h in GRID_H if h not in (0.5, 1.0)]
    for eps, k_max in ((0.01, 127), (0.01, 1000), (1e-3, 300)):
        variance._gamma_memo.cache_clear()
        grid = k_threshold(np.array(hs), 3, eps, k_max=k_max)
        variance._gamma_memo.cache_clear()
        one_h = []
        for h in hs:
            try:
                one_h.append(k_threshold(h, 3, eps, k_max=k_max))
            except CapReached:
                one_h.append(k_max + 1)  # how the grid marks a capped H
        assert grid.tolist() == one_h, (eps, k_max)
        assert (grid == k_max + 1).any() and (grid <= k_max).any()
    assert k_threshold(np.array([]), 3, 0.01).shape == (0,)
    with pytest.raises(DomainError):
        k_threshold(np.array([0.3, 0.5]), 3, 0.01)


def test_grid_blocks_are_one_gamma_exact_call(monkeypatch):
    real_gamma, real_excess = variance.gamma_exact, variance.orthant4_excess
    calls, excess_calls = [], []

    def gamma(h, k):
        calls.append(sorted(set(np.atleast_1d(h).tolist())))
        return real_gamma(h, k)

    def excess(rows):
        excess_calls.append(len(rows))
        return real_excess(rows)

    monkeypatch.setattr(variance, "gamma_exact", gamma)
    monkeypatch.setattr(variance, "orthant4_excess", excess)
    variance._gamma_memo.cache_clear()
    k_threshold(np.array([0.3, 0.55, 0.05]), 3, 1e-3, k_max=1000)  # 41, 26 and 55
    # blocks 2..17 and 18..49 for all three, then 50..113 for H 0.05 alone
    assert calls == [[0.05, 0.3, 0.55]] * 2 + [[0.05]]
    assert excess_calls == [48, 48, 96, 96, 64, 64]


def test_grid_raises_the_error_of_the_first_failing_h(fail_rows, monkeypatch):
    with pytest.raises(NotPositiveDefinite) as alone:
        var_c_approx(0.99999, 64)
    with pytest.raises(NotPositiveDefinite, match=re.escape(str(alone.value))):
        var_c_approx(np.array([0.3, 0.99999, 0.7]), 64)
    # at eps 1e-3 the thresholds of H 0.05 and 0.3 are 55 and 41: H 0.3
    # fails first in the grid (block 2..17), H 0.05 later (block 50..113),
    # and a loop of one-H calls meets H 0.05's failure first
    fail_rows(earlier=rho(0.05, 52), later=rho(0.3, 4))
    monkeypatch.setattr(variance, "_TAYLOR_EPS", 1e-3)
    for call in (
        lambda: [var_c_approx(h, 1000) for h in (0.05, 0.3, 0.7)],
        lambda: var_c_approx(np.array([0.05, 0.3, 0.7]), 1000),
        lambda: k_threshold(np.array([0.05, 0.3, 0.7]), 3, 1e-3),
    ):
        variance._gamma_memo.cache_clear()
        with pytest.raises(QuadratureNotConverged, match="earlier"):
            call()
    # a failure past a threshold is never reached, in the grid as alone
    fail_rows(past=rho(0.3, 45))
    variance._gamma_memo.cache_clear()
    assert k_threshold(np.array([0.05, 0.3]), 3, 1e-3).tolist() == [55, 41]


def test_orthant_batches_are_chunked(monkeypatch):
    real = orthant._path_integral
    batches = []

    def path_integral(rows, *counts):
        batches.append(len(rows))
        return real(rows, *counts)

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


def test_var_c_approx_tracks_exact(monkeypatch):
    assert abs(var_c_approx(0.65, 1024) / var_c_exact(0.65, 1024) - 1.0) <= 0.005
    assert abs(var_c_approx(0.7, 256) / var_c_exact(0.7, 256) - 1.0) <= 0.005
    for n in (10, 100, 1000):
        assert var_c_approx(0.5, n) == 0.25 / n
    assert var_c_approx(1.0, 64) == 0.0
    # a tiny lag cap still produces something finite and positive
    with monkeypatch.context() as patch:
        patch.setattr(variance, "_N_TILDE_CAP", 10)
        v = var_c_approx(0.85, 4096)
    assert 0.0 < v < 1.0
    # with no lag accurate enough for the Taylor tail, every lag is exact
    monkeypatch.setattr(variance, "_TAYLOR_EPS", 1e-300)
    for h in (0.3, 0.5, 0.7):
        for n in (1, 2, 3, 64):
            monkeypatch.setattr(variance, "_N_TILDE_CAP", max(n, 2))
            assert var_c_approx(h, n) == var_c_exact(h, n), (h, n)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: past the 250-lag cap the Taylor tail understates Var_H(c_n)",
)
def test_var_c_approx_tracks_exact_past_the_lag_cap():
    # README's caveat: at n 1 023 var_c_approx is 5.1 % low at H 0.98 and
    # 13.8 % low at H 0.99, so ZC intervals there are too narrow
    for h in (0.98, 0.99):
        assert abs(var_c_approx(h, 1023) / var_c_exact(h, 1023) - 1.0) <= 1e-4, h


def test_near_one_boundary_of_the_default_quadrature():
    # the near-singular lags at H 0.99998 need more than 768 nodes (a 24-node
    # start's ceiling) but converge within the default's 32 * 32 = 1024; from
    # H 0.99999 on, Sigma itself is not positive definite in double precision
    v = var_c_approx(0.99998, 64)
    assert math.isfinite(v) and v > 0.0
    with pytest.raises(NotPositiveDefinite):
        var_c_approx(0.99999, 64)


def test_k_threshold_argument_validation():
    # refused before any lag is scanned, also for an empty grid
    for h in (0.7, np.array([])):
        with pytest.raises(DomainError):
            k_threshold(h, 0, 0.01)
        with pytest.raises(DomainError):
            k_threshold(h, 3, 0.0)
        with pytest.raises(UnsupportedOrder):
            k_threshold(h, 4, 0.01)


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


def f_infinity(h):
    """Oracle: gamma(0) + 2 sum_{k>=1} gamma(k), summable exactly when H < 3/4.

    Exact lags run to a Taylor threshold whose relative error keeps the
    absolute tail error below 5e-10; the Taylor tail itself sums to infinity
    in closed form (Hurwitz zeta).
    """
    if h >= 0.75:
        raise DomainError(f"the series diverges for H >= 3/4, got {h}")
    if h == 0.5:
        return 0.25

    def threshold_and_tail(eps):
        start = k_threshold(h, 3, eps, k_max=20_000)
        base = (h * (2.0 * h - 1.0)) ** 2
        coeffs = enumerate(variance._taylor_coeffs(h, 3), start=1)
        return start, sum(a * base**l * float(zeta(4.0 * l * (1.0 - h), start)) for l, a in coeffs)

    start, tail = threshold_and_tail(1e-3)
    if 1e-3 * abs(tail) > 5e-10:
        start, tail = threshold_and_tail(max(5e-10 / abs(tail), 1e-12))
    head = gamma1(h) + float(np.sum(gamma_exact(h, np.arange(2, start))))
    return gamma0(h) + 2.0 * (head + tail)


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
        gaps = [abs(goal - n * var_c_approx(h, n)) for n in (2**8, 2**11, 2**14)]
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
    slope = np.polyfit(np.log(ns), np.log([n * var_c_approx(0.85, n) for n in ns]), 1)[0]
    assert abs(slope - 0.4) <= 0.1
