"""Gaussian orthant probability tests.

The quadrature evaluator is cross-checked against closed forms where they
exist, against a 30-digit mpmath evaluation of the same path integral and
against Monte Carlo where they do not, and its reduction-formula
derivatives are verified by central differences of an independent
common-random-numbers simulation written out longhand in this file.
"""

import concurrent.futures
import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zchurst import (
    DegenerateCorrelation,
    DomainError,
    NotPositiveDefinite,
    NumericalError,
    OrthantSpec4,
    QuadratureNotConverged,
    orthant2,
    orthant4,
    orthant4_excess,
    orthant4_mc,
    rho,
)
from zchurst import orthant
from zchurst.orthant import (
    _CHUNK,
    _MAX_REFINE,
    _NODES,
    PD_TOL,
    _clamped_arcsin,
    _leading_minors,
    _nodes01,
    _path_coeffs,
    _path_integral,
    _path_terms,
    _sigma,
)

# Near-degenerate reference point: min eigenvalue of Sigma(r) is ~1e-3.
STRESS_R = (0.9394828550545087, 0.7307088872646178, 0.521934919474727, 0.8350958711595633)


def test_orthant2_closed_form():
    assert orthant2(0.0) == 0.25
    assert abs(orthant2(0.5) - (0.25 + math.asin(0.5) / (2.0 * math.pi))) <= 1e-15
    # complementary correlation halves the quadrant mass
    for r in (-0.9, -0.3, 0.2, 0.7):
        assert abs(orthant2(r) + orthant2(-r) - 0.5) <= 1e-15
    grid = np.linspace(-0.99, 0.99, 67)
    vals = [orthant2(float(r)) for r in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    for bad in (1.0, -1.0, 1.3, math.nan):
        with pytest.raises(DegenerateCorrelation):
            orthant2(bad)


def test_orthant4_anchors():
    assert abs(orthant4(OrthantSpec4((0.0, 0.0, 0.0, 0.0))) - 1.0 / 16.0) <= 1e-12
    # with r2=r3=r4=0 the four variables split into two independent pairs,
    # and the path correction vanishes identically
    for r1 in (-0.6, -0.2, 0.3, 0.8):
        s = OrthantSpec4((r1, 0.0, 0.0, 0.0))
        assert orthant4_excess(s) == 0.0
        assert orthant4(s) == orthant2(r1) ** 2


def test_orthant4_in_unit_interval():
    rng = np.random.default_rng(2024)
    found = 0
    while found < 25:
        r = tuple(float(v) for v in rng.uniform(-0.9, 0.9, size=4))
        try:
            s = OrthantSpec4(r)
        except NotPositiveDefinite:
            continue
        found += 1
        v = orthant4(s)
        assert 0.0 < v < 1.0


def test_sigma_structure_fixed_by_pair_swap():
    # swapping variables (1,4) and (2,3) simultaneously permutes Sigma(r)
    # onto itself, so the orthant mass from that symmetry is built in
    rng = np.random.default_rng(9)
    perm = np.array([3, 2, 1, 0])
    for _ in range(20):
        r = tuple(float(v) for v in rng.uniform(-0.9, 0.9, size=4))
        sigma = np.array(_sigma(*r))
        np.testing.assert_array_equal(sigma[np.ix_(perm, perm)], sigma)


def _cofactor_det(m):
    """Determinant of (..., n, n) m by first-row cofactor expansion."""
    if m.shape[-1] == 1:
        return m[..., 0, 0]
    terms = [
        m[..., 0, j] * _cofactor_det(np.delete(np.delete(m, 0, -2), j, -1))
        for j in range(m.shape[-1])
    ]
    total = terms[0]
    for j in range(1, len(terms)):
        total = total - terms[j] if j % 2 else total + terms[j]
    return total


def _sigma_minor(sigma, i, j):
    """|M_ij| of (..., 4, 4) sigma (1-indexed) by the generic expansion."""
    return _cofactor_det(np.delete(np.delete(sigma, i - 1, -2), j - 1, -1))


_CORRELATION = st.floats(-1.0, 1.0, allow_nan=False)
_ROWS = st.lists(st.tuples(*[_CORRELATION] * 4), min_size=1, max_size=12)


def _path_minors(rows, t):
    """|M11|, |M22|, |M13|, |M23|, |M14| of Sigma along the path of each
    row, at nodes t, as the integrand forms them from _path_coeffs."""
    a, m, c, s, *_ = _path_coeffs(rows)
    tt = t * t
    det22, det11 = a + tt * m
    det13, det23, det14 = t * (c + tt * s)
    return det11, det22, det13, det23, det14


@settings(max_examples=200, deadline=None)
@given(rows=_ROWS, nodes=st.sampled_from([4, 8, 48]))
def test_closed_form_minors_are_the_cofactor_expansion(rows, nodes):
    rows = np.array([r for r in rows if np.linalg.eigvalsh(_sigma(*r))[0] > 1e-9])
    assume(len(rows) > 0)
    # the polynomials in t agree with the generic expansion of Sigma(path(t))
    # within 4 ulp of 1 absolute (the worst over 3 000 random positive
    # definite rows at 4, 8 and 48 nodes was 1.75 ulp)
    t = _nodes01(nodes)[0]
    r1, r2, r3, r4 = rows.T[:, :, None]
    sigma = _sigma(r1, t * r2, t * r3, t * r4)
    expected = [_sigma_minor(sigma, i, j) for i, j in ((1, 1), (2, 2), (1, 3), (2, 3), (1, 4))]
    for got, want in zip(_path_minors(rows, t), expected):
        assert got.shape == want.shape == (len(rows), nodes)
        assert np.abs(got - want).max() <= 4 * 2.0**-52


@settings(max_examples=200, deadline=None)
@given(rows=_ROWS)
def test_leading_minors_are_the_cofactor_expansion(rows):
    rows = np.array(rows)
    sigma = _sigma(*rows.T)
    expected = np.stack([_cofactor_det(sigma[:, :d, :d]) for d in (2, 3, 4)], axis=1)
    assert _leading_minors(rows).tobytes() == expected.tobytes()
    # the PD check agrees with the spectrum: a leading minor of order d is
    # at least lambda_min^d, and some minor is <= 0 once lambda_min < 0
    smallest = np.linalg.eigvalsh(sigma)[:, 0]
    accepted = np.all(_leading_minors(rows) > PD_TOL, axis=1)
    assert accepted[smallest > 2e-3].all()
    assert not accepted[smallest < -1e-9].any()


def test_leading_minors_equal_the_five_minor_route(monkeypatch):
    # the PD check and the integrand's coefficients read one set of cofactors
    rng = np.random.default_rng(11)
    rows = rng.uniform(-1.0, 1.0, size=(20_000, 4))
    rows = rows[np.linalg.eigvalsh(_sigma(*rows.T))[:, 0] > PD_TOL]
    lags = [(rho(h, 1), rho(h, k), rho(h, k + 1), rho(h, k - 1)) for h in (0.2, 0.9) for k in (2, 40)]
    rows = np.concatenate([lags, np.array(lags) * (1.0, -1.0, -1.0, -1.0), rows])
    assert len(rows) > 1_000
    real = orthant._cofactors
    read = []

    def cofactors(batch):
        read.append(batch.tobytes())
        return real(batch)

    monkeypatch.setattr(orthant, "_cofactors", cofactors)
    batch = rows[: orthant._CHUNK]
    orthant4_excess(batch)
    assert read == [batch.tobytes()] * 2
    # at t = 1 the integrand's polynomials give the first-row expansions
    # that _leading_minors forms from those cofactors, within 1 ulp of 1
    r1, r2, r3, r4, a, u, v, w, x, y = real(rows)
    expansions = (a - r4 * u + r2 * x, r1 * u - v + r2 * w, r1 * x - y + r4 * w)
    det11, _, det13, _, det14 = _path_minors(rows, np.ones(1))
    for got, want in zip((det11, det13, det14), expansions):
        assert np.abs(got[:, 0] - want).max() <= 2.0**-52


def test_nan_correlations_are_refused():
    with pytest.raises(DomainError, match="nan"):
        OrthantSpec4((0.2, math.nan, 0.1, 0.1))
    with pytest.raises(DomainError, match="nan"):
        orthant4_excess(np.array([(0.3, 0.1, 0.05, 0.2), (0.2, 0.1, 0.1, math.nan)]))


def test_spec_validation():
    with pytest.raises(NotPositiveDefinite):
        OrthantSpec4((0.99, 0.99, 0.99, -0.99))
    with pytest.raises(NotPositiveDefinite):
        OrthantSpec4((0.9, -0.9, 0.9, 0.9))
    with pytest.raises(NotPositiveDefinite):
        OrthantSpec4((1.0, 0.0, 0.0, 0.0))


def test_arcsin_clamp_boundary():
    assert _clamped_arcsin(1.0 + 5e-13) == math.pi / 2.0
    assert _clamped_arcsin(-1.0 - 5e-13) == -math.pi / 2.0
    with pytest.raises(NotPositiveDefinite):
        _clamped_arcsin(1.1)


def _partials(row, t):
    """dP/dr2, dP/dr3, dP/dr4 at (r1, t r2, t r3, t r4) through the kernel's
    integrand, whose three terms at node t are r dP/dr there."""
    rows, t = np.array([row], dtype=float), np.array([t])
    terms = _path_terms(_path_coeffs(rows), t, t * t, np.empty((orthant._SLOTS, 1, 1)))
    return (terms[:, 0, 0] / rows[0, 1:]).tolist()


def test_plackett_partials_at_origin():
    d2, d3, d4 = _partials((0.0, 1.0, 1.0, 1.0), 0.0)
    # r2 enters Sigma twice, r3 and r4 once each
    assert abs(d2 - 1.0 / (4.0 * math.pi)) <= 1e-14
    assert abs(d3 - 1.0 / (8.0 * math.pi)) <= 1e-14
    assert abs(d4 - 1.0 / (8.0 * math.pi)) <= 1e-14


def _fd_partial_mc(r, dim, delta, draws, seed):
    """Central difference of the orthant probability by common-random-numbers
    simulation: same standard normal draws on both sides, correlated through
    the Cholesky factors of the two perturbed matrices."""
    up = list(r)
    up[dim] += delta
    down = list(r)
    down[dim] -= delta
    l_up = np.linalg.cholesky(np.array(_sigma(*up)))
    l_down = np.linalg.cholesky(np.array(_sigma(*down)))
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = 500_000
    while done < draws:
        z = rng.standard_normal((min(chunk, draws - done), 4))
        hit_up = np.all(z @ l_up.T > 0.0, axis=1).astype(np.float64)
        hit_down = np.all(z @ l_down.T > 0.0, axis=1).astype(np.float64)
        diff = (hit_up - hit_down) / (2.0 * delta)
        total += diff.sum()
        total_sq += (diff * diff).sum()
        done += diff.size
    mean = total / done
    var = (total_sq - done * mean * mean) / (done - 1)
    return mean, math.sqrt(var / done)


def test_plackett_partials_match_finite_differences():
    delta = 0.02
    for r in ((0.3, -0.2, 0.1, 0.4), (-0.4, 0.25, -0.15, 0.2)):
        parts = _partials(r, 1.0)
        for dim in (1, 2, 3):
            fd, se = _fd_partial_mc(r, dim, delta, 2_000_000, seed=300 + dim)
            # 4 SE of simulation noise plus an O(delta^2) curvature allowance
            assert abs(fd - parts[dim - 1]) <= 4.0 * se + 0.003, (r, dim, fd, parts)


def test_quadrature_node_doubling_converged():
    # on comfortably positive definite specs the default node count is
    # already deep in the convergence plateau
    rng = np.random.default_rng(2025)
    found = 0
    while found < 20:
        r = tuple(float(v) for v in rng.uniform(-0.9, 0.9, size=4))
        sigma = np.array(_sigma(*r))
        if np.linalg.eigvalsh(sigma)[0] < 0.05:
            continue
        found += 1
        coarse, fine = _path_integral(r, _NODES, 2 * _NODES)
        assert abs(coarse - fine)[0] < 1e-10


# Node counts along the doubling chain from the default and from 4.
_CHAIN = st.sampled_from([_NODES << i for i in range(6)] + [4 << i for i in range(6)])


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, _CHUNK), nodes=_CHAIN, seed=st.integers(0, 2**32 - 1))
def test_vecdot_is_the_per_row_dot(rows, nodes, seed):
    # both halves of a joined (R, nodes + 2 nodes) array, as _path_integral splits it
    f = np.random.default_rng(seed).standard_normal((rows, 3 * nodes))
    for part, count in ((f[:, :nodes], nodes), (f[:, nodes:], 2 * nodes)):
        w = _nodes01(count)[1][0]
        assert np.vecdot(part, w).tobytes() == np.array([w @ row for row in part]).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    rows=_ROWS,
    nodes=st.sampled_from([4, 7] + [_NODES * m for m in (1, 2, _MAX_REFINE // 2)]),
)
def test_joined_pass_is_two_single_rule_passes(rows, nodes):
    rows = np.array([r for r in rows if np.linalg.eigvalsh(_sigma(*r))[0] > 1e-9])
    assume(len(rows) > 0)
    coarse, fine = _path_integral(rows, nodes, 2 * nodes)
    assert coarse.tobytes() == _path_integral(rows, nodes)[0].tobytes()
    assert fine.tobytes() == _path_integral(rows, 2 * nodes)[0].tobytes()


def _path_integral_fresh(rows, *counts):
    """The path integral as plain expressions, every step a fresh array."""
    a, m, c, s, q, k, g = _path_coeffs(np.atleast_2d(rows))
    t, weights = _nodes01(*counts)
    tt = t * t
    det22, det11 = a + tt * m
    det13, det23, det14 = t * (c + tt * s)
    args = np.stack([det13 / np.sqrt(det22 * det11), det23 / det22, det14 / det11])
    terms = (k + g * _clamped_arcsin(args)) / np.sqrt(1.0 - tt * q)
    f = terms[0] + terms[1] + terms[2]
    ends = np.cumsum(counts)
    return [np.vecdot(f[:, end - w.size : end], w) for w, end in zip(weights, ends)]


def test_workspace_kernel_is_the_fresh_allocation_route():
    rng = np.random.default_rng(19)
    rows = rng.uniform(-0.95, 0.95, size=(4_000, 4))
    rows = rows[_leading_minors(rows).min(axis=1) > 1e-3]
    lags = [(rho(h, 1), rho(h, k), rho(h, k + 1), rho(h, k - 1)) for h in (0.2, 0.9) for k in (2, 40)]
    rows = np.concatenate([lags, np.array(lags) * (1.0, -1.0, -1.0, -1.0), rows])
    assert (rows[:, 1:] < 0).any() and (rows[:, 1:] > 0).any()
    ws = orthant._workspace()
    cap = ws.size
    assert cap == orthant._SLOTS * orthant._SLOT_SIZE
    earlier = None
    for count, counts in ((1, (32, 64)), (64, (32, 64)), (37, (128,)), (3, (1024,))):
        part = rows[:count]
        got = _path_integral(part, *counts)
        want = _path_integral_fresh(part, *counts)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want], (count, counts)
        if earlier is not None:  # results do not live in the workspace
            assert [v.tobytes() for v in earlier[0]] == earlier[1]
        earlier = got, [v.tobytes() for v in got]
    # the buffers never grow past their cap, and stay the same buffers
    assert orthant._workspace() is ws and ws.size == cap


def test_workspace_is_per_thread():
    # threads interleave inside numpy's loops; each keeps its own buffers,
    # so concurrent passes give what serial ones give
    rng = np.random.default_rng(23)
    rows = rng.uniform(-0.9, 0.9, size=(2_000, 4))
    rows = rows[_leading_minors(rows).min(axis=1) > 1e-2][:6 * 64]
    batches = [rows[i * 64 : (i + 1) * 64] for i in range(6)]
    def passes(batch, times=1):
        return [_path_integral(batch, 32, 64)[1].tobytes() for _ in range(times)]

    serial = [passes(batch) for batch in batches]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(6) as pool:
            runs = [pool.submit(passes, batch, 20) for batch in batches]
            results = [run.result(timeout=60) for run in runs]
    finally:
        sys.setswitchinterval(switch)
    for got, want in zip(results, serial):
        assert got == want * 20


def _plackett_integrand_mp(row):
    """The path integrand of orthant4_excess in mpmath arithmetic, its 3x3
    minors written out by Sarrus' rule from Sigma(t) rather than taken from
    the kernel's shared cofactors."""
    r1, r2, r3, r4 = (mpmath.mpf(v) for v in row)
    pi = mpmath.pi
    wanted = ((0, 0), (1, 1), (0, 2), (1, 2), (0, 3))  # M11, M22, M13, M23, M14

    def minor(m, i, j):
        (a, b, c), (d, e, f), (g, h, k) = (
            [v for col, v in enumerate(line) if col != j] for at, line in enumerate(m) if at != i
        )
        return a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)

    def integrand(t):
        p2, p3, p4 = t * r2, t * r3, t * r4
        m = [[1, r1, p2, p3], [r1, 1, p4, p2], [p2, p4, 1, r1], [p3, p2, r1, 1]]
        m11, m22, m13, m23, m14 = (minor(m, i, j) for i, j in wanted)
        a2 = mpmath.asin(m13 / mpmath.sqrt(m11 * m22))
        a3, a4 = mpmath.asin(m23 / m22), mpmath.asin(m14 / m11)
        d2 = (0.25 - a2 / (2 * pi)) / (pi * mpmath.sqrt(1 - p2**2))
        d3 = (0.25 + a3 / (2 * pi)) / (2 * pi * mpmath.sqrt(1 - p3**2))
        d4 = (0.25 + a4 / (2 * pi)) / (2 * pi * mpmath.sqrt(1 - p4**2))
        return r2 * d2 + r3 * d3 + r4 * d4

    return integrand


# (H, k) points of the mpmath oracle, H 0.1 to 0.9999: short and long lags
# of both memory regimes, and the near-singular lag-2 and lag-3 rows near 1.
_ORACLE_POINTS = (
    (0.1, 2),
    (0.2, 5),
    (0.3, 50),
    (0.45, 17),
    (0.6, 8),
    (0.75, 30),
    (0.9, 2),
    (0.99, 2),
    (0.998, 2),
    (0.9999, 3),
)


def test_default_quadrature_against_mpmath_oracle():
    # Both orthant rows of each lag, as gamma_exact builds them in double
    # precision, integrated again at 30 digits on [0, 1] split towards the
    # near-singular end t = 1: only the quadrature and its rounding are
    # measured. The default's worst error on this grid is about 9e-14 (the
    # H 0.9999 row); 48 nodes gave 1.7e-13.
    with mpmath.workdps(30):
        for h, k in _ORACLE_POINTS:
            plus = (rho(h, 1), rho(h, k), rho(h, k + 1), rho(h, k - 1))
            rows = np.array([plus]) * [[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, -1.0, -1.0]]
            for row, got in zip(rows.tolist(), orthant4_excess(rows).tolist()):
                exact, err = mpmath.quad(
                    _plackett_integrand_mp(row), [0, 0.5, 0.75, 0.875, 1], error=True
                )
                assert err <= 1e-25 * abs(exact), (h, k, row)
                assert abs(got - exact) <= 2e-13 * abs(exact), (h, k, row, got, exact)


def _no_lapack(*args, **kwargs):
    raise AssertionError("a Gauss-Legendre rule reached LAPACK")


def test_node_rules_need_no_lapack(monkeypatch):
    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, _no_lapack)
    _nodes01.cache_clear()
    try:
        for count in [4 << i for i in range(9)] + [7 << i for i in range(8)]:  # 4..1024, 7..896
            t, (w,) = _nodes01(count)
            assert t.shape == w.shape == (count,)
            assert 0.0 < t[0] and t[-1] < 1.0 and np.all(np.diff(t) > 0.0) and np.all(w > 0.0)
            np.testing.assert_allclose(t + t[::-1], 1.0, rtol=0, atol=2e-16)
            np.testing.assert_allclose(w, w[::-1], rtol=1e-13)
            # exact for every degree below 2 * count
            for degree in (0, 1, count, 2 * count - 1):
                assert abs(w @ t**degree * (degree + 1) - 1.0) <= 1e-13, (count, degree)
    finally:
        _nodes01.cache_clear()


def _gauss_legendre01_mp(count):
    """The count-node rule on [0, 1] at the working precision: Newton's
    method on the plain three-term recurrence, from the Chebyshev-like
    estimates cos(pi (i - 1/4) / (count + 1/2))."""
    nodes, weights = [], []
    for i in range(count, 0, -1):
        x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(0.25)) / (count + mpmath.mpf(0.5)))
        for _ in range(60):
            p_prev, p = mpmath.mpf(1), x
            for j in range(1, count):
                p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
            slope = count * (p_prev - x * p) / (1 - x * x)  # P_count'(x)
            x, moved = x - p / slope, p / slope
            if abs(moved) < mpmath.mpf(2) ** (-mpmath.mp.prec + 8):
                break
        nodes.append((1 + x) / 2)
        weights.append(1 / ((1 - x * x) * slope**2))
    return nodes, weights


def test_node_rules_against_mpmath():
    # the default's first check (32 and 64 nodes); numpy's leggauss weights
    # were off by 5.8e-14 and 1.3e-12 relative there
    with mpmath.workdps(34):
        for count in (_NODES, 2 * _NODES):
            t, (w,) = _nodes01(count)
            nodes, weights = _gauss_legendre01_mp(count)
            for got, exact in zip(t.tolist(), nodes):
                assert abs(got - exact) <= 4 * np.spacing(float(exact)), (count, got, exact)
            for got, exact in zip(w.tolist(), weights):
                assert abs(got - exact) <= 2e-13 * exact, (count, got, exact)


def _lag2_row(h):
    """The s = +1 orthant row of the lag-2 change covariance at H = h."""
    return (rho(h, 1), rho(h, 2), rho(h, 3), rho(h, 1))


@pytest.fixture
def tight(monkeypatch):
    """A quadrature from 4 nodes to abs_tol 1e-12.  Sigma of the H = 0.999
    lag-2 row is near singular: even the last doubling allowed (64 -> 128)
    still moves its excess by about 7e-9."""
    monkeypatch.setattr(orthant, "_NODES", 4)
    monkeypatch.setattr(orthant, "_ABS_TOL", 1e-12)


def test_quadrature_not_converged_is_loud(tight):
    with pytest.raises(QuadratureNotConverged) as info:
        orthant4(OrthantSpec4(_lag2_row(0.999)))
    moved = float(re.search(r"moved orthant4 by (\S+) >", str(info.value)).group(1))
    assert moved > orthant._ABS_TOL


def test_batch_rows_match_one_at_a_time():
    rng = np.random.default_rng(2026)
    rows = [STRESS_R, _lag2_row(0.999)]
    while len(rows) < 40:
        r = tuple(float(v) for v in rng.uniform(-0.9, 0.9, size=4))
        try:
            OrthantSpec4(r)
        except NotPositiveDefinite:
            continue
        rows.append(r)
    batch = orthant4_excess(np.array(rows))
    one_at_a_time = np.array([orthant4_excess(OrthantSpec4(r)) for r in rows])
    assert batch.tobytes() == one_at_a_time.tobytes()
    assert orthant4_excess(np.empty((0, 4))).shape == (0,)


def test_batch_raises_for_its_lowest_failing_row(tight):
    good = (0.3, 0.1, 0.05, 0.2)
    singular = (0.99, 0.99, 0.99, -0.99)
    slow = _lag2_row(0.999)
    for rows, lowest in (([good, slow, singular], slow), ([good, singular, slow], singular)):
        with pytest.raises(NumericalError) as alone:
            orthant4_excess(lowest)
        with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
            orthant4_excess(np.array(rows))
    with pytest.raises(DomainError):
        orthant4_excess(np.zeros((3, 3)))


def test_near_degenerate_spec_still_agrees():
    s = OrthantSpec4(STRESS_R)
    sigma = np.array(_sigma(*STRESS_R))
    assert np.linalg.eigvalsh(sigma)[0] < 2e-3
    estimate, se = orthant4_mc(s, 1_000_000, seed=7)
    assert 0.0 < estimate < 1.0
    assert se < 1e-2
    # adaptive refinement keeps the quadrature honest even this close to
    # the boundary of the positive definite region
    assert abs(orthant4(s) - estimate) <= 5.0 * se


def test_mc_reproducible():
    s = OrthantSpec4((0.3, 0.1, 0.05, 0.2))
    assert orthant4_mc(s, 200_000, seed=1) == orthant4_mc(s, 200_000, seed=1)
    assert orthant4_mc(s, 200_000, seed=1) != orthant4_mc(s, 200_000, seed=2)


def test_mc_refuses_draws_that_are_not_a_whole_count():
    # a fraction would draw int(draws) normals and divide by draws
    s = (0.1,) * 4
    for draws in (0, -3, 2.5, 0.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="whole number >= 1 of draws"):
            orthant4_mc(s, draws, 0)
    assert orthant4_mc(s, 4.0, 0) == orthant4_mc(s, 4, 0)


def _orthant4_mc_plain(s, draws, seed):
    """orthant4_mc with its hits counted by all(axis=1), written out here."""
    chol = np.linalg.cholesky(s.matrix)
    rng = np.random.Generator(np.random.Philox(key=seed))
    hits = 0
    for at in range(0, draws, orthant._MC_CHUNK):
        z = rng.standard_normal((min(draws - at, orthant._MC_CHUNK), 4))
        hits += int(np.count_nonzero((z @ chol.T > 0.0).all(axis=1)))
    p = hits / draws
    return p, math.sqrt(max(p * (1.0 - p), 1.0 / draws) / draws)


def test_mc_hit_count_is_the_all_positive_rows():
    # the four-byte view of each row counts exactly the all-positive draws
    for r, seed in (((0.3, 0.1, 0.05, 0.2), 1), (STRESS_R, 7), ((-0.5, 0.3, -0.2, -0.4), 29)):
        s = OrthantSpec4(r)
        got = orthant4_mc(s, 1_000_000, seed)
        assert np.array(got).tobytes() == np.array(_orthant4_mc_plain(s, 1_000_000, seed)).tobytes()
