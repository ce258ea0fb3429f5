import contextlib
import itertools
import json
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky
from scipy.optimize import approx_fprime

from nexus import gp_trend
from nexus.gp_trend import (
    FactorizationError,
    FitError,
    KernelParams,
    PriorSpec,
    cholesky_with_jitter,
    derivative,
    fit_hierarchical,
    fit_map,
    fit_trend,
    load_trend_fit,
    log_marginal,
    log_posterior,
    save_trend_fit,
)
from nexus.months import format_month, parse_month

from conftest import make_log_series, make_series


# ---------------------------------------------------------------------------
# Independent oracles (kept deliberately naive: loops + generic solvers)
# ---------------------------------------------------------------------------

def oracle_gram(times, params):
    n = len(times)
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            d = abs(times[i] - times[j])
            r = math.sqrt(3.0) * d / params.length_scale
            K[i, j] = params.amplitude**2 * (1.0 + r) * math.exp(-r)
            if i == j:
                K[i, j] += params.noise_sd**2
    return K


def oracle_log_marginal(series, params):
    K = oracle_gram(list(series.months), params)
    y = np.asarray(series.log_fatalities, dtype=float)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    quad = y @ np.linalg.inv(K) @ y
    return -0.5 * quad - 0.5 * logdet - 0.5 * len(y) * math.log(2 * math.pi)


def oracle_posterior_mean(series, params, grid):
    K = oracle_gram(list(series.months), params)
    y = np.asarray(series.log_fatalities, dtype=float)
    k_star = np.empty((len(grid), len(y)))
    for i, g in enumerate(grid):
        for j, x in enumerate(series.months):
            d = abs(float(g) - float(x))
            r = math.sqrt(3.0) * d / params.length_scale
            k_star[i, j] = params.amplitude**2 * (1.0 + r) * math.exp(-r)
    return k_star @ np.linalg.solve(K, y)


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

def kernel_value(distance, length_scale, amplitude):
    """K_f of `gp_trend._kernel` at one distance in months (the noise sd is not read)."""
    params = KernelParams(length_scale, amplitude, 1.0)
    return float(gp_trend._kernel(np.array(distance, dtype=float), params)[2])


class TestMatern32:
    def test_zero_distance_is_squared_amplitude(self):
        assert kernel_value(0.0, 3.7, 2.0) == pytest.approx(4.0, abs=1e-12)

    def test_unit_evaluation(self):
        assert kernel_value(1.0, 1.0, 1.0) == pytest.approx(0.4833577245965077, abs=1e-12)

    def test_decay_limit(self):
        assert kernel_value(1e9, 1.0, 1.0) == pytest.approx(0.0, abs=1e-30)

    @given(
        d1=st.floats(0.0, 100.0),
        d2=st.floats(0.0, 100.0),
        ell=st.floats(0.5, 50.0),
        eta=st.floats(0.1, 10.0),
    )
    def test_strictly_decreasing_in_distance(self, d1, d2, ell, eta):
        lo, hi = sorted((d1, d2))
        # skip pairs too close to resolve in float64 and the exp-underflow tail
        if hi - lo < 1e-3 or math.sqrt(3.0) * hi / ell > 500.0:
            return
        assert kernel_value(lo, ell, eta) > kernel_value(hi, ell, eta)


class TestKernelParams:
    @pytest.mark.parametrize("field", ["length_scale", "amplitude", "noise_sd"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_non_positive_or_non_finite(self, field, bad):
        values = {"length_scale": 2.0, "amplitude": 1.5, "noise_sd": 0.5, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            KernelParams(**values)


class TestPriorSpec:
    @pytest.mark.parametrize("log_median", [math.nan, math.inf, -math.inf])
    def test_non_finite_log_median_rejected(self, log_median):
        with pytest.raises(ValueError, match="log_median must be finite"):
            PriorSpec(log_median, 0.5)

    @pytest.mark.parametrize("log_sd", [0.0, -0.5, math.nan, math.inf])
    def test_non_positive_or_non_finite_log_sd_rejected(self, log_sd):
        with pytest.raises(ValueError, match="log_sd must be positive"):
            PriorSpec(math.log(122.38), log_sd)


class TestGram:
    def test_single_point(self):
        params = KernelParams(2.0, 1.5, 0.5)
        gram = oracle_gram([7], params)
        assert gram.shape == (1, 1)
        assert gram[0, 0] == pytest.approx(1.5**2 + 0.5**2, abs=1e-12)

    def test_two_points_off_diagonal(self):
        params = KernelParams(1.0, 1.0, 0.5)
        gram = oracle_gram([0, 1], params)
        assert gram[0, 1] == pytest.approx(0.48336, abs=1e-5)
        k_f = gp_trend._kernel(np.array([[0.0, 1.0], [1.0, 0.0]]), params)[2]
        assert gram[0, 1] == pytest.approx(k_f[0, 1], abs=1e-15)
        assert gram[0, 1] == gram[1, 0]

    def test_random_grids_factorize_at_low_jitter(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 65))
            times = np.sort(rng.choice(240, size=n, replace=False))
            params = KernelParams(
                float(rng.uniform(0.5, 120.0)),
                float(rng.uniform(0.1, 4.0)),
                float(rng.uniform(0.01, 2.0)),
            )
            gram = oracle_gram(times, params)
            _, level = cholesky_with_jitter(gram, params.amplitude)
            assert level <= 1

    def test_factorization_error_on_broken_matrix(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(FactorizationError):
            cholesky_with_jitter(bad, amplitude=1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_factorization_error_on_non_finite_matrix(self, bad):
        # LAPACK factorizes diag(1, nan, 1) "successfully" into a NaN factor
        gram = np.diag([1.0, bad, 1.0])
        with pytest.raises(FactorizationError, match="not finite"):
            cholesky_with_jitter(gram, amplitude=1.0)


# ---------------------------------------------------------------------------
# Marginal likelihood and posterior objective
# ---------------------------------------------------------------------------

class TestLogMarginal:
    def test_single_point_closed_form(self):
        series = make_series([0])
        value = log_marginal(series, KernelParams(5.0, 1.0, 1.0))
        assert value == pytest.approx(-1.2655121234846454, abs=1e-10)

    def test_zero_y_drops_quadratic_term(self):
        series = make_series([0, 0, 0, 0])
        params = KernelParams(3.0, 1.2, 0.4)
        gram = oracle_gram(series.months, params)
        sign, logdet = np.linalg.slogdet(gram)
        expected = -0.5 * logdet - 0.5 * 4 * math.log(2 * math.pi)
        assert log_marginal(series, params) == pytest.approx(expected, abs=1e-10)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5, 6):
            y = rng.normal(1.0, 1.0, size=n)
            series = make_log_series(y)
            params = KernelParams(
                float(rng.uniform(0.5, 30.0)),
                float(rng.uniform(0.2, 3.0)),
                float(rng.uniform(0.05, 1.0)),
            )
            assert log_marginal(series, params) == pytest.approx(
                oracle_log_marginal(series, params), abs=1e-10
            )


class TestLogPosterior:
    def test_prior_maximized_at_median_in_log_space(self):
        prior = PriorSpec(log_median=math.log(122.38), log_sd=0.5)
        at_median = gp_trend._log_prior((122.38,), prior)
        for ell in (30.0, 80.0, 122.0, 123.0, 400.0):
            if ell != 122.38:
                assert gp_trend._log_prior((ell,), prior) < at_median

    def test_default_prior_median(self):
        assert math.log(122.38) == pytest.approx(4.80713, abs=1e-5)

    def test_flat_prior_limit_constant_in_length_scale(self):
        series = make_series([1, 4, 9, 2, 0, 5])
        prior = PriorSpec(log_median=math.log(122.38), log_sd=1e9)
        diffs = []
        for ell in (2.0, 20.0, 200.0):
            params = KernelParams(ell, 1.0, 0.5)
            diffs.append(log_posterior(series, params, prior) - log_marginal(series, params))
        assert max(diffs) - min(diffs) < 1e-12


class TestGradientCheck:
    def test_two_step_sizes_agree(self):
        series = make_series([0, 3, 10, 44, 12, 7, 0, 2, 30, 18])
        prior = PriorSpec(math.log(122.38), 0.5)

        def objective(z):
            return log_posterior(series, KernelParams(*np.exp(z)), prior)

        rng = np.random.default_rng(11)
        for _ in range(20):
            z = np.array(
                [
                    rng.uniform(math.log(2), math.log(120)),
                    rng.uniform(math.log(0.3), math.log(3)),
                    rng.uniform(math.log(0.1), math.log(1.5)),
                ]
            )
            g1 = approx_fprime(z, objective, 1e-5)
            g2 = approx_fprime(z, objective, 1e-6)
            rel = np.linalg.norm(g1 - g2) / max(np.linalg.norm(g2), 1e-12)
            assert rel < 1e-3


# ---------------------------------------------------------------------------
# MAP fitting
# ---------------------------------------------------------------------------

PRIOR = PriorSpec(math.log(122.38), 0.5)


@contextlib.contextmanager
def forced_jitter(level):
    """Make every factorization fail below `level`, so cholesky_with_jitter returns it."""
    real = gp_trend.dpotrf
    attempts = itertools.count()

    def dpotrf(a, **kwargs):
        if next(attempts) % (level + 1) < level:
            return a, 1  # LAPACK's "leading minor 1 is not positive definite"
        return real(a, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gp_trend, "dpotrf", dpotrf)
        yield


def assert_gradient_matches(objective, z):
    """The analytic gradient against central differences of the objective's value."""
    h = 1e-5
    value_of = lambda x: objective(x)[0]  # noqa: E731
    numeric = (approx_fprime(z, value_of, h) + approx_fprime(z, value_of, -h)) / 2.0
    _, grad = objective(z)
    assert np.linalg.norm(grad - numeric) <= 1e-5 * np.linalg.norm(numeric)


# ln l, and (ln eta, ln sigma) of one dyad
log_length = st.floats(math.log(1.5), math.log(200.0))
log_scales = st.tuples(
    st.floats(math.log(0.2), math.log(5.0)), st.floats(math.log(0.05), math.log(2.0))
)


class TestAnalyticGradient:
    """The objectives L-BFGS-B sees return the gradient of the value they return."""

    @settings(max_examples=60, deadline=None)
    @given(ell=log_length, scales=log_scales, level=st.integers(0, 4))
    @example(ell=math.log(30.0), scales=(0.0, math.log(0.3)), level=4)
    def test_map_objective(self, ell, scales, level):
        series = make_series([0, 3, 10, 44, 12, 7, 0, 2, 30, 18])
        objective = gp_trend._objective([series], PRIOR)
        z = np.array([ell, *scales])
        with forced_jitter(level):
            assert gp_trend._log_marginal_and_grad(
                *gp_trend._series_data(series), KernelParams(*np.exp(z))
            )[2] == level
            assert objective(z)[0] == log_posterior(series, KernelParams(*np.exp(z)), PRIOR)
            assert_gradient_matches(objective, z)

    @settings(max_examples=30, deadline=None)
    @given(ell=log_length, scales=st.lists(log_scales, min_size=3, max_size=3),
           level=st.integers(0, 4))
    @example(ell=math.log(30.0), scales=[(0.0, math.log(0.3))] * 3, level=4)
    def test_pooled_objective(self, ell, scales, level):
        objective = gp_trend._objective(pooled_group(), PRIOR)
        z = np.array([ell, *itertools.chain.from_iterable(scales)])
        with forced_jitter(level):
            assert_gradient_matches(objective, z)

    @settings(max_examples=30, deadline=None)
    @given(ell=log_length, scales=st.lists(log_scales, min_size=3, max_size=3))
    def test_pooled_objective_sums_the_single_dyad_ones(self, ell, scales):
        # each dyad's log posterior at the shared length scale, with the
        # length-scale prior counted once rather than once per dyad
        group = pooled_group()
        value, grad = gp_trend._objective(group, PRIOR)(
            np.array([ell, *itertools.chain.from_iterable(scales)])
        )
        singles = [
            gp_trend._objective([series], PRIOR)(np.array([ell, *dyad_scales]))
            for series, dyad_scales in zip(group, scales)
        ]
        extra = len(group) - 1
        assert value == pytest.approx(
            sum(v for v, _ in singles)
            - extra * gp_trend._log_prior((math.exp(ell),), PRIOR),
            rel=1e-12, abs=1e-12,
        )
        assert grad[0] == pytest.approx(
            sum(g[0] for _, g in singles) + extra * (ell - PRIOR.log_median) / PRIOR.log_sd**2,
            rel=1e-12, abs=1e-12,
        )
        assert np.array_equal(grad[1:], np.concatenate([g[1:] for _, g in singles]))


def pooled_group():
    return [
        make_series([0, 1, 5, 20, 44, 31, 12, 4, 1, 0, 2, 9], dyad_id="a"),
        make_series([0, 3, 10, 44, 12, 7, 0, 2, 30, 18, 5, 1], dyad_id="b"),
        make_series([2, 0, 0, 7, 9, 15, 3], dyad_id="c", start_month=24190),
    ]


def parent_log_marginal_and_grad(distance, y, params, first_level=0):
    """The objective as it was before the potri rewrite, kept as the oracle.

    K^-1 comes from solving against the identity and GPML eq. 5.9 is taken
    term by term as 1/2 <alpha alpha^T - K^-1, dK/d theta>. Jitter levels
    below `first_level` are skipped, as if their factorization had failed.
    """
    ell, eta, sigma = params.length_scale, params.amplitude, params.noise_sd
    r = math.sqrt(3.0) * distance / ell
    decay = np.exp(-r)
    k_f = eta**2 * (1.0 + r) * decay
    for level in range(first_level, 5):
        jitter = 0.0 if level == 0 else 1e-8 * 10 ** (level - 1) * eta**2
        try:
            L = cholesky(
                k_f + sigma**2 * np.eye(y.size) + jitter * np.eye(y.size),
                lower=True, check_finite=False,
            )
            break
        except np.linalg.LinAlgError:
            continue
    else:
        raise FactorizationError("no jitter level factorizes")
    alpha = cho_solve((L, True), y, check_finite=False)
    value = float(
        -0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * y.size * math.log(2 * math.pi)
    )
    inner = np.outer(alpha, alpha) - cho_solve((L, True), np.eye(y.size), check_finite=False)
    trace = np.trace(inner)
    grad = 0.5 * np.array(
        [
            np.vdot(inner, eta**2 * r**2 * decay),
            2.0 * (np.vdot(inner, k_f) + jitter * trace),
            2.0 * sigma**2 * trace,
        ]
    )
    return value, grad, level, L


@st.composite
def month_grids(draw):
    """A contiguous run of 1-80 months, as ``_series_data`` makes them."""
    return np.arange(draw(st.integers(1, 80)))


class TestParentKernelOracle:
    """The potrf + potrs objective against an identity-solve one that forms K^-1 explicitly."""

    @settings(max_examples=150, deadline=None)
    @given(
        x=month_grids(),
        z=st.tuples(*[st.floats(-12.0, 12.0)] * 3),
        level=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(x=np.arange(72), z=(math.log(12.0), 0.3, math.log(0.4)), level=0, seed=1)
    @example(x=np.arange(24), z=(math.log(30.0), 0.0, math.log(0.3)), level=4, seed=2)
    def test_value_level_and_gradient(self, x, z, level, seed):
        distance = np.abs(x[:, None] - x[None, :])
        y = np.log1p(np.random.default_rng(seed).poisson(5.0, x.size).astype(float))
        params = KernelParams(*np.exp(z))
        real, attempts = gp_trend.dpotrf, itertools.count()

        def dpotrf(a, **kwargs):  # the first `level` attempts of this one call fail
            return (a, 1) if next(attempts) < level else real(a, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gp_trend, "dpotrf", dpotrf)
            try:
                expected, expected_grad, expected_level, L = parent_log_marginal_and_grad(
                    distance, y, params, first_level=level
                )
            except FactorizationError:
                with pytest.raises(FactorizationError):
                    gp_trend._log_marginal_and_grad(distance, y, params)
                return
            value, grad, got_level = gp_trend._log_marginal_and_grad(distance, y, params)
        assert value == expected
        assert got_level == expected_level
        # Where K is so ill-conditioned that the identity solve itself keeps
        # fewer than 9 digits, ask for agreement to a few times cond(K) * eps.
        kappa = np.linalg.cond(L) ** 2
        tolerance = max(1e-9, 10.0 * kappa * np.finfo(float).eps)
        assert np.linalg.norm(grad - expected_grad) <= tolerance * np.linalg.norm(expected_grad)


class TestInverseDiagonalSums:
    """tr K^-1 and <K^-1, Toeplitz(d)> from the first column of K^-1, against np.linalg.inv."""

    @settings(max_examples=150, deadline=None)
    @given(
        x=month_grids(),
        z=st.tuples(*[st.floats(-12.0, 12.0)] * 3),
        level=st.integers(0, 4),
    )
    @example(x=np.arange(1), z=(0.0, 0.0, math.log(0.3)), level=0)
    @example(x=np.arange(2), z=(math.log(30.0), 0.0, math.log(0.3)), level=4)
    def test_trace_terms_match_the_inverse(self, x, z, level):
        lag = np.abs(x[:, None] - x[None, :])
        params = KernelParams(*np.exp(z))
        r, decay, column = gp_trend._kernel(lag[0], params)
        try:
            with forced_jitter(level):
                _, _, first, got_level = gp_trend._factorize(column, lag, np.zeros(x.size), params)
        except FactorizationError:
            return
        jitter = 0.0 if got_level == 0 else 1e-8 * 10 ** (got_level - 1) * params.amplitude**2
        gram = column[lag] + (params.noise_sd**2 + jitter) * np.eye(x.size)
        inverse = np.linalg.inv(gram)
        d = params.amplitude**2 * r**2 * decay  # dK/d ln l on the lags, 0 at lag 0
        sums = gp_trend._inverse_diagonal_sums(first)
        # the tolerance of TestParentKernelOracle, for the explicit inversion of K
        tolerance = max(1e-9, 10.0 * np.linalg.cond(gram) * np.finfo(float).eps)
        assert abs(sums[0] - np.trace(inverse)) <= tolerance * abs(np.trace(inverse))
        expected = np.vdot(inverse, d[lag])
        # at length scales of a few thousandths of a month it is subnormal, with fewer digits
        scale = max(abs(expected), np.finfo(float).tiny)
        assert abs(2.0 * d @ sums - expected) <= tolerance * scale


class TestReferenceFits:
    """MAP parameters of finite-difference fits: L-BFGS-B on the objective's value alone."""

    # Fixtures where the fit is well determined. Left out: white noise, and
    # the pure sines, where the amplitude or the noise sd runs towards zero
    # or the box on a flat ridge; there the exact gradient climbs further
    # than the finite-difference fits stopped (a higher objective each).
    FIT_MAP = {
        (0, 1, 5, 20, 44, 31, 12, 4, 1, 0, 2, 9):
            (122.72403327768559, 1.3710993339887725, 1.2800564432354449),
        (0, 3, 10, 44, 12, 7, 0, 2, 30, 18, 5, 1):
            (122.9924024105629, 1.4306979478102613, 1.2378740044918857),
    }
    # Both stages from `_starts`, stage 1 with each dyad's half-Normal priors.
    HIERARCHICAL = {
        "f0": (10.861050569882408, 2.640544232838967, 0.287596541607119),
        "f1": (11.535615066358485, 2.5299301773212237, 0.2747054162528902),
        "s0": (63.61309880355542, 1.9088019351673577, 0.32324113960142414),
        "s1": (54.66626769127965, 1.882239592471619, 0.27097620477162315),
    }

    @staticmethod
    def values(params):
        return [params.length_scale, params.amplitude, params.noise_sd]

    def test_fit_map(self):
        for raw, expected in self.FIT_MAP.items():
            assert self.values(fit_map(make_series(raw), PRIOR)) == pytest.approx(
                expected, rel=1e-4
            )

    def test_fit_hierarchical(self):
        rng = np.random.default_rng(5)
        fast = [
            synthetic_series(6.0, rng, dyad_id=f"f{i}", country_id="fast") for i in range(2)
        ]
        slow = [
            synthetic_series(60.0, rng, dyad_id=f"s{i}", country_id="slow") for i in range(2)
        ]
        pooled = fit_hierarchical(fast + slow, PRIOR)
        for dyad, expected in self.HIERARCHICAL.items():
            assert self.values(pooled[dyad]) == pytest.approx(expected, rel=1e-4)


class TestFitMap:
    def test_white_noise_prefers_noise_over_signal(self):
        rng = np.random.default_rng(0)
        series = make_log_series(rng.normal(0.0, 0.5, size=48))
        params = fit_map(series, PRIOR)
        assert params.amplitude**2 / params.noise_sd**2 < 1.0

    def test_long_sine_gets_longer_length_scale(self):
        t = np.arange(72)
        slow = make_log_series(2.0 + 1.5 * np.sin(2 * np.pi * t / 48.0))
        fast = make_log_series(2.0 + 1.5 * np.sin(2 * np.pi * t / 6.0))
        params_slow = fit_map(slow, PRIOR)
        params_fast = fit_map(fast, PRIOR)
        assert params_slow.length_scale > params_fast.length_scale

    def test_constant_series_runs(self):
        series = make_log_series(np.full(24, 2.0))
        params = fit_map(series, PRIOR)
        fit = fit_trend(series, PRIOR, params)
        assert math.isfinite(fit.log_posterior_at_map)
        assert np.all(np.abs(fit.mean - 2.0) < 2.0)  # shrinkage toward the zero prior mean

    def test_trace_non_decreasing(self):
        # from each of fit_map's three starts
        series = make_series([0, 1, 5, 20, 44, 31, 12, 4, 1, 0, 2, 9])
        objective = gp_trend._objective([series], PRIOR)
        for z0 in gp_trend._starts([series], PRIOR):
            _, value, trace = gp_trend._ascend(objective, z0)
            assert len(trace) > 1 and trace[-1] == value
            assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_objective_evaluated_once_at_the_start(self):
        series = make_series([0, 1, 5, 20, 44, 31, 12, 4, 1, 0, 2, 9])
        objective = gp_trend._objective([series], PRIOR)
        z0 = gp_trend._starts([series], PRIOR)[0]
        calls = []

        def counted(z):
            calls.append(z.copy())
            return objective(z)

        _, _, trace = gp_trend._ascend(counted, z0)
        assert sum(np.array_equal(z, z0) for z in calls) == 1
        assert trace[0] == objective(z0)[0]

    @pytest.mark.parametrize("outcome", ["raises", "nan", "inf"])
    def test_non_finite_start_stops_after_one_call(self, outcome):
        calls = []

        def func(z):
            calls.append(z.copy())
            if outcome == "raises":
                raise FactorizationError("indefinite")
            return (math.nan if outcome == "nan" else math.inf), np.ones_like(z)

        z0 = np.array([0.5, -1.0, 2.0])
        z, value, trace = gp_trend._ascend(func, z0)
        assert len(calls) == 1 and np.array_equal(calls[0], z0)
        assert np.array_equal(z, z0) and value == -math.inf and trace == [-math.inf]

    def test_prior_pull_limit(self):
        series = make_series([0, 3, 10, 44, 12, 7, 0, 2, 30, 18, 5, 1])
        tight = PriorSpec(math.log(122.38), 0.001)
        params = fit_map(series, tight)
        assert params.length_scale == pytest.approx(122.38, rel=0.01)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            fit_map(make_series([1, 2, 3]), PRIOR)

    def test_non_finite_series_rejected(self):
        series = make_series([0, 3, 1, 7, 2])
        series.log_fatalities[2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit_map(series, PRIOR)

    def test_all_starts_diverging_raise_fit_error(self):
        series = make_series(
            [0, 1, 5, 20, 44, 31, 12, 4, 1, 0, 2, 9], dyad_id="c7-d3", country_id="c7"
        )

        def dpotrf(a, **kwargs):
            return a, 1  # every factorization fails

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gp_trend, "dpotrf", dpotrf)
            with pytest.raises(FitError, match="all 3 optimizer starts diverged for dyad c7-d3"):
                fit_map(series, PRIOR)
            with pytest.raises(FitError, match="all 3 optimizer starts diverged for country c7"):
                fit_hierarchical(
                    [series, make_series([2, 0, 7, 9, 15, 3], dyad_id="c7-d4", country_id="c7")],
                    PRIOR,
                )

    def test_starts_logged_at_debug(self, caplog):
        series = make_series([0, 1, 5, 20, 44, 31, 12, 4, 1, 0, 2, 9])
        with caplog.at_level(logging.DEBUG, logger="nexus.gp_trend"):
            fit_map(series, PRIOR)
        starts = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(starts) == 3
        assert all("nit" in m and "success True" in m for m in starts)


def synthetic_series(length_scale, rng, n=72, dyad_id="d", country_id="c"):
    """Draw one GP sample path with the given length scale (for recovery tests)."""
    t = np.arange(n)
    params = KernelParams(length_scale, 1.5, 0.3)
    gram = oracle_gram(t, params)
    y = rng.multivariate_normal(np.zeros(n), gram)
    return make_log_series(y - y.min(), dyad_id=dyad_id, country_id=country_id)


class TestFitHierarchical:
    def test_single_dyad_country_matches_fit_map(self):
        series = make_series([0, 1, 5, 20, 44, 31, 12, 4, 1, 0, 2, 9])
        solo = fit_map(series, PRIOR)
        pooled = fit_hierarchical([series], PRIOR)
        assert pooled[series.dyad_id] == solo

    def test_identical_series_get_identical_length_scales(self):
        raw = [0, 1, 5, 20, 44, 31, 12, 4, 1, 0, 2, 9, 15, 60, 80, 40, 10, 2]
        a = make_series(raw, dyad_id="a", country_id="cc")
        b = make_series(raw, dyad_id="b", country_id="cc")
        pooled = fit_hierarchical([a, b], PRIOR)
        assert pooled["a"].length_scale == pytest.approx(pooled["b"].length_scale, rel=1e-9)

    def test_two_countries_recover_length_scale_order(self):
        rng = np.random.default_rng(5)
        fast = [
            synthetic_series(6.0, rng, dyad_id=f"f{i}", country_id="fast") for i in range(2)
        ]
        slow = [
            synthetic_series(60.0, rng, dyad_id=f"s{i}", country_id="slow") for i in range(2)
        ]
        pooled = fit_hierarchical(fast + slow, PRIOR)
        mean_fast = np.mean([pooled[f"f{i}"].length_scale for i in range(2)])
        mean_slow = np.mean([pooled[f"s{i}"].length_scale for i in range(2)])
        assert mean_fast < mean_slow


class TestIterationCap:
    def test_twenty_iterations_reach_the_default_fit(self):
        def values(params):
            return [params.length_scale, params.amplitude, params.noise_sd]

        series = make_series([0, 1, 5, 20, 44, 31, 12, 4, 1, 0, 2, 9])
        assert values(fit_map(series, PRIOR, max_iter=20)) == pytest.approx(
            values(fit_map(series, PRIOR)), rel=1e-6
        )
        rng = np.random.default_rng(5)
        fast = [
            synthetic_series(6.0, rng, dyad_id=f"f{i}", country_id="fast") for i in range(2)
        ]
        slow = [
            synthetic_series(60.0, rng, dyad_id=f"s{i}", country_id="slow") for i in range(2)
        ]
        capped = fit_hierarchical(fast + slow, PRIOR, max_iter=20)
        default = fit_hierarchical(fast + slow, PRIOR)
        for dyad in default:
            assert values(capped[dyad]) == pytest.approx(values(default[dyad]), rel=1e-6)


# ---------------------------------------------------------------------------
# Posterior mean and derivative
# ---------------------------------------------------------------------------

class TestPosteriorMean:
    def test_near_noiseless_interpolation(self):
        series = make_series([0, 2, 9, 30, 12, 3])
        params = KernelParams(2.0, 2.0, 1e-6)
        mean = fit_trend(series, PRIOR, params).mean
        assert np.max(np.abs(mean - series.log_fatalities)) < 1e-6

    def test_zero_observations_give_zero_mean(self):
        series = make_series([0, 0, 0, 0, 0])
        params = KernelParams(3.0, 1.0, 0.3)
        mean = fit_trend(series, PRIOR, params).mean
        assert np.max(np.abs(mean)) < 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(9)
        for n in (2, 4, 6, 8):
            series = make_log_series(rng.normal(1.5, 1.0, size=n))
            params = KernelParams(
                float(rng.uniform(0.5, 20.0)),
                float(rng.uniform(0.2, 3.0)),
                float(rng.uniform(0.05, 1.0)),
            )
            expected = oracle_posterior_mean(series, params, series.months)
            got = fit_trend(series, PRIOR, params).mean
            assert np.max(np.abs(got - expected)) < 1e-8


class TestDerivative:
    def test_linear_mean_exact(self):
        m = 0.5 * np.arange(10)
        assert np.allclose(derivative(m), 0.5)

    def test_constant_mean_zero(self):
        assert np.allclose(derivative(np.full(6, 3.3)), 0.0)

    def test_hand_fixture(self):
        assert np.allclose(derivative(np.array([0.0, 1.0, 4.0])), [1.0, 2.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            derivative(np.array([1.0]))


class TestTrendFitRoundTrip:
    def _saved(self, path):
        series = make_series([0, 1, 5, 20, 44, 31, 12, 4, 1, 0, 2, 9])
        save_trend_fit(fit_trend(series, PRIOR, KernelParams(6.0, 1.5, 0.5)), path)
        return json.loads(path.read_text())

    def test_save_load(self, tmp_path):
        series = make_series([0, 1, 5, 20, 44, 31, 12, 4, 1, 0, 2, 9])
        fit = fit_trend(series, PRIOR, fit_map(series, PRIOR))
        path = tmp_path / "fit.json"
        save_trend_fit(fit, path)
        assert sorted(json.loads(path.read_text())) == [
            "amplitude", "dyad_id", "jitter_level", "length_scale", "log_posterior", "mean",
            "noise_sd", "start",
        ]
        loaded = load_trend_fit(path)
        assert loaded.dyad_id == fit.dyad_id
        assert loaded.params == fit.params
        assert loaded.start == fit.start == series.months[0]
        assert np.array_equal(loaded.mean, fit.mean)
        assert np.array_equal(loaded.derivative, fit.derivative)
        assert np.array_equal(fit.derivative, derivative(fit.mean))

    def test_jitter_level_round_trips(self, tmp_path):
        series = make_series([0, 1, 5, 20, 44, 31, 12, 4, 1, 0, 2, 9])
        with forced_jitter(2):
            fit = fit_trend(series, PRIOR, params=KernelParams(20.0, 1.5, 0.5))
        assert fit.jitter_level == 2
        assert fit_trend(series, PRIOR, params=fit.params).jitter_level == 0
        path = tmp_path / "fit.json"
        save_trend_fit(fit, path)
        assert load_trend_fit(path).jitter_level == 2

    def test_file_in_the_grid_format_names_the_file(self, tmp_path):
        # the format before "start": a month per mean value and a saved derivative
        path = tmp_path / "fit.json"
        payload = self._saved(path)
        first = parse_month(payload.pop("start"))
        payload["grid"] = [format_month(first + i) for i in range(len(payload["mean"]))]
        payload["derivative"] = derivative(payload["mean"]).tolist()
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing field 'start'")):
            load_trend_fit(path)

    def test_one_month_mean_names_the_file(self, tmp_path):
        path = tmp_path / "fit.json"
        payload = self._saved(path)
        payload["mean"] = payload["mean"][:1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            load_trend_fit(path)

    @pytest.mark.parametrize("field, value, message", [
        ("start", None, "not a YYYY-MM month: None"),
        ("dyad_id", 7, "dyad_id is not a str: 7"),
        ("dyad_id", "", "empty dyad_id"),
        ("length_scale", True, "length_scale is not a float: True"),
        ("jitter_level", 2.7, "jitter_level is not an int: 2.7"),
        ("mean", [0.1, "0.2", 0.3], "mean is not a float: '0.2'"),
        ("mean", [0.1, True, 0.3], "mean is not a float: True"),
        ("mean", "0.1", "mean is not a list"),
        ("jitter_level", -1, "jitter_level must be in 0..4: -1"),
        ("jitter_level", 9, "jitter_level must be in 0..4: 9"),
        ("length_scale", 10**400, "length_scale is out of the float range"),
        ("log_posterior", 10**400, "log_posterior is out of the float range"),
        ("mean", [0.1, 10**400], "mean is out of the float range"),
        ("log_posterior", math.nan, "log_posterior_at_map must be finite: nan"),
        ("log_posterior", -math.inf, "log_posterior_at_map must be finite: -inf"),
    ], ids=["start", "dyad_id", "dyad_id-blank", "length_scale", "jitter_level", "mean-string",
            "mean-bool", "mean-not-a-list", "jitter_level-negative", "jitter_level-above-the-levels",
            "length_scale-past-the-float-range", "log_posterior-past-the-float-range",
            "mean-past-the-float-range", "log_posterior-nan", "log_posterior-minus-infinity"])
    def test_field_of_the_wrong_json_type_names_the_file(self, tmp_path, field, value, message):
        path = tmp_path / "fit.json"
        payload = self._saved(path)
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_trend_fit(path)

    @pytest.mark.parametrize("field", ["mean"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_the_file(self, tmp_path, field, bad):
        path = tmp_path / "fit.json"
        payload = self._saved(path)
        payload[field][3] = bad  # json writes NaN, Infinity, -Infinity
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*must be finite"):
            load_trend_fit(path)
