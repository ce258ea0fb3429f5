"""Per-dyad Gaussian-process trend extraction on monthly log-fatalities.

The trend of a dyad's log-fatality series is modeled as a zero-mean GP
with a Matérn 3/2 kernel plus i.i.d. observation noise. Hyperparameters
(length scale, amplitude, noise sd) are fit by MAP under a LogNormal
length-scale prior, by scipy's L-BFGS-B in log space from three starts
(one multi-start driver serves both fits), with two-stage country-level
pooling of the length scale when a country has several dyads. Given those
parameters, ``fit_trend`` delivers per dyad the posterior mean on the
series' own months and its numerical first derivative, which downstream
code discretizes into escalation states.

Each objective returns its exact gradient in the log-parameters with its
value (Rasmussen & Williams, *GPML* 2006, eq. 5.9, plus the priors'
terms). Series run to a few hundred months at most, so dense LAPACK is
cheap and exact: per dyad and evaluation one ``potrf`` factorizes
K = K_f + sigma^2 I (+ jitter), one ``potrs`` gives alpha = K^-1 y and one
``potri`` gives the lower triangle of K^-1, with nothing else of order n^3.
Only the length-scale term reads that triangle. dK/d ln eta = 2 (K - sigma^2 I)
(the jitter scales with eta^2), so the amplitude and noise terms need only
y^T alpha, alpha^T alpha and tr K^-1 (see ``_log_marginal_and_grad``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.optimize import minimize

from . import _files, months
from .ingest import DyadMonthSeries

logger = logging.getLogger(__name__)

SQRT3 = math.sqrt(3.0)
LOG_2PI = math.log(2.0 * math.pi)

# Weakly-informative half-Normal scale for the amplitude and noise priors,
# on the log-fatality scale.
AMPLITUDE_NOISE_PRIOR_SD = 2.0

# Jitter policy: first level is 1e-8 * eta^2, escalated x10 at most 3 times.
_JITTER_BASE = 1e-8
_JITTER_LEVELS = 4

# Box constraint on log-parameters; purely a numerical guard against
# runaway line searches (exp(+-12) is far outside any plausible optimum).
_LOG_BOUND = 12.0


class FactorizationError(RuntimeError):
    """Gram matrix stayed indefinite through every jitter escalation."""


class FitError(RuntimeError):
    """Every optimizer start diverged to a non-finite objective."""


@dataclass(frozen=True)
class KernelParams:
    """Matérn 3/2 hyperparameters plus observation noise sd (months / log-fatalities)."""

    length_scale: float
    amplitude: float
    noise_sd: float

    def __post_init__(self) -> None:
        for name in ("length_scale", "amplitude", "noise_sd"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite: {value}")


@dataclass(frozen=True)
class PriorSpec:
    """LogNormal prior on the length scale: ln l ~ Normal(log_median, log_sd)."""

    log_median: float
    log_sd: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.log_sd) and self.log_sd > 0.0):
            raise ValueError(f"log_sd must be positive: {self.log_sd}")


@dataclass
class TrendFit:
    """MAP hyperparameters plus posterior mean and derivative on the monthly grid."""

    dyad_id: str
    params: KernelParams
    grid: np.ndarray
    mean: np.ndarray
    derivative: np.ndarray
    log_posterior_at_map: float
    jitter_level: int = 0  # cholesky_with_jitter's level for the posterior factorization


# ---------------------------------------------------------------------------
# Kernel and linear algebra
# ---------------------------------------------------------------------------

def matern32(distance, length_scale: float, amplitude: float):
    """Matérn 3/2 covariance at the given distance(s) in months.

    k(d) = eta^2 (1 + sqrt(3) d / l) exp(-sqrt(3) d / l).
    """
    if not (math.isfinite(length_scale) and length_scale > 0.0):
        raise ValueError(f"length_scale must be positive and finite: {length_scale}")
    if not (math.isfinite(amplitude) and amplitude > 0.0):
        raise ValueError(f"amplitude must be positive and finite: {amplitude}")
    d = np.asarray(distance, dtype=float)
    if np.any(~np.isfinite(d)) or np.any(d < 0):
        raise ValueError("distances must be finite and non-negative")
    r = SQRT3 * d / length_scale
    out = amplitude**2 * (1.0 + r) * np.exp(-r)
    return out if out.ndim else float(out)


def cholesky_with_jitter(gram: np.ndarray, amplitude: float) -> tuple[np.ndarray, int]:
    """Lower Cholesky factor, escalating diagonal jitter on failure.

    Returns (L, level) where level 0 means no jitter was needed and level
    k used jitter 1e-8 * 10^(k-1) * amplitude^2. Raises
    :class:`FactorizationError` for a non-finite gram (LAPACK would return
    a NaN factor as a success) and once the escalations are exhausted.
    """
    if not np.isfinite(gram).all():
        raise FactorizationError("gram matrix is not finite")
    for level in range(_JITTER_LEVELS + 1):
        jittered = gram
        if level:
            jittered = gram.copy()
            jitter = _JITTER_BASE * 10 ** (level - 1) * amplitude**2
            jittered.flat[:: gram.shape[0] + 1] += jitter
        L, info = dpotrf(jittered, lower=1, clean=1)
        if info == 0:
            return L, level
    raise FactorizationError(
        f"gram matrix not positive definite after {_JITTER_LEVELS} jitter levels"
    )


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def _series_data(series: DyadMonthSeries) -> tuple[np.ndarray, np.ndarray]:
    """Month-distance matrix and log-fatalities, checked once per fit."""
    x = np.asarray(series.months, dtype=float)
    y = np.asarray(series.log_fatalities, dtype=float)
    if y.size == 0 or not np.all(np.isfinite(y)):
        raise ValueError("log-fatalities must be finite and non-empty")
    if len(np.unique(x)) != len(x):
        raise ValueError("time points must be distinct")
    return np.abs(x[:, None] - x[None, :]), y


def _factorize(gram: np.ndarray, y: np.ndarray, amplitude: float):
    """Log marginal, alpha = K^-1 y, the Cholesky factor of K = gram (+ jitter), jitter level."""
    L, level = cholesky_with_jitter(gram, amplitude)
    alpha = dpotrs(L, y, lower=1)[0]
    value = float(-0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * y.size * LOG_2PI)
    return value, alpha, L, level


def _log_marginal_and_grad(
    distance: np.ndarray, y: np.ndarray, params: KernelParams
) -> tuple[float, np.ndarray, int]:
    """Log marginal, its gradient in (ln l, ln eta, ln sigma), and the jitter level.

    GPML eq. 5.9: d/d theta = 1/2 tr((alpha alpha^T - K^-1) dK/d theta), for
    the matrix actually factorized, K = K_f + sigma^2 I + jitter I, where the
    jitter of a level above 0 scales with eta^2. With r = sqrt(3) d / l:
      - dK/d ln eta = 2 (K - sigma^2 I), so the term is
        y^T alpha - sigma^2 alpha^T alpha - n + sigma^2 tr K^-1;
      - dK/d ln sigma = 2 sigma^2 I, so the term is sigma^2 (alpha^T alpha - tr K^-1);
      - dK/d ln l = eta^2 r^2 e^-r is zero on the diagonal, so the term is
        1/2 alpha^T dK alpha - <tril K^-1, dK>.
    Cost: one potrf, one potrs and one potri (the lower triangle of K^-1,
    its upper triangle left zero), plus O(n^2) elementwise work.
    """
    ell, eta, sigma = params.length_scale, params.amplitude, params.noise_sd
    n = y.size
    r = SQRT3 * distance / ell
    decay = np.exp(-r)
    gram = eta**2 * (1.0 + r) * decay  # the arithmetic of matern32, so the same bits
    gram.flat[:: n + 1] += sigma**2
    value, alpha, L, level = _factorize(gram, y, eta)
    inverse_lower = dpotri(L, lower=1)[0]
    trace = np.trace(inverse_lower)
    alpha_sq = alpha @ alpha
    dk_ell = eta**2 * r**2 * decay
    grad = np.array(
        [
            0.5 * alpha @ dk_ell @ alpha - np.vdot(inverse_lower, dk_ell),
            y @ alpha - sigma**2 * alpha_sq - n + sigma**2 * trace,
            sigma**2 * (alpha_sq - trace),
        ]
    )
    return value, grad, level


def _factorize_series(series: DyadMonthSeries, params: KernelParams):
    """K_f on the series' own months, then _factorize's (value, alpha, L, level) for it."""
    distance, y = _series_data(series)
    k_f = matern32(distance, params.length_scale, params.amplitude)
    gram = k_f.copy()
    gram.flat[:: y.size + 1] += params.noise_sd**2
    return (k_f, *_factorize(gram, y, params.amplitude))


def log_marginal(series: DyadMonthSeries, params: KernelParams) -> float:
    """Zero-mean GP log marginal likelihood of the series under the kernel."""
    return _factorize_series(series, params)[1]


def length_scale_log_prior(length_scale: float, prior: PriorSpec) -> float:
    """LogNormal length-scale prior, taken in its log-parameterization.

    Over z = ln l the density is Normal(log_median, log_sd); this form is
    maximized at the median and becomes flat (constant in l) as
    log_sd grows, which is the behavior the optimizer relies on.
    """
    if length_scale <= 0.0:
        return -math.inf
    z = (math.log(length_scale) - prior.log_median) / prior.log_sd
    return -math.log(prior.log_sd) - 0.5 * LOG_2PI - 0.5 * z * z


def halfnormal_logpdf(x: float, sd: float) -> float:
    if x < 0.0:
        return -math.inf
    return 0.5 * math.log(2.0 / math.pi) - math.log(sd) - 0.5 * (x / sd) ** 2


def log_prior(params: KernelParams, prior: PriorSpec) -> float:
    """LogNormal prior on the length scale, half-Normal on amplitude and noise."""
    return (
        length_scale_log_prior(params.length_scale, prior)
        + halfnormal_logpdf(params.amplitude, AMPLITUDE_NOISE_PRIOR_SD)
        + halfnormal_logpdf(params.noise_sd, AMPLITUDE_NOISE_PRIOR_SD)
    )


def log_posterior(series: DyadMonthSeries, params: KernelParams, prior: PriorSpec) -> float:
    return log_marginal(series, params) + log_prior(params, prior)


# ---------------------------------------------------------------------------
# MAP optimization (L-BFGS-B in log space)
# ---------------------------------------------------------------------------

def _ascend(func, z0: np.ndarray, max_iter: int = 200):
    """Maximize func from z0 by L-BFGS-B inside the +-_LOG_BOUND box.

    func returns (value, gradient); the gradient is analytic, so each
    iteration costs one call per line-search trial. Points where func
    raises (an unfactorizable Gram matrix, invalid parameters) score -inf.
    Returns (z, value, trace) where trace holds the objective at the start
    and after every iteration; L-BFGS-B only accepts improving steps, so
    it is non-decreasing. scipy's iteration count and convergence flag
    are logged at DEBUG.
    """

    def negated(z: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            value, grad = func(z)
        except (FactorizationError, ValueError, OverflowError):
            return math.inf, np.zeros_like(z)
        return -value, -grad

    trace = [-negated(z0)[0]]
    if not math.isfinite(trace[0]):
        return z0, trace[0], trace
    result = minimize(
        negated,
        z0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(-_LOG_BOUND, _LOG_BOUND)] * z0.size,
        options={"maxiter": max_iter},
        callback=lambda intermediate_result: trace.append(-intermediate_result.fun),
    )
    logger.debug(
        "L-BFGS-B from z0 %s: nit %d, success %s (%s)",
        z0, result.nit, result.success, result.message,
    )
    return result.x, -float(result.fun), trace


def _default_init(series: DyadMonthSeries) -> KernelParams:
    y = np.asarray(series.log_fatalities, dtype=float)
    spread = float(np.std(y))
    eta = spread if spread > 1e-3 else 1.0
    sigma = max(0.5 * spread, 0.1)
    # data-scale length scale so the scaled starts probe the short-l basin
    ell = max(2.0, len(y) / 12.0)
    return KernelParams(length_scale=ell, amplitude=eta, noise_sd=sigma)


def _map_objective(series: DyadMonthSeries, prior: PriorSpec):
    """fit_map's objective: z = (ln l, ln eta, ln sigma) -> (log posterior, gradient)."""
    distance, y = _series_data(series)

    def objective(z: np.ndarray) -> tuple[float, np.ndarray]:
        params = KernelParams(*np.exp(z))
        value, grad, _ = _log_marginal_and_grad(distance, y, params)
        prior_grad = -np.exp(2.0 * z) / AMPLITUDE_NOISE_PRIOR_SD**2  # half-Normal terms
        prior_grad[0] = -(z[0] - prior.log_median) / prior.log_sd**2
        return value + log_prior(params, prior), grad + prior_grad

    return objective


def _pooled_objective(group: list[DyadMonthSeries], prior: PriorSpec):
    """Stage 1: (ln l_c, ln eta_1, ln sigma_1, ...) -> (sum of log marginals + prior, gradient)."""
    data = [_series_data(series) for series in group]

    def objective(z: np.ndarray) -> tuple[float, np.ndarray]:
        ell = math.exp(z[0])
        total = length_scale_log_prior(ell, prior)
        grad = np.empty_like(z)
        grad[0] = -(z[0] - prior.log_median) / prior.log_sd**2
        for i, (distance, y) in enumerate(data):
            params = KernelParams(ell, math.exp(z[1 + 2 * i]), math.exp(z[2 + 2 * i]))
            value, dyad_grad, _ = _log_marginal_and_grad(distance, y, params)
            total += value
            grad[0] += dyad_grad[0]
            grad[1 + 2 * i : 3 + 2 * i] = dyad_grad[1:]
        return total, grad

    return objective


def _best_start(objective, starts: list[np.ndarray], max_iter: int, what: str) -> np.ndarray:
    """The optimum reached from the best of `starts` by _ascend (the first on ties).

    Raises :class:`FitError`, naming `what` and the number of starts, when
    every start ends at a non-finite objective.
    """
    best: tuple[float, np.ndarray] | None = None
    for z0 in starts:
        z, value, _ = _ascend(objective, z0, max_iter=max_iter)
        if math.isfinite(value) and (best is None or value > best[0]):
            best = (value, z)
    if best is None:
        raise FitError(f"all {len(starts)} optimizer starts diverged for {what}")
    return best[1]


def fit_map(series: DyadMonthSeries, prior: PriorSpec, max_iter: int = 200) -> KernelParams:
    """MAP kernel hyperparameters by multi-start L-BFGS-B in log space.

    Three fixed starts from the data-scale init vector: with its length
    scale replaced by the prior median, then scaled by 0.5 and by 2. The
    length-scale posterior is often bimodal (smooth-trend vs noise
    readings), so the starts cover both the prior's basin and the
    data-scale one.
    """
    if len(series.months) < 4:
        raise ValueError(f"series too short to fit: {len(series.months)} months")
    init = _default_init(series)
    starts = [np.log([math.exp(prior.log_median), init.amplitude, init.noise_sd])]
    for factor in (0.5, 2.0):
        starts.append(
            np.log([init.length_scale * factor, init.amplitude * factor, init.noise_sd * factor])
        )
    z = _best_start(_map_objective(series, prior), starts, max_iter, f"dyad {series.dyad_id}")
    return KernelParams(*np.exp(z))


def fit_hierarchical(
    series_list: list[DyadMonthSeries],
    prior: PriorSpec,
    max_iter: int = 200,
) -> dict[str, KernelParams]:
    """Two-stage empirical pooling of the length scale within countries.

    Stage 1 fits one country length scale by maximizing the sum of the
    per-dyad log marginals (amplitude and noise free per dyad) plus the
    global LogNormal prior. Stage 2 refits each dyad with the prior
    re-centered at the country length scale and log-sd halved. Countries
    with a single dyad skip stage 1 and keep the global prior.
    """
    by_country: dict[str, list[DyadMonthSeries]] = {}
    for series in series_list:
        by_country.setdefault(series.country_id, []).append(series)

    results: dict[str, KernelParams] = {}
    for country in sorted(by_country):
        group = sorted(by_country[country], key=lambda s: s.dyad_id)
        if len(group) == 1:
            results[group[0].dyad_id] = fit_map(group[0], prior, max_iter=max_iter)
            continue
        ell_c = _fit_country_length_scale(group, prior, max_iter=max_iter)
        logger.info("country %s pooled length scale %.3f", country, ell_c)
        pooled = PriorSpec(log_median=math.log(ell_c), log_sd=prior.log_sd / 2.0)
        for series in group:
            results[series.dyad_id] = fit_map(series, pooled, max_iter=max_iter)
    return results


def _fit_country_length_scale(
    group: list[DyadMonthSeries], prior: PriorSpec, max_iter: int = 200
) -> float:
    """Stage-1 shared length scale: joint L-BFGS-B over (ln l_c, ln eta_d, ln sigma_d)."""
    inits = [_default_init(series) for series in group]
    data_ell = float(np.mean([init.length_scale for init in inits]))
    starts = []
    for ell0, factor in (
        (math.exp(prior.log_median), 1.0),
        (0.5 * data_ell, 0.5),
        (2.0 * data_ell, 2.0),
    ):
        z0 = [math.log(ell0)]
        for init in inits:
            z0.extend([math.log(init.amplitude * factor), math.log(init.noise_sd * factor)])
        starts.append(np.array(z0))
    what = f"country {group[0].country_id}"
    return math.exp(_best_start(_pooled_objective(group, prior), starts, max_iter, what)[0])


# ---------------------------------------------------------------------------
# Posterior mean and derivative
# ---------------------------------------------------------------------------

def derivative(mean: np.ndarray) -> np.ndarray:
    """Numerical first derivative on a unit monthly grid.

    Central differences inside, one-sided at the two endpoints; units are
    log-fatalities per month.
    """
    return np.gradient(np.asarray(mean, dtype=float))


def fit_trend(series: DyadMonthSeries, prior: PriorSpec, params: KernelParams) -> TrendFit:
    """Posterior mean K_f (K_f + sigma^2 I)^-1 y on the series' own months, and its derivative.

    `params` come from :func:`fit_map` or :func:`fit_hierarchical`; `prior`
    only scores them for ``log_posterior_at_map``.
    """
    k_f, _, alpha, _, level = _factorize_series(series, params)
    mean = k_f @ alpha
    return TrendFit(
        dyad_id=series.dyad_id,
        params=params,
        grid=np.asarray(series.months, dtype=int),
        mean=mean,
        derivative=derivative(mean),
        log_posterior_at_map=log_posterior(series, params, prior),
        jitter_level=level,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_trend_fit(fit: TrendFit, path: str | Path) -> None:
    _files.write_json(path, {
        "dyad_id": fit.dyad_id,
        "length_scale": fit.params.length_scale,
        "amplitude": fit.params.amplitude,
        "noise_sd": fit.params.noise_sd,
        "grid": [months.format_month(int(m)) for m in fit.grid],
        "mean": [float(v) for v in fit.mean],
        "derivative": [float(v) for v in fit.derivative],
        "log_posterior": fit.log_posterior_at_map,
        "jitter_level": fit.jitter_level,
    })


def load_trend_fit(path: str | Path) -> TrendFit:
    return _files.read_json(path, lambda payload: TrendFit(
        dyad_id=payload["dyad_id"],
        params=KernelParams(
            payload["length_scale"], payload["amplitude"], payload["noise_sd"]
        ),
        grid=np.array([months.parse_month(m) for m in payload["grid"]], dtype=int),
        mean=np.array(payload["mean"], dtype=float),
        derivative=np.array(payload["derivative"], dtype=float),
        log_posterior_at_map=float(payload["log_posterior"]),
        jitter_level=int(payload["jitter_level"]),
    ))
