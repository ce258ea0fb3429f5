"""Per-dyad Gaussian-process trend extraction on monthly log-fatalities.

The trend of a dyad's log-fatality series is modeled as a zero-mean GP
with a Matérn 3/2 kernel plus i.i.d. observation noise. Hyperparameters
(length scale, amplitude, noise sd) are fit by MAP under a LogNormal
length-scale prior and half-Normal amplitude and noise priors, by scipy's
L-BFGS-B in log space from three starts, with two-stage country-level
pooling of the length scale when a country has several dyads. One
objective (a group's shared length scale, each dyad's amplitude and
noise; a single dyad is the group of one) and one multi-start driver
serve every fit. Given those parameters, ``fit_trend`` delivers per dyad
the posterior mean on the series' own months, whose numerical first
derivative downstream code discretizes into escalation states.

The objective returns its exact gradient in the log-parameters with its
value (Rasmussen & Williams, *GPML* 2006, eq. 5.9, plus the priors'
terms). ``_kernel`` alone evaluates the Matérn kernel, ``_factorize`` alone
factorizes K = K_f + sigma^2 I (+ jitter) and ``_log_prior`` alone sums the
priors, for the objective, ``log_posterior`` and ``fit_trend`` alike.
A series' months are contiguous and the kernel is stationary, so K is
symmetric Toeplitz: the kernel is evaluated on the n lags and K gathered
from that first column. Series run to a few hundred months at most, so
dense LAPACK is cheap and exact: per dyad and evaluation one ``potrf``
factorizes K and one ``potrs`` gives alpha = K^-1 y and x = K^-1 e_0, the
first column of K^-1, so potrf's n^3 / 3 flops are the only cubic work.
The gradient's trace terms need only the diagonal sums of K^-1, which
the Gohberg-Semencul formula (Gohberg & Semencul 1972; Trench 1964)
gives from x in O(n^2) (see ``_log_marginal_and_grad``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
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
        if not math.isfinite(self.log_median):
            raise ValueError(f"log_median must be finite: {self.log_median}")
        if not (math.isfinite(self.log_sd) and self.log_sd > 0.0):
            raise ValueError(f"log_sd must be positive: {self.log_sd}")


@dataclass
class TrendFit:
    """MAP hyperparameters plus the posterior mean on months start, start + 1, ...

    ``derivative`` is ``derivative(mean)``, not passed in; a one-month mean raises.
    """

    dyad_id: str
    params: KernelParams
    start: int  # month index of mean[0]
    mean: np.ndarray
    log_posterior_at_map: float
    jitter_level: int = 0  # cholesky_with_jitter's level for the posterior factorization
    derivative: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not np.isfinite(self.mean).all():
            raise ValueError("mean must be finite")
        if not math.isfinite(self.log_posterior_at_map):
            raise ValueError(f"log_posterior_at_map must be finite: {self.log_posterior_at_map}")
        if not 0 <= self.jitter_level <= _JITTER_LEVELS:
            raise ValueError(f"jitter_level must be in 0..{_JITTER_LEVELS}: {self.jitter_level}")
        self.derivative = derivative(self.mean)


# ---------------------------------------------------------------------------
# Kernel and linear algebra
# ---------------------------------------------------------------------------

def _kernel(
    distance: np.ndarray, params: KernelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """r = sqrt(3) d / l, exp(-r) and the Matérn 3/2 kernel K_f = eta^2 (1 + r) exp(-r).

    `distance` holds month distances d >= 0; the objective passes the lags
    0..n-1 (see ``_series_data``), and the length-scale gradient reuses r
    and exp(-r).
    """
    r = SQRT3 * distance / params.length_scale
    decay = np.exp(-r)
    return r, decay, params.amplitude**2 * (1.0 + r) * decay


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
    """Integer lags |i - j| of the series' months and its log-fatalities, checked.

    The objective and the posterior mean need contiguous months, which
    ``DyadMonthSeries`` guarantees: K is then the symmetric Toeplitz matrix
    gathered on these lags from its first column.
    """
    y = np.asarray(series.log_fatalities, dtype=float)
    if y.size == 0 or not np.all(np.isfinite(y)):
        raise ValueError("log-fatalities must be finite and non-empty")
    i = np.arange(y.size)
    return np.abs(i[:, None] - i[None, :]), y


def _factorize(column: np.ndarray, lag: np.ndarray, y: np.ndarray, params: KernelParams):
    """Log marginal, alpha = K^-1 y, x = K^-1 e_0 and the jitter level.

    K = K_f + sigma^2 I (+ jitter) is gathered on `lag` from `column`, the
    K_f of ``_kernel`` on the lags 0..n-1, which is left as it is.
    """
    noisy = column.copy()
    noisy[0] += params.noise_sd**2
    L, level = cholesky_with_jitter(noisy[lag], params.amplitude)
    rhs = np.zeros((y.size, 2), order="F")
    rhs[:, 0], rhs[0, 1] = y, 1.0
    solved = dpotrs(L, rhs, lower=1)[0]
    alpha = solved[:, 0]
    value = float(-0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * y.size * LOG_2PI)
    return value, alpha, solved[:, 1], level


def _inverse_diagonal_sums(x: np.ndarray) -> np.ndarray:
    """Sums s_k of the diagonals k = 0..n-1 of K^-1, for K symmetric Toeplitz and x = K^-1 e_0.

    By the Gohberg-Semencul formula (Gohberg & Semencul 1972; Trench 1964),
    x_0 K^-1 = L(x) L(x)^T - L(z) L(z)^T for z = (0, x_(n-1), ..., x_1) and
    L(v) the lower Toeplitz matrix with first column v. The k-th diagonal
    of L(v) L(v)^T sums to sum_p (n - k - p) v_p v_(p+k), one correlation.
    """
    n = x.size
    weight = n - np.arange(n)
    x_sums, z_sums = (
        np.correlate(weight * v, v, "full")[n - 1:] for v in (x, np.concatenate(([0.0], x[:0:-1])))
    )
    return (x_sums - z_sums) / x[0]


def _log_marginal_and_grad(
    lag: np.ndarray, y: np.ndarray, params: KernelParams
) -> tuple[float, np.ndarray, int]:
    """Log marginal, its gradient in (ln l, ln eta, ln sigma), and the jitter level.

    GPML eq. 5.9: d/d theta = 1/2 tr((alpha alpha^T - K^-1) dK/d theta), for
    the matrix actually factorized, K = K_f + sigma^2 I + jitter I, where the
    jitter of a level above 0 scales with eta^2. With r = sqrt(3) k / l on
    the lags k:
      - dK/d ln eta = 2 (K - sigma^2 I), so the term is
        y^T alpha - sigma^2 alpha^T alpha - n + sigma^2 tr K^-1;
      - dK/d ln sigma = 2 sigma^2 I, so the term is sigma^2 (alpha^T alpha - tr K^-1);
      - dK/d ln l is the Toeplitz matrix of d_k = eta^2 r^2 e^-r, zero at
        lag 0, so the term is sum_k d_k (c_k - s_k), for c_k and s_k the sums
        of the k-th diagonal of alpha alpha^T and of K^-1.
    K is symmetric Toeplitz, so ``_inverse_diagonal_sums`` gives every s_k,
    tr K^-1 = s_0 among them, from x = K^-1 e_0 by the Gohberg-Semencul
    formula (Gohberg & Semencul 1972; Trench 1964). Cost: one potrf, and
    one potrs for alpha and x together, plus O(n^2) work; K^-1 is never
    formed, and potrf's n^3 / 3 flops are the only cubic work.
    """
    eta, sigma = params.amplitude, params.noise_sd
    r, decay, column = _kernel(lag[0], params)
    value, alpha, x, level = _factorize(column, lag, y, params)
    s = _inverse_diagonal_sums(x)
    c = np.correlate(alpha, alpha, "full")[y.size - 1:]
    trace, alpha_sq = s[0], c[0]
    grad = np.array(
        [
            eta**2 * r**2 * decay @ (c - s),
            y @ alpha - sigma**2 * alpha_sq - y.size + sigma**2 * trace,
            sigma**2 * (alpha_sq - trace),
        ]
    )
    return value, grad, level


def log_marginal(series: DyadMonthSeries, params: KernelParams) -> float:
    """Zero-mean GP log marginal likelihood of the series under the kernel."""
    lag, y = _series_data(series)
    return _factorize(_kernel(lag[0], params)[2], lag, y, params)[0]


def _log_prior(theta, prior: PriorSpec) -> float:
    """Log prior of the positive theta = (l, eta_1, sigma_1, eta_2, ...), summed left to right.

    The LogNormal length-scale prior is taken in its log-parameterization:
    over ln l the density is Normal(log_median, log_sd), which is maximized
    at the median and becomes flat (constant in l) as log_sd grows, the
    behavior the optimizer relies on. Each later entry, an amplitude or a
    noise sd, is half-Normal with sd ``AMPLITUDE_NOISE_PRIOR_SD``.
    """
    z = (math.log(theta[0]) - prior.log_median) / prior.log_sd
    total = -math.log(prior.log_sd) - 0.5 * LOG_2PI - 0.5 * z * z
    sd = AMPLITUDE_NOISE_PRIOR_SD
    for scale in theta[1:]:
        total += 0.5 * math.log(2.0 / math.pi) - math.log(sd) - 0.5 * (scale / sd) ** 2
    return total


def log_posterior(series: DyadMonthSeries, params: KernelParams, prior: PriorSpec) -> float:
    theta = (params.length_scale, params.amplitude, params.noise_sd)
    return log_marginal(series, params) + _log_prior(theta, prior)


# ---------------------------------------------------------------------------
# MAP optimization (L-BFGS-B in log space)
# ---------------------------------------------------------------------------

def _ascend(func, z0: np.ndarray, max_iter: int = 200):
    """Maximize func from z0 by L-BFGS-B inside the +-_LOG_BOUND box.

    func returns (value, gradient); the gradient is analytic, so z0 costs
    one call and each iteration one per line-search trial. Points where func
    raises (an unfactorizable Gram matrix, invalid parameters) or is not
    finite score -inf with a zero gradient, so such a z0 is the end.
    Returns (z, value, trace) where trace holds the objective at the start
    and after every iteration; L-BFGS-B only accepts improving steps, so
    it is non-decreasing. scipy's iteration count and convergence flag
    are logged at DEBUG.
    """
    trace: list[float] = []  # its first entry is scipy's first call, at z0

    def negated(z: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            value, grad = func(z)
        except (FactorizationError, ValueError, OverflowError):
            value = -math.inf
        if not math.isfinite(value):
            value, grad = -math.inf, np.zeros_like(z)
        if not trace:
            trace.append(value)
        return -value, -grad

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


def _objective(group: list[DyadMonthSeries], prior: PriorSpec):
    """z = (ln l, ln eta_1, ln sigma_1, ln eta_2, ...) -> (log posterior, gradient) of `group`.

    One length scale shared by the group under the LogNormal prior, and
    each dyad's amplitude and noise under the half-Normal priors. A single
    dyad is the group of one; its value is then ``log_posterior`` bit for bit.
    """
    data = [_series_data(series) for series in group]

    def objective(z: np.ndarray) -> tuple[float, np.ndarray]:
        theta = np.exp(z)
        marginal = 0.0
        grad = -np.exp(2.0 * z) / AMPLITUDE_NOISE_PRIOR_SD**2  # half-Normal terms
        grad[0] = -(z[0] - prior.log_median) / prior.log_sd**2
        for i, (lag, y) in enumerate(data):
            params = KernelParams(theta[0], theta[1 + 2 * i], theta[2 + 2 * i])
            value, dyad_grad, _ = _log_marginal_and_grad(lag, y, params)
            marginal += value
            grad[0] += dyad_grad[0]
            grad[1 + 2 * i : 3 + 2 * i] += dyad_grad[1:]
        return marginal + _log_prior(theta, prior), grad

    return objective


def _starts(group: list[DyadMonthSeries], prior: PriorSpec) -> list[np.ndarray]:
    """The three optimizer starts (ln l, ln eta_1, ln sigma_1, ln eta_2, ...) for `group`.

    The first takes the prior median length scale and each series'
    data-scale amplitude (its sd) and noise (half its sd). The other two
    take the mean data-scale length scale of the group (a twelfth of each
    series' length, at least 2 months), and scale it and every amplitude
    and noise by 0.5 and by 2. The length-scale posterior is often bimodal
    (smooth-trend vs noise readings), so the starts cover both the prior's
    basin and the data-scale one.
    """
    scales, ells = [], []
    for series in group:
        spread = float(np.std(np.asarray(series.log_fatalities, dtype=float)))
        scales.append((spread if spread > 1e-3 else 1.0, max(0.5 * spread, 0.1)))
        ells.append(max(2.0, len(series.log_fatalities) / 12.0))
    data_ell = float(np.mean(ells))
    starts = []
    for ell, factor in (
        (math.exp(prior.log_median), 1.0),
        (0.5 * data_ell, 0.5),
        (2.0 * data_ell, 2.0),
    ):
        values = [ell]
        for eta, sigma in scales:
            values.extend([eta * factor, sigma * factor])
        starts.append(np.log(values))
    return starts


def _fit_group(group: list[DyadMonthSeries], prior: PriorSpec, max_iter: int) -> np.ndarray:
    """MAP z of `_objective(group, prior)`: the best optimum _ascend reaches from `_starts`.

    Ties go to the first start. Raises :class:`FitError`, naming the dyad
    (the country of a larger group), when every start ends non-finite.
    """
    objective = _objective(group, prior)
    starts = _starts(group, prior)
    best: tuple[float, np.ndarray] | None = None
    for z0 in starts:
        z, value, _ = _ascend(objective, z0, max_iter=max_iter)
        if math.isfinite(value) and (best is None or value > best[0]):
            best = (value, z)
    if best is None:
        what = f"dyad {group[0].dyad_id}" if len(group) == 1 else f"country {group[0].country_id}"
        raise FitError(f"all {len(starts)} optimizer starts diverged for {what}")
    return best[1]


def fit_map(series: DyadMonthSeries, prior: PriorSpec, max_iter: int = 200) -> KernelParams:
    """MAP kernel hyperparameters by multi-start L-BFGS-B in log space, from `_starts`."""
    if len(series.log_fatalities) < 4:
        raise ValueError(f"series too short to fit: {len(series.log_fatalities)} months")
    return KernelParams(*np.exp(_fit_group([series], prior, max_iter)))


def fit_hierarchical(
    series_list: list[DyadMonthSeries],
    prior: PriorSpec,
    max_iter: int = 200,
) -> dict[str, KernelParams]:
    """Two-stage empirical pooling of the length scale within countries.

    Stage 1 fits one country length scale by maximizing the sum of the
    per-dyad log posteriors (amplitude and noise free per dyad, each under
    its half-Normal prior) with the global LogNormal prior taken once.
    Stage 2 refits each dyad with the prior re-centered at the country
    length scale and log-sd halved. Countries with a single dyad skip
    stage 1 and keep the global prior.
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
        ell_c = math.exp(_fit_group(group, prior, max_iter)[0])
        logger.info("country %s pooled length scale %.3f", country, ell_c)
        pooled = PriorSpec(log_median=math.log(ell_c), log_sd=prior.log_sd / 2.0)
        for series in group:
            results[series.dyad_id] = fit_map(series, pooled, max_iter=max_iter)
    return results


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
    """Posterior mean K_f (K_f + sigma^2 I)^-1 y on the series' own months.

    `params` come from :func:`fit_map` or :func:`fit_hierarchical`; `prior`
    only scores them for ``log_posterior_at_map``.
    """
    lag, y = _series_data(series)
    column = _kernel(lag[0], params)[2]
    _, alpha, _, level = _factorize(column, lag, y, params)
    mean = column[lag] @ alpha
    return TrendFit(
        dyad_id=series.dyad_id,
        params=params,
        start=int(series.months[0]),
        mean=mean,
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
        "start": months.format_month(fit.start),
        "mean": [float(v) for v in fit.mean],
        "log_posterior": fit.log_posterior_at_map,
        "jitter_level": fit.jitter_level,
    })


def load_trend_fit(path: str | Path) -> TrendFit:
    return _files.read_json(path, lambda payload: TrendFit(
        dyad_id=_files.dyad(_files.field(payload, "dyad_id", str)),
        params=KernelParams(*(
            _files.field(payload, name, float) for name in ("length_scale", "amplitude", "noise_sd")
        )),
        start=months.parse_month(payload["start"]),
        mean=_files.numbers(payload, "mean"),
        log_posterior_at_map=_files.field(payload, "log_posterior", float),
        jitter_level=_files.field(payload, "jitter_level", int),
    ))
