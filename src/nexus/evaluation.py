"""Forecast evaluation: conflictology baseline, accuracy, AUROC and AP, bootstrap CIs.

The baseline bootstraps the trailing window of observed states (shifted
back by the forecast step to avoid contamination) into pseudo-probability
vectors. It returns the bootstrap's exact limit: pooled over resamples,
the class shares equal the window's empirical state frequencies (exactly
so for a balanced bootstrap), so no resampling is done and the result
depends on neither the resample count nor the seed. Score-based metrics
(AP, AUROC) pool all (record, class) pairs one-versus-rest before
computation ("micro-aggregation where probabilities are involved"). The
count-based metric is accuracy: pooled TP/FP/FN of a single-label
multiclass problem make micro recall, precision and F1 all equal it, so
it is reported once. Every interval is a percentile bootstrap interval
at ``CI_LEVEL``.

A report group is the records of one (step, kind, source), one per (dyad,
month); N of them are the arrays ``probs``, float (N, 4), and ``actual``,
int (N,), the observed state codes, which ``emit_report`` builds once per
group. A resample is a vector of record multiplicities (Field & Welsh,
"Bootstrapping clustered data", JRSS-B 2007), so B resamples are an int
(B, N) ``weights`` matrix, and each ``METRIC_FUNCS`` entry is
``metric(probs, actual, weights) -> (B, k)`` floats, one column per metric,
NaN where that metric is undefined. An all-ones row is the full record
set. ``bootstrap_ci`` scores each column on its own, so ``emit_report``
draws one weight matrix per group and scores all three metrics on it: one
count of hits for accuracy, and one sort of the 4N pairs for AUROC and AP,
whose weighted cumulative sums in that order cover every row at once.
Each score temporary holds 8 B × 4N × B, about 16 MB at N = 500 and
B = 1,000. A record is scored in its one group only, so each
number in metrics.csv has a single reading.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _files, months

logger = logging.getLogger(__name__)

N_CLASSES = 4
CI_LEVEL = 0.95  # coverage of every bootstrap interval


@dataclass(frozen=True)
class ForecastRecord:
    """One evaluated forecast row: probabilities and outcome at the horizon month."""

    dyad_id: str
    month: int
    step: int
    probabilities: tuple[float, float, float, float]
    actual: int
    source: str
    kind: str | None = None

    def __post_init__(self) -> None:
        if len(self.probabilities) != N_CLASSES:
            raise ValueError("probabilities must have 4 components")
        if not all(math.isfinite(p) for p in self.probabilities):
            raise ValueError(f"probabilities must be finite: {self.probabilities}")
        total = sum(self.probabilities)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < 0 or p > 1 for p in self.probabilities):
            raise ValueError("probabilities must lie in [0, 1]")
        # `in (0, 1, 2, 3)` would pass 2.0 and True, which save as "2.0" and "True"
        if (
            isinstance(self.actual, bool)
            or not isinstance(self.actual, (int, np.integer))
            or not 0 <= self.actual < N_CLASSES
        ):
            raise ValueError(f"actual state must be an integer code 0-3: {self.actual!r}")


@dataclass(frozen=True)
class MetricValue:
    """A bootstrap CI of each column of a metric, one entry per column.

    ``n_undefined`` counts, per column, the resamples where the column was
    undefined; they are left out of its percentiles (see `bootstrap_ci`).
    """

    point: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    n_bootstraps: int
    n_undefined: tuple[int, ...]


# ---------------------------------------------------------------------------
# Conflictology baseline
# ---------------------------------------------------------------------------

def conflictology(
    history: dict[int, int],
    step: int,
    horizon: int,
    window: int = 12,
    n_boot: int = 1000,
    seed: int = 0,
) -> np.ndarray:
    """Bootstrap pseudo-probabilities from the trailing state window.

    The window covers the `window` months ending at horizon - step - 1,
    so nothing the forecast could not have seen leaks in; a negative step
    would reach the horizon itself and is an error. Shorter histories
    degrade to whatever months exist. A window below one month, or one
    with no state history, is an error.

    The result is the exact limit of bootstrapping the window: the pooled
    class shares of the resamples converge to, and under a balanced
    bootstrap equal, ``bincount(states) / len(states)``, which is returned
    directly in O(window). `n_boot` and `seed` are accepted so callers
    need not change, but they do not change the result.
    """
    if step < 0:
        raise ValueError(f"step must be non-negative: {step}")
    if window < 1:
        raise ValueError(f"window must be at least 1: {window}")
    end = horizon - step - 1
    wanted = [m for m in range(end - window + 1, end + 1)]
    states = np.array([history[m] for m in wanted if m in history], dtype=int)
    if states.size == 0:
        raise ValueError(
            f"no state history in window ending {months.format_month(end)}"
        )
    if states.size < window:
        logger.warning(
            "history has %d of %d window months ending %s",
            states.size,
            window,
            months.format_month(end),
        )
    return np.bincount(states, minlength=N_CLASSES) / states.size


# ---------------------------------------------------------------------------
# Count-based metrics
# ---------------------------------------------------------------------------

def _accuracy(probs: np.ndarray, actual: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(B, 1) accuracy TP / total of each weight row; argmax ties go to the lowest code.

    It is also micro recall, precision and F1: pooled over the classes of a
    single-label problem, FN = FP = total - TP.
    """
    tp = np.asarray(weights @ (probs.argmax(axis=1) == actual), dtype=float)
    return (tp / weights.sum(axis=1))[:, None]


# ---------------------------------------------------------------------------
# Score-based metrics (one-versus-rest, micro-pooled)
# ---------------------------------------------------------------------------

def binarize(probs: np.ndarray, actual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All (record, class) pairs as score = p_class, label = [actual == class]."""
    labels = (actual[:, None] == np.arange(N_CLASSES)).astype(int)
    return probs.ravel(), labels.ravel()


def _prefix_sums(weights: np.ndarray) -> np.ndarray:
    """(B, M + 1) running sums along the rows: column k sums the first k columns."""
    out = np.zeros((weights.shape[0], weights.shape[1] + 1), dtype=weights.dtype)
    np.cumsum(weights, axis=1, out=out[:, 1:])
    return out


def _positive_tie_groups(
    scores: np.ndarray, labels: np.ndarray, rows: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted counts at the tie groups that hold a positive pair, scores descending.

    Pair j has score ``scores[j]``, label ``labels[j]`` (at least one is
    positive) and weight ``weights[:, rows[j]]`` in each of the B rows. The
    pairs are sorted once (descending, stable) and split into tie groups;
    only a group holding a positive pair adds to AP or to a rank sum.
    Returns int (B, G) arrays over those G groups: ``above``, the weight of
    the pairs scored above the group; ``through``, that plus the group's
    own weight; and ``tp``, the positive weight at or above the group.
    """
    order = np.argsort(-scores, kind="stable")
    ordered = scores[order]
    bounds = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    starts, ends = np.append(0, bounds), np.append(bounds, len(ordered))
    positive = labels[order] != 0
    n_positive = np.append(0, np.cumsum(positive))  # positives among the first k pairs
    held = n_positive[ends] > n_positive[starts]
    weight_sums = _prefix_sums(weights[:, rows[order]])
    positive_sums = _prefix_sums(weights[:, rows[order[positive]]])
    return (
        weight_sums[:, starts[held]],
        weight_sums[:, ends[held]],
        positive_sums[:, n_positive[ends[held]]],
    )


def _score_rows(
    scores: np.ndarray, labels: np.ndarray, rows: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """(B, 2) AUROC and AP of each weight row, from one sort of the pairs.

    AUROC is the Mann-Whitney statistic with ties counted one half, NaN for
    a row whose weight is all on positive or all on negative pairs. In
    ascending order a tie group takes the ranks after the ``total -
    through`` pairs below it, up to ``total - above``; their mean is
    (2 total - above - through + 1) / 2. Twice every rank sum is therefore
    an integer, and the rank sums are exact.

    AP is interpolation-free, NaN without positive weight: each tie group
    adds its positives times the precision at its end. The contributions
    are summed left to right (``cumsum``, not the pairwise ``sum``), so the
    result is the same float as a running total; a group without
    positives, or without weight in a row, adds exactly 0.0.
    """
    above, through, tp = _positive_tie_groups(scores, labels, rows, weights)
    gained = np.diff(tp, axis=1, prepend=0)  # each group's positive weight
    n_pos = tp[:, -1]
    total = weights @ np.bincount(rows, minlength=weights.shape[1])
    n_neg = total - n_pos
    twice_rank_sum = (gained * (2 * total[:, None] - above - through + 1)).sum(axis=1)
    auc = np.divide(
        twice_rank_sum / 2.0 - n_pos * (n_pos + 1) / 2.0, n_pos * n_neg,
        out=np.full(len(n_pos), np.nan), where=(n_pos > 0) & (n_neg > 0),
    )
    precision = np.divide(tp, through, out=np.zeros(tp.shape), where=through > 0)
    running = np.cumsum(gained * precision, axis=1)[:, -1]
    ap = np.divide(running, n_pos, out=np.full(len(n_pos), np.nan), where=n_pos > 0)
    return np.stack([auc, ap], axis=1)


def _micro_scores(probs: np.ndarray, actual: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(B, 2) micro AUROC and AP of each weight row over all one-versus-rest
    (record, class) pairs.

    Each record holds one positive pair, so AP is always defined. AUROC is
    NaN in a row where fewer than two actual states carry weight: the
    pooled pairs then still mix labels, but every pair in the one state's
    column is positive, so no outcome differs across records and the value
    would only compare scores across classes, not tell states apart.
    """
    scores, labels = binarize(probs, actual)
    values = _score_rows(scores, labels, np.arange(len(scores)) // N_CLASSES, weights)
    state_weight = weights @ (actual[:, None] == np.arange(N_CLASSES))
    values[np.count_nonzero(state_weight, axis=1) < 2, 0] = np.nan
    return values


def per_class_binary_report(probs: np.ndarray, actual: np.ndarray) -> list[dict[str, float]]:
    """Binary AP and AUROC of each class versus the rest, in class order, from one sort.

    Weight row c of one `_score_rows` call over the `binarize` pairs holds
    class c's pairs only. AP is NaN when the class is absent, AUROC also
    when every record has it.
    """
    scores, labels = binarize(probs, actual)
    weights = np.tile(np.eye(N_CLASSES, dtype=int), len(actual))  # (4, 4N)
    return [
        {"ap": float(ap), "auroc": float(auc)}
        for auc, ap in _score_rows(scores, labels, np.arange(len(scores)), weights)
    ]


# ---------------------------------------------------------------------------
# Bootstrap confidence intervals
# ---------------------------------------------------------------------------

def bootstrap_ci(
    probs: np.ndarray,
    actual: np.ndarray,
    metric,
    n: int = 1000,
    seed: int = 0,
) -> MetricValue:
    """Percentile ``CI_LEVEL`` bootstrap over record resamples; point from the full set.

    The `n` resamples draw N row indices each with replacement, all at once
    as an (n, N) index matrix from ``PCG64(seed)``, the same numbers as n
    draws of N. Their row counts, under an all-ones row for the full set,
    are the int (n + 1, N) ``weights`` of one
    ``metric(probs, actual, weights) -> (n + 1, k)`` call (the contract of
    ``METRIC_FUNCS``; an entry is NaN where its column is undefined). The
    weights take 8 B × N × (n + 1), and the score metrics' temporaries four
    times that: about 16 MB each at N = 500 and n = 1,000.

    Each of the k columns is scored on its own; point, lower and upper are
    tuples in column order. A column's percentiles are taken over the
    resamples where it is defined, and ``n_undefined`` counts the rest. A
    column undefined on the full set (counted as 0 undefined resamples), or
    on more than 10% of the `n` resamples, gets NaN for its point and both
    bounds.

    Raises ``ValueError`` when `n` < 1 or there are no records.
    """
    if n < 1:
        raise ValueError(f"bootstrap needs at least one resample, got {n}")
    size = len(actual)
    if not size:
        raise ValueError("no records")
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.integers(0, size, size=(n, size))
    cells = idx + size * np.arange(1, n + 1)[:, None]  # resample r is weight row r + 1
    weights = np.bincount(cells.ravel(), minlength=(n + 1) * size).reshape(n + 1, size)
    weights[0] = 1  # the full set
    values = np.asarray(metric(probs, actual, weights), dtype=float)
    point, undefined = values[0], np.isnan(values[1:])
    n_undefined = np.where(np.isnan(point), 0, undefined.sum(axis=0))
    defined = ~np.isnan(point) & (n_undefined <= 0.1 * n)
    alpha = (1.0 - CI_LEVEL) / 2.0
    bounds = np.full((2, len(point)), np.nan)
    for c in np.flatnonzero(defined):
        bounds[:, c] = np.percentile(
            values[1:, c][~undefined[:, c]], [100 * alpha, 100 * (1 - alpha)]
        )
    lower, upper = bounds.tolist()
    point = np.where(defined, point, np.nan).tolist()
    return MetricValue(tuple(point), tuple(lower), tuple(upper), n, tuple(n_undefined.tolist()))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

# The metrics of metrics.csv, keyed by their column names, each a function
# of (probs, actual, weights) returning (B, k) floats. Accuracy comes from
# one count of hits, and micro AUROC and AP from one sort of the pairs.
METRIC_FUNCS = {
    ("accuracy",): _accuracy,
    ("auroc", "ap"): _micro_scores,
}


def _report_metric(probs: np.ndarray, actual: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Every ``METRIC_FUNCS`` entry's columns side by side, in key order."""
    return np.hstack([metric(probs, actual, weights) for metric in METRIC_FUNCS.values()])


def structure_key(records: list[ForecastRecord]) -> list[tuple]:
    return sorted((r.dyad_id, r.month, r.step, r.kind or "") for r in records)


def _fmt(x: float) -> str:
    return repr(float(x))


def _arrays(records: list[ForecastRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities as an (N, 4) float array and actual states as an (N,) int array."""
    probs = np.array([r.probabilities for r in records], dtype=float)
    actual = np.array([r.actual for r in records], dtype=int)
    return probs.reshape(-1, N_CLASSES), actual


def emit_report(
    model_records: list[ForecastRecord],
    baseline_records: list[ForecastRecord],
    out_dir: str | Path,
    n_boot: int = 1000,
    seed: int = 0,
) -> None:
    """metrics.csv and per_class.csv of the record groups.

    Model and baseline record sets must cover the identical
    (dyad, month, step, kind) structure, and a (step, kind, source) group
    must hold at most one record per (dyad, month); a second one is a
    ``ValueError`` naming the group and the key. Each forecast row is scored
    once: every metric of a group comes from one `bootstrap_ci` call. A
    metric undefined on a group (see `bootstrap_ci`), such as the micro
    AUROC of a group with a single actual state, gets a row with ``nan``
    point and bounds and a warning; the rest of the report is written as
    usual. A metric whose interval leaves out undefined resamples gets a
    warning with their count. per_class.csv leaves out a class that no
    record, or every record, of a group has. The probabilities themselves
    are in the ``save_forecasts_csv`` files.
    """
    if n_boot < 1:
        raise ValueError(f"n_boot must be at least 1, got {n_boot}")
    if structure_key(model_records) != structure_key(baseline_records):
        raise ValueError("model and baseline record structures differ")
    # (step, kind, source) -> its records, sorted by (dyad, month)
    groups: dict[tuple, list[ForecastRecord]] = {}
    for r in (*model_records, *baseline_records):
        groups.setdefault((r.step, r.kind or "", r.source), []).append(r)
    for (step, kind, source), rows in groups.items():
        rows.sort(key=lambda r: (r.dyad_id, r.month))
        for a, b in zip(rows, rows[1:]):
            if (a.dyad_id, a.month) == (b.dyad_id, b.month):
                raise ValueError(
                    f"step {step}, kind {kind!r}, source {source} holds two records for "
                    f"dyad {a.dyad_id}, month {months.format_month(a.month)}"
                )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    names = [name for key in METRIC_FUNCS for name in key]
    metric_rows, per_class_rows = [], []
    for (step, kind, source) in sorted(groups):
        probs, actual = _arrays(groups[(step, kind, source)])
        where = f"step {step}, kind {kind!r}, source {source} ({len(actual)} records)"
        value = bootstrap_ci(probs, actual, _report_metric, n=n_boot, seed=seed)
        for name, point, lower, upper, missing in zip(
            names, value.point, value.lower, value.upper, value.n_undefined
        ):
            if math.isnan(point):
                reason = (
                    f"metric undefined on {missing}/{n_boot} bootstrap resamples"
                    if missing else "metric undefined on the full record set"
                )
                logger.warning("%s undefined for %s: %s", name, where, reason)
            elif missing:
                logger.warning(
                    "%s undefined on %d of %d resamples for %s; left out of the interval",
                    name, missing, n_boot, where,
                )
            bounds_text = [_fmt(point), _fmt(lower), _fmt(upper)]
            metric_rows.append([step, kind, source, name, *bounds_text, len(actual)])
        for cls, report in enumerate(per_class_binary_report(probs, actual)):
            if math.isnan(report["auroc"]):
                continue  # class in no record of this slice, or in all (AP NaN implies AUROC NaN)
            per_class_rows.append(
                [step, kind, source, cls, _fmt(report["ap"]), _fmt(report["auroc"])]
            )
    _files.write_csv(
        out_dir / "metrics.csv",
        ["step", "kind", "source", "metric", "point", "lo", "hi", "n"],
        metric_rows,
    )
    _files.write_csv(
        out_dir / "per_class.csv",
        ["step", "kind", "source", "class", "ap", "auroc"],
        per_class_rows,
    )


# ---------------------------------------------------------------------------
# Forecast-record CSV interface
# ---------------------------------------------------------------------------

_PROB_COLUMNS = ["p_peace", "p_escalation", "p_plateau", "p_deescalation"]


def _forecast_key(record: ForecastRecord) -> str:
    return f"dyad {record.dyad_id}, month {months.format_month(record.month)}"


def save_forecasts_csv(records: list[ForecastRecord], path: str | Path) -> None:
    """Write one CSV row per record; two records for one dyad-month raise."""
    ordered = sorted(records, key=lambda r: (r.dyad_id, r.month))
    _files.check_keys(path, ordered, _forecast_key)
    rows = [
        [r.dyad_id, months.format_month(r.month), *(_fmt(p) for p in r.probabilities), r.actual]
        for r in ordered
    ]
    _files.write_csv(path, ["dyad_id", "month", *_PROB_COLUMNS, "actual_state"], rows)


def load_forecasts_csv(
    path: str | Path, step: int, kind: str | None, source: str = "model"
) -> list[ForecastRecord]:
    """The records of one forecasts CSV; a blank dyad, a number other than the text
    ``save_forecasts_csv`` writes, or a second row for a dyad-month is an error."""
    return _files.read_rows(path, lambda row: ForecastRecord(
        dyad_id=_files.dyad(row["dyad_id"]),
        month=months.parse_month(row["month"]),
        step=step,
        probabilities=tuple(_files.csv_number(row, c, float) for c in _PROB_COLUMNS),
        actual=_files.csv_number(row, "actual_state", int),
        source=source,
        kind=kind,
    ), _forecast_key)
