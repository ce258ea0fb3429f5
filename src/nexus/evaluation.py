"""Forecast evaluation: conflictology baseline, micro metrics, bootstrap CIs.

The baseline bootstraps the trailing window of observed states (shifted
back by the forecast step to avoid contamination) into pseudo-probability
vectors. It returns the bootstrap's exact limit: pooled over resamples,
the class shares equal the window's empirical state frequencies (exactly
so for a balanced bootstrap), so no resampling is done and the result
depends on neither the resample count nor the seed. Score-based metrics
(AP, AUROC) pool all (record, class) pairs one-versus-rest before
computation ("micro-aggregation where probabilities are involved");
count-based metrics pool TP/FP/FN, which for single-label multiclass
makes micro recall, precision and F1 all equal accuracy, so one bootstrap
of a tuple-valued metric serves all three. Every interval is a percentile
bootstrap interval at ``CI_LEVEL``.

A report group of N records is the arrays ``probs``, float (N, 4), and
``actual``, int (N,), the observed state codes; ``emit_report`` builds them
once per group. A resample is a vector of record multiplicities (Field &
Welsh, "Bootstrapping clustered data", JRSS-B 2007), so B resamples are
an int (B, N) ``weights`` matrix, and each ``METRIC_FUNCS`` entry is
``metric(probs, actual, weights) -> (B, k)`` floats, NaN in a row where the
metric is undefined. An all-ones row is the full record set. The score
metrics sort the 4N pairs once and take weighted cumulative sums in that
order for every row at once; each of their temporaries holds 8 B × 4N × B,
about 16 MB at N = 500 and B = 1,000.
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
    """A bootstrap CI of a tuple-valued metric, one entry per component.

    `n_undefined` counts the resamples where the metric was undefined; they
    are left out of the percentiles.
    """

    point: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    n_bootstraps: int
    n_undefined: int


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
    so nothing the forecast could not have seen leaks in. Shorter
    histories degrade to whatever months exist; an empty window is an
    error.

    The result is the exact limit of bootstrapping the window: the pooled
    class shares of the resamples converge to, and under a balanced
    bootstrap equal, ``bincount(states) / len(states)``, which is returned
    directly in O(window). `n_boot` and `seed` are accepted so callers
    need not change, but they do not change the result.
    """
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

def confusion(probs: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """4x4 counts, true in rows, argmax prediction in columns (ties -> lowest code)."""
    cells = actual * N_CLASSES + probs.argmax(axis=1)
    return np.bincount(cells, minlength=N_CLASSES**2).reshape(N_CLASSES, N_CLASSES)


def _micro_rows(tp: np.ndarray, total: np.ndarray) -> np.ndarray:
    """(B, 3) micro recall, precision and F1 from B pooled hit counts and totals.

    Pooled FN and FP both equal total - TP, so recall and precision are
    the accuracy TP / total, and F1 (0 where TP is 0) must equal it too.
    """
    tp = np.asarray(tp, dtype=float)
    recall = precision = tp / total
    f1 = np.zeros_like(tp)
    np.divide(2 * precision * recall, precision + recall, out=f1, where=tp != 0)
    worst = np.abs(f1 - recall).max(initial=0.0)
    if worst > 1e-12:
        raise AssertionError(f"micro f1 differs from accuracy by {worst}")
    return np.stack([recall, precision, f1], axis=1)


def micro_metrics(matrix: np.ndarray) -> dict[str, float]:
    """Pooled-count recall/precision/F1; equals accuracy for single-label data."""
    matrix = np.asarray(matrix)
    total = int(matrix.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    row = _micro_rows(np.array([np.trace(matrix)]), np.array([total]))[0]
    return dict(zip(("recall", "precision", "f1"), row.tolist()))


def _micro_counts(probs: np.ndarray, actual: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(B, 3) micro recall, precision and F1 of each weight row."""
    hits = probs.argmax(axis=1) == actual
    return _micro_rows(weights @ hits, weights.sum(axis=1))


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


def _average_precision_rows(
    scores: np.ndarray, labels: np.ndarray, rows: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """(B,) interpolation-free AP of each weight row; NaN without positive weight.

    Each tie group adds its positives times the precision at its end. The
    contributions are summed left to right (``cumsum``, not the pairwise
    ``sum``), so the result is the same float as a running total; a group
    without positives, or without weight in a row, adds exactly 0.0.
    """
    _, through, tp = _positive_tie_groups(scores, labels, rows, weights)
    precision = np.divide(tp, through, out=np.zeros(tp.shape), where=through > 0)
    running = np.cumsum(np.diff(tp, axis=1, prepend=0) * precision, axis=1)[:, -1]
    n_pos = tp[:, -1]
    return np.divide(running, n_pos, out=np.full(len(n_pos), np.nan), where=n_pos > 0)


def _auroc_rows(
    scores: np.ndarray, labels: np.ndarray, rows: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """(B,) Mann-Whitney AUROC of each weight row, ties counted one half; NaN
    for a row whose weight is all on positive or all on negative pairs.

    In ascending order a tie group takes the ranks after the ``total -
    through`` pairs below it, up to ``total - above``; their mean is
    (2 total - above - through + 1) / 2. Twice every rank sum is therefore
    an integer, and the rank sums are exact.
    """
    above, through, tp = _positive_tie_groups(scores, labels, rows, weights)
    total = weights @ np.bincount(rows, minlength=weights.shape[1])
    n_pos = tp[:, -1]
    n_neg = total - n_pos
    twice_rank_sum = (
        np.diff(tp, axis=1, prepend=0) * (2 * total[:, None] - above - through + 1)
    ).sum(axis=1)
    out = np.full(len(total), np.nan)
    np.divide(
        twice_rank_sum / 2.0 - n_pos * (n_pos + 1) / 2.0,
        n_pos * n_neg,
        out=out,
        where=(n_pos > 0) & (n_neg > 0),
    )
    return out


def _one_row(kernel, scores: np.ndarray, labels: np.ndarray) -> float:
    """A weighted score kernel on one all-ones weight row: the unweighted pairs."""
    rows = np.arange(len(scores))
    return float(kernel(scores, labels, rows, np.ones((1, len(rows)), dtype=int))[0])


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Interpolation-free AP; tied scores are resolved at tie-group granularity."""
    labels = np.asarray(labels, dtype=int)
    if not labels.any():
        raise ValueError("average precision undefined without positives")
    return _one_row(_average_precision_rows, np.asarray(scores, dtype=float), labels)


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUROC with ties counted one half."""
    labels = np.asarray(labels, dtype=int)
    if labels.all() or not labels.any():
        raise ValueError("AUROC undefined with a single-label pool")
    return _one_row(_auroc_rows, np.asarray(scores, dtype=float), labels)


def ap_ovr_micro(probs: np.ndarray, actual: np.ndarray) -> float:
    """Micro AP over all one-versus-rest (record, class) pairs.

    Undefined (``ValueError``) only for a pool without positives, i.e. an
    empty record set: each record contributes one positive pair.
    """
    return average_precision(*binarize(probs, actual))


def auroc_ovr_micro(probs: np.ndarray, actual: np.ndarray) -> float:
    """Micro AUROC over all one-versus-rest (record, class) pairs.

    Undefined (``ValueError``) when the records hold fewer than two
    distinct actual states. The pooled pairs then still mix labels, but
    every pair in the one state's column is positive, so no outcome
    differs across records and the value would only compare scores
    across classes, not tell states apart.
    """
    if np.unique(actual).size < 2:
        raise ValueError("micro AUROC undefined with fewer than two actual states")
    return auroc(*binarize(probs, actual))


def _micro_ap(probs: np.ndarray, actual: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(B, 1) micro AP of each weight row (see `ap_ovr_micro`)."""
    scores, labels = binarize(probs, actual)
    rows = np.arange(len(scores)) // N_CLASSES
    return _average_precision_rows(scores, labels, rows, weights)[:, None]


def _micro_auroc(probs: np.ndarray, actual: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(B, 1) micro AUROC of each weight row, NaN where fewer than two
    actual states carry weight (see `auroc_ovr_micro`)."""
    scores, labels = binarize(probs, actual)
    rows = np.arange(len(scores)) // N_CLASSES
    value = _auroc_rows(scores, labels, rows, weights)
    state_weight = weights @ (actual[:, None] == np.arange(N_CLASSES))
    value[np.count_nonzero(state_weight, axis=1) < 2] = np.nan
    return value[:, None]


def per_class_binary_report(probs: np.ndarray, actual: np.ndarray, cls: int) -> dict[str, float]:
    """Binary AP and AUROC for one class versus the rest."""
    scores, labels = probs[:, cls], (actual == cls).astype(int)
    return {"ap": average_precision(scores, labels), "auroc": auroc(scores, labels)}


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
    ``METRIC_FUNCS``; a row is NaN where the metric is undefined). Point,
    lower and upper are tuples in the metric's column order. The weights
    take 8 B × N × (n + 1), and the score metrics' temporaries four times
    that: about 16 MB each at N = 500 and n = 1,000.

    Raises ``ValueError`` when `n` < 1, when the metric is undefined on the
    full set, or on more than 10% of the `n` resamples. Resamples where it
    is undefined (up to that share) are left out of the percentiles and
    counted in ``n_undefined``.
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
    if np.isnan(values[0]).any():
        raise ValueError("metric undefined on the full record set")
    undefined = np.isnan(values[1:]).any(axis=1)
    failures = int(undefined.sum())
    if failures > 0.1 * n:
        raise ValueError(f"metric undefined on {failures}/{n} bootstrap resamples")
    alpha = (1.0 - CI_LEVEL) / 2.0
    lower, upper = np.percentile(
        values[1:][~undefined], [100 * alpha, 100 * (1 - alpha)], axis=0
    ).tolist()
    return MetricValue(tuple(values[0].tolist()), tuple(lower), tuple(upper), n, failures)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

# The metrics of metrics.csv, keyed by name, each a function of
# (probs, actual, weights) returning (B, k) floats. Micro recall, precision
# and F1 come from one count of hits, so one bootstrap serves all three.
METRIC_FUNCS = {
    ("recall", "precision", "f1"): _micro_counts,
    ("auroc",): _micro_auroc,
    ("ap",): _micro_ap,
}


def structure_key(records: list[ForecastRecord]) -> list[tuple]:
    return sorted((r.dyad_id, r.month, r.step, r.kind or "") for r in records)


def collapse_to_dyad_month(
    keys: list[tuple[str, int]], probs: np.ndarray, actual: np.ndarray
) -> tuple[list[tuple[str, int]], np.ndarray, np.ndarray]:
    """Mean probability vector per (dyad_id, month) key, in sorted key order.

    `keys` holds each row's (dyad_id, month). The rows of a key are summed
    in row order, divided by their count and renormalised to sum 1, the
    same floats as ``np.mean`` over the rows and a division by the sum; the
    first row's actual state is kept. Returns the collapsed
    ``(keys, probs, actual)``.
    """
    slots: dict[tuple[str, int], int] = {}
    group = np.array([slots.setdefault(k, len(slots)) for k in keys], dtype=np.intp)
    sums = np.zeros((len(slots), N_CLASSES))
    np.add.at(sums, group, probs)
    mean = sums / np.bincount(group, minlength=len(slots))[:, None]
    mean = mean / mean.sum(axis=1, keepdims=True)
    if not (
        np.isfinite(mean).all()
        and (np.abs(mean.sum(axis=1) - 1.0) <= 1e-6).all()
        and ((mean >= 0) & (mean <= 1)).all()
    ):
        raise ValueError("collapsed probabilities must be finite, in [0, 1] and sum to 1")
    unique = list(slots)
    order = sorted(range(len(unique)), key=unique.__getitem__)
    first = np.unique(group, return_index=True)[1]
    return [unique[g] for g in order], mean[order], actual[first[order]]


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
    """metrics.csv + per_class.csv + one probability-grid CSV per dyad.

    Model and baseline record sets must cover the identical
    (dyad, month, step, kind) structure. Metrics are computed per
    (step, kind, source) group, at digest-row level and in the
    dyad-month-mean variant. A metric undefined on a group (see
    `bootstrap_ci`), such as the micro AUROC of a group with a single
    actual state, gets a row with ``nan`` point and bounds and a warning;
    the rest of the report is written as usual. A group whose interval
    leaves out undefined resamples gets a warning with their count.
    """
    if n_boot < 1:
        raise ValueError(f"n_boot must be at least 1, got {n_boot}")
    if structure_key(model_records) != structure_key(baseline_records):
        raise ValueError("model and baseline record structures differ")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    by_group: dict[tuple, list[ForecastRecord]] = {}
    for record_set in (model_records, baseline_records):
        for r in record_set:
            by_group.setdefault((r.step, r.kind or "", r.source), []).append(r)
    # (step, kind, source) -> (keys, probs, actual), rows sorted by (dyad, month)
    groups = {}
    for key, rows in by_group.items():
        rows.sort(key=lambda r: (r.dyad_id, r.month))
        groups[key] = ([(r.dyad_id, r.month) for r in rows], *_arrays(rows))
    collapsed = {
        (step, kind, source + "_monthly"): collapse_to_dyad_month(*table)
        for (step, kind, source), table in groups.items()
    }

    metric_rows, per_class_rows = [], []
    for level in (groups, collapsed):
        for (step, kind, source) in sorted(level):
            _, probs, actual = level[(step, kind, source)]
            where = f"step {step}, kind {kind!r}, source {source} ({len(actual)} records)"
            for names, metric in METRIC_FUNCS.items():
                try:
                    value = bootstrap_ci(probs, actual, metric, n=n_boot, seed=seed)
                    bounds = list(zip(value.point, value.lower, value.upper))
                except ValueError as exc:
                    logger.warning("%s undefined for %s: %s", "/".join(names), where, exc)
                    bounds = [(math.nan, math.nan, math.nan)] * len(names)
                else:
                    if value.n_undefined:
                        logger.warning(
                            "%s undefined on %d of %d resamples for %s; left out of the interval",
                            "/".join(names), value.n_undefined, n_boot, where,
                        )
                for name, (point, lower, upper) in zip(names, bounds):
                    bounds_text = [_fmt(point), _fmt(lower), _fmt(upper)]
                    metric_rows.append([step, kind, source, name, *bounds_text, len(actual)])
            if level is not groups:
                continue  # per_class.csv is at digest-row level only
            for cls in range(N_CLASSES):
                try:
                    report = per_class_binary_report(probs, actual, cls)
                except ValueError:
                    continue  # class absent from this slice
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

    grid_dir = out_dir / "grids"
    grid_dir.mkdir(exist_ok=True)
    grid_header = ["month", "p0", "p1", "p2", "p3", "actual"]
    for (step, kind, source) in sorted(collapsed):
        if source != "model_monthly":
            continue
        keys, probs, actual = collapsed[(step, kind, source)]
        by_dyad: dict[str, list[list]] = {}  # keys are sorted, so each dyad's months are too
        for (dyad_id, month), row, state in zip(keys, probs.tolist(), actual.tolist()):
            by_dyad.setdefault(dyad_id, []).append(
                [months.format_month(month), *map(_fmt, row), state]
            )
        for dyad_id, grid_rows in by_dyad.items():
            name = f"dyad_grid_{dyad_id}" + (f"_{kind}" if kind else "") + f"_step{step}.csv"
            _files.write_csv(grid_dir / name, grid_header, grid_rows)


# ---------------------------------------------------------------------------
# Forecast-record CSV interface
# ---------------------------------------------------------------------------

_PROB_COLUMNS = ["p_peace", "p_escalation", "p_plateau", "p_deescalation"]


def save_forecasts_csv(records: list[ForecastRecord], path: str | Path) -> None:
    rows = [
        [r.dyad_id, months.format_month(r.month), *(_fmt(p) for p in r.probabilities), r.actual]
        for r in sorted(records, key=lambda r: (r.dyad_id, r.month))
    ]
    _files.write_csv(path, ["dyad_id", "month", *_PROB_COLUMNS, "actual_state"], rows)


def load_forecasts_csv(
    path: str | Path, step: int, kind: str | None, source: str = "model"
) -> list[ForecastRecord]:
    return _files.read_csv(path, lambda row: ForecastRecord(
        dyad_id=row["dyad_id"],
        month=months.parse_month(row["month"]),
        step=step,
        probabilities=tuple(float(row[c]) for c in _PROB_COLUMNS),
        actual=int(row["actual_state"]),
        source=source,
        kind=kind,
    ))
