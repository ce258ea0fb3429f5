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

Every metric, ``bootstrap_ci`` and ``per_class_binary_report`` take the
arrays of N records: ``probs``, float (N, 4), and ``actual``, int (N,), the
observed state codes. A resample indexes both with the same indices.
``emit_report`` builds them once per report group from its record list.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import months

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
        if self.actual not in (0, 1, 2, 3):
            raise ValueError(f"actual state out of range: {self.actual}")


@dataclass(frozen=True)
class MetricValue:
    """A bootstrap CI of a tuple-valued metric, one entry per component."""

    point: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    n_bootstraps: int


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


def micro_metrics(matrix: np.ndarray) -> dict[str, float]:
    """Pooled-count recall/precision/F1; equals accuracy for single-label data."""
    matrix = np.asarray(matrix)
    total = int(matrix.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    tp = float(np.trace(matrix))
    fn = float(matrix.sum(axis=1).sum() - np.trace(matrix))
    fp = float(matrix.sum(axis=0).sum() - np.trace(matrix))
    recall = tp / (tp + fn)
    precision = tp / (tp + fp)
    f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
    accuracy = tp / total
    for name, value in (("recall", recall), ("precision", precision), ("f1", f1)):
        if abs(value - accuracy) > 1e-12:
            raise AssertionError(f"micro {name} {value} != accuracy {accuracy}")
    return {"recall": recall, "precision": precision, "f1": f1}


# ---------------------------------------------------------------------------
# Score-based metrics (one-versus-rest, micro-pooled)
# ---------------------------------------------------------------------------

def binarize(probs: np.ndarray, actual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All (record, class) pairs as score = p_class, label = [actual == class]."""
    labels = (actual[:, None] == np.arange(N_CLASSES)).astype(int)
    return probs.ravel(), labels.ravel()


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Interpolation-free AP; tied scores are resolved at tie-group granularity.

    Each tie group adds its positives times the precision at its end. The
    contributions are summed left to right (``cumsum``, not the pairwise
    ``sum``), so the result is the same float as a running total.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("average precision undefined without positives")
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    ends = np.append(np.flatnonzero(s[1:] != s[:-1]), len(s) - 1)
    tp = np.cumsum(y)[ends]
    group_pos = np.diff(tp, prepend=0)
    return float(np.cumsum(group_pos * (tp / (ends + 1)))[-1]) / n_pos


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, each tie group at its mean rank (ties then count one half).

    The group at sorted positions [start, end) holds ranks start + 1 ... end,
    whose mean (start + end + 1) / 2 is exact in floating point.
    """
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    bounds = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(scores)]))
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUROC with ties counted one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC undefined with a single-label pool")
    rank_sum = float(_average_ranks(scores)[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


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

    Each of the `n` resamples draws N row indices with replacement and
    scores ``metric(probs[idx], actual[idx])``. `metric` returns a tuple of
    floats (several metrics read off one resample, as in ``METRIC_FUNCS``);
    point, lower and upper are tuples in the same order. Raises
    ``ValueError`` when `n` < 1, when the metric is undefined on the full
    set, or on more than 10% of the `n` resamples. Resamples where it is
    undefined (up to that share) are left out of the percentiles.
    """
    if n < 1:
        raise ValueError(f"bootstrap needs at least one resample, got {n}")
    if not len(actual):
        raise ValueError("no records")
    point = metric(probs, actual)
    rng = np.random.Generator(np.random.PCG64(seed))
    values = []
    failures = 0
    for _ in range(n):
        idx = rng.integers(0, len(actual), size=len(actual))
        try:
            values.append(metric(probs[idx], actual[idx]))
        except (ValueError, ZeroDivisionError):
            failures += 1
    if failures > 0.1 * n:
        raise ValueError(f"metric undefined on {failures}/{n} bootstrap resamples")
    alpha = (1.0 - CI_LEVEL) / 2.0
    lower, upper = np.percentile(values, [100 * alpha, 100 * (1 - alpha)], axis=0).tolist()
    return MetricValue(point, tuple(lower), tuple(upper), n)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

# The metrics of metrics.csv, keyed by name, each as a function of
# (probs, actual) returning a tuple. Micro recall, precision and F1 come from
# one confusion matrix, so one bootstrap draws each resample once for all three.
METRIC_FUNCS = {
    ("recall", "precision", "f1"): lambda p, a: tuple(micro_metrics(confusion(p, a)).values()),
    ("auroc",): lambda p, a: (auroc_ovr_micro(p, a),),
    ("ap",): lambda p, a: (ap_ovr_micro(p, a),),
}


def structure_key(records: list[ForecastRecord]) -> list[tuple]:
    return sorted((r.dyad_id, r.month, r.step, r.kind or "") for r in records)


def collapse_to_dyad_month(records: list[ForecastRecord]) -> list[ForecastRecord]:
    """Mean probability vector per (dyad, month, step, kind) group."""
    groups: dict[tuple, list[ForecastRecord]] = {}
    for r in records:
        groups.setdefault((r.dyad_id, r.month, r.step, r.kind), []).append(r)
    out = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2], k[3] or "")):
        rows = groups[key]
        probs = np.mean([r.probabilities for r in rows], axis=0)
        probs = probs / probs.sum()
        out.append(
            replace(
                rows[0],
                probabilities=tuple(float(p) for p in probs),
                source=rows[0].source + "_monthly",
            )
        )
    return out


def _write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    the rest of the report is written as usual.
    """
    if n_boot < 1:
        raise ValueError(f"n_boot must be at least 1, got {n_boot}")
    if structure_key(model_records) != structure_key(baseline_records):
        raise ValueError("model and baseline record structures differ")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    groups: dict[tuple, list[ForecastRecord]] = {}
    for record_set in (model_records, baseline_records):
        for r in record_set:
            groups.setdefault((r.step, r.kind or "", r.source), []).append(r)
    for key in sorted(groups):
        groups[key] = sorted(groups[key], key=lambda r: (r.dyad_id, r.month))
    collapsed: dict[tuple, list[ForecastRecord]] = {}
    for (step, kind, source), rows in groups.items():
        monthly = collapse_to_dyad_month(rows)
        collapsed[(step, kind, monthly[0].source)] = monthly

    metric_rows, per_class_rows = [], []
    for table in (groups, collapsed):
        for (step, kind, source) in sorted(table):
            rows = table[(step, kind, source)]
            probs, actual = _arrays(rows)
            for names, metric in METRIC_FUNCS.items():
                try:
                    value = bootstrap_ci(probs, actual, metric, n=n_boot, seed=seed)
                    bounds = list(zip(value.point, value.lower, value.upper))
                except ValueError as exc:
                    logger.warning(
                        "%s undefined for step %d, kind %r, source %s (%d records): %s",
                        "/".join(names), step, kind, source, len(rows), exc,
                    )
                    bounds = [(math.nan, math.nan, math.nan)] * len(names)
                for name, (point, lower, upper) in zip(names, bounds):
                    bounds_text = [_fmt(point), _fmt(lower), _fmt(upper)]
                    metric_rows.append([step, kind, source, name, *bounds_text, len(rows)])
            if table is not groups:
                continue  # per_class.csv is at digest-row level only
            for cls in range(N_CLASSES):
                try:
                    report = per_class_binary_report(probs, actual, cls)
                except ValueError:
                    continue  # class absent from this slice
                per_class_rows.append(
                    [step, kind, source, cls, _fmt(report["ap"]), _fmt(report["auroc"])]
                )
    _write_csv(
        out_dir / "metrics.csv",
        ["step", "kind", "source", "metric", "point", "lo", "hi", "n"],
        metric_rows,
    )
    _write_csv(
        out_dir / "per_class.csv",
        ["step", "kind", "source", "class", "ap", "auroc"],
        per_class_rows,
    )

    grid_dir = out_dir / "grids"
    grid_dir.mkdir(exist_ok=True)
    for (step, kind, source), monthly in sorted(collapsed.items()):
        if source != "model_monthly":
            continue
        by_dyad: dict[str, list[ForecastRecord]] = {}
        for r in monthly:
            by_dyad.setdefault(r.dyad_id, []).append(r)
        for dyad_id in sorted(by_dyad):
            grid_rows = [
                [months.format_month(r.month), *(_fmt(p) for p in r.probabilities), r.actual]
                for r in sorted(by_dyad[dyad_id], key=lambda r: r.month)
            ]
            name = f"dyad_grid_{dyad_id}" + (f"_{kind}" if kind else "") + f"_step{step}.csv"
            _write_csv(
                grid_dir / name,
                ["month", "p0", "p1", "p2", "p3", "actual"],
                grid_rows,
            )


# ---------------------------------------------------------------------------
# Forecast-record CSV interface
# ---------------------------------------------------------------------------

_PROB_COLUMNS = ["p_peace", "p_escalation", "p_plateau", "p_deescalation"]


def save_forecasts_csv(records: list[ForecastRecord], path: str | Path) -> None:
    rows = [
        [r.dyad_id, months.format_month(r.month), *(_fmt(p) for p in r.probabilities), r.actual]
        for r in sorted(records, key=lambda r: (r.dyad_id, r.month))
    ]
    _write_csv(path, ["dyad_id", "month", *_PROB_COLUMNS, "actual_state"], rows)


def load_forecasts_csv(
    path: str | Path, step: int, kind: str | None, source: str = "model"
) -> list[ForecastRecord]:
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                if None in row.values():
                    raise ValueError("missing fields")
                out.append(
                    ForecastRecord(
                        dyad_id=row["dyad_id"],
                        month=months.parse_month(row["month"]),
                        step=step,
                        probabilities=tuple(float(row[c]) for c in _PROB_COLUMNS),
                        actual=int(row["actual_state"]),
                        source=source,
                        kind=kind,
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return out
