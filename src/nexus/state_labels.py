"""Four-state escalation labeling from fitted trend derivatives.

Monthly states: 0 Peace (zero observed fatalities, checked first), 1
Escalation (derivative above tau), 2 Plateau (derivative within ±tau,
boundaries inclusive), 3 De-escalation (derivative below -tau). Train and
validation windows are labeled from two separate GP fits so that nothing
observed after the training cutoff can touch a training label.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from . import _files, months
from .gp_trend import TrendFit
from .ingest import DyadMonthSeries

logger = logging.getLogger(__name__)

DEFAULT_TAU = 0.25


class EscalationState(IntEnum):
    PEACE = 0
    ESCALATION = 1
    PLATEAU = 2
    DEESCALATION = 3


STATE_NAMES = {
    EscalationState.PEACE: "Peace",
    EscalationState.ESCALATION: "Escalation",
    EscalationState.PLATEAU: "Plateau",
    EscalationState.DEESCALATION: "De-escalation",
}


@dataclass(frozen=True)
class LabelerConfig:
    tau: float
    train_end: int
    val_end: int

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError(f"tau must be positive: {self.tau}")
        if self.val_end < self.train_end:
            raise ValueError("val_end precedes train_end")


@dataclass
class LabeledSeries:
    """States for one dyad over one window, from a single fit."""

    dyad_id: str
    months: np.ndarray
    states: np.ndarray
    derivatives: np.ndarray


def discretize(derivative, raw_fatalities, tau: float = DEFAULT_TAU) -> np.ndarray:
    """State codes per month; the zero-fatality check precedes the derivative cases."""
    d = np.asarray(derivative, dtype=float)
    raw = np.asarray(raw_fatalities, dtype=int)
    if d.shape != raw.shape:
        raise ValueError(f"length mismatch: {d.shape} vs {raw.shape}")
    if tau <= 0:
        raise ValueError(f"tau must be positive: {tau}")
    states = np.full(d.shape, int(EscalationState.PLATEAU))
    states[d > tau] = int(EscalationState.ESCALATION)
    states[d < -tau] = int(EscalationState.DEESCALATION)
    states[raw == 0] = int(EscalationState.PEACE)
    return states


def _window_states(
    series: DyadMonthSeries, fit: TrendFit, lo: int, hi: int, tau: float
) -> LabeledSeries | None:
    """Labels for series months in [lo, hi] using the given fit's derivative."""
    sel = (series.months >= lo) & (series.months <= hi)
    wanted = series.months[sel]
    grid_pos = {int(m): i for i, m in enumerate(fit.grid)}
    if any(int(m) not in grid_pos for m in wanted):
        return None
    idx = np.array([grid_pos[int(m)] for m in wanted], dtype=int)
    deriv = fit.derivative[idx]
    states = discretize(deriv, series.raw_fatalities[sel], tau)
    return LabeledSeries(series.dyad_id, wanted, states, deriv)


def label_windows(
    series_by_dyad: dict[str, DyadMonthSeries],
    fits_train: dict[str, TrendFit],
    fits_val: dict[str, TrendFit],
    config: LabelerConfig,
) -> tuple[dict[str, LabeledSeries], dict[str, LabeledSeries]]:
    """Train labels from the train-window fit, validation labels from the full fit.

    Months <= train_end come exclusively from fits_train; months in
    (train_end, val_end] exclusively from fits_val. Dyads missing either
    fit are skipped with a warning.
    """
    train: dict[str, LabeledSeries] = {}
    val: dict[str, LabeledSeries] = {}
    for dyad_id in sorted(series_by_dyad):
        series = series_by_dyad[dyad_id]
        fit_t = fits_train.get(dyad_id)
        fit_v = fits_val.get(dyad_id)
        if fit_t is None or fit_v is None:
            logger.warning("dyad %s missing a fit, skipped", dyad_id)
            continue
        first = int(series.months[0])
        labeled_t = _window_states(series, fit_t, first, config.train_end, config.tau)
        labeled_v = _window_states(series, fit_v, config.train_end + 1, config.val_end, config.tau)
        if labeled_t is None or labeled_v is None:
            logger.warning("dyad %s fit grid does not cover its window, skipped", dyad_id)
            continue
        train[dyad_id] = labeled_t
        val[dyad_id] = labeled_v
    return train, val


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------

def save_labels_csv(labels: dict[str, LabeledSeries], path: str | Path) -> None:
    rows = [
        [
            dyad_id,
            months.format_month(int(m)),
            int(code),
            STATE_NAMES[EscalationState(int(code))],
            repr(float(deriv)),
        ]
        for dyad_id, ls in sorted(labels.items())
        for m, code, deriv in zip(ls.months, ls.states, ls.derivatives)
    ]
    header = ["dyad_id", "month", "state_code", "state_name", "derivative_value"]
    _files.write_csv(path, header, rows)


def load_labels_csv(path: str | Path) -> dict[str, dict[int, int]]:
    """Per-dyad month -> state code mapping from a labels CSV.

    A state code outside 0-3, or a second row for one dyad and month, is a
    ``ValueError`` naming the file and line.
    """
    out: dict[str, dict[int, int]] = {}

    def build(row) -> None:
        dyad_id, month = row["dyad_id"], months.parse_month(row["month"])
        code = int(row["state_code"])
        if not 0 <= code < len(EscalationState):
            raise ValueError(f"state code {code} is not 0-3")
        if month in out.setdefault(dyad_id, {}):
            raise ValueError(f"second row for dyad {dyad_id}, month {row['month']}")
        out[dyad_id][month] = code

    _files.read_rows(path, build)
    return out
