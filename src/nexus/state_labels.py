"""Four-state escalation labeling from fitted trend derivatives.

Monthly states: 0 Peace (zero observed fatalities, checked first), 1
Escalation (derivative above tau), 2 Plateau (derivative within ±tau,
boundaries inclusive), 3 De-escalation (derivative below -tau). Train and
validation windows are labeled from two separate GP fits so that nothing
observed after the training cutoff can touch a training label.

A labels CSV holds states only (``dyad_id,month,state_code,state_name``),
so its bytes do not move with the BLAS thread count; the derivative behind
each state, whose last bits do, follows from the posterior mean that
``gp_trend.save_trend_fit`` writes.
"""

from __future__ import annotations

import logging
import math
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


def _check_tau(tau: float) -> None:
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be positive and finite: {tau}")


@dataclass(frozen=True)
class LabelerConfig:
    tau: float
    train_end: int
    val_end: int

    def __post_init__(self) -> None:
        _check_tau(self.tau)
        if self.val_end < self.train_end:
            raise ValueError("val_end precedes train_end")


@dataclass
class LabeledSeries:
    """States for one dyad over one window, from a single fit."""

    dyad_id: str
    months: np.ndarray
    states: np.ndarray


def discretize(derivative, raw_fatalities, tau: float = DEFAULT_TAU) -> np.ndarray:
    """State codes per month; the zero-fatality check precedes the derivative cases."""
    d = np.asarray(derivative, dtype=float)
    raw = np.asarray(raw_fatalities, dtype=int)
    if d.shape != raw.shape:
        raise ValueError(f"length mismatch: {d.shape} vs {raw.shape}")
    _check_tau(tau)
    states = np.full(d.shape, int(EscalationState.PLATEAU))
    states[d > tau] = int(EscalationState.ESCALATION)
    states[d < -tau] = int(EscalationState.DEESCALATION)
    states[raw == 0] = int(EscalationState.PEACE)
    return states


def _window_states(
    series: DyadMonthSeries, fit: TrendFit, lo: int, hi: int, tau: float
) -> LabeledSeries | None:
    """Labels for series months in [lo, hi] from the fit's derivative; None if it misses one."""
    sel = (series.months >= lo) & (series.months <= hi)
    idx = series.months[sel] - fit.start  # contiguous months, so the first and last bound it
    if idx.size and (idx[0] < 0 or idx[-1] >= fit.derivative.size):
        return None
    states = discretize(fit.derivative[idx], series.raw_fatalities[sel], tau)
    return LabeledSeries(series.dyad_id, series.months[sel], states)


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
            logger.warning("dyad %s fit does not cover its window, skipped", dyad_id)
            continue
        train[dyad_id] = labeled_t
        val[dyad_id] = labeled_v
    return train, val


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------

def save_labels_csv(labels: dict[str, LabeledSeries], path: str | Path) -> None:
    rows = [
        [dyad_id, months.format_month(int(m)), int(code), STATE_NAMES[EscalationState(int(code))]]
        for dyad_id, ls in sorted(labels.items())
        for m, code in zip(ls.months, ls.states)
    ]
    _files.write_csv(path, ["dyad_id", "month", "state_code", "state_name"], rows)


def load_labels_csv(path: str | Path) -> dict[str, dict[int, int]]:
    """Per-dyad month -> state code mapping from a labels CSV.

    A blank dyad, a state code that is not the text of a code from 0 to 3,
    a state name other than its code's, or a second row for one dyad and
    month, is a ``ValueError`` naming the file and line.
    """

    def build(row) -> tuple[str, int, int]:
        code = _files.csv_number(row, "state_code", int)
        if not 0 <= code < len(EscalationState):
            raise ValueError(f"state code {code} is not 0-3")
        name, given = STATE_NAMES[EscalationState(code)], row["state_name"]
        if given != name:
            raise ValueError(f"state name {given!r} does not match state code {code} ({name!r})")
        return _files.ident(row["dyad_id"], "dyad_id"), months.parse_month(row["month"]), code

    out: dict[str, dict[int, int]] = {}
    for dyad_id, month, code in _files.read_rows(
        path, build, lambda r: f"dyad {r[0]}, month {months.format_month(r[1])}"
    ):
        out.setdefault(dyad_id, {})[month] = code
    return out
