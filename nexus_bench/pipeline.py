"""The pipeline as one batch job, built from the stages in ``stages.py``.

ingest -> gp_trend -> state_labels -> hnsw -> digests -> stepshift ->
evaluation. A unit is one dyad fit (per window), one dyad-month digest, one
(step, kind) model or one metric CI. A unit that raises is logged, counted
as failed and skipped; the run goes on.
"""

from __future__ import annotations

import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import stages
from workloads import GP_MAX_ITER, LENGTH_SCALE, MAX_TOPICS, TAU, Workload

N_METRICS = 5  # recall, precision, f1, auroc, ap per emit_report group
SEED = 0  # every seed the pipeline itself takes: k-means, index, packing, bootstrap


@dataclass
class Units:
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)

    def fail(self, kind: str, n: int, exc: BaseException) -> None:
        self.attempted[kind] += n
        self.failed[kind] += n
        traceback.print_exception(exc, file=sys.stderr)

    def attempt(self, kind: str, n: int, fn, *args, **kwargs):
        """fn(*args, **kwargs), or None when it raises; counts n units either way."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed unit must not abort the run
            self.fail(kind, n, exc)
            return None
        self.attempted[kind] += n
        return result


@dataclass
class Result:
    units: Units
    labels_train: dict  # dyad -> LabeledSeries
    labels_val: dict
    model_records: list
    baseline_records: list
    metrics_csv: Path | None
    outputs: list[Path]  # files whose hashes must repeat for a fixed seed


def fit_windows(wl: Workload, series: dict, units: Units, out: Path,
                max_iter: int | None = GP_MAX_ITER) -> dict[str, dict]:
    """gp_trend: train-window and full-window fits, one fit_hierarchical per country.

    ``max_iter=None`` leaves the optimiser at the program's default.
    """
    lo, val_end = wl.window
    prior = stages.length_scale_prior(LENGTH_SCALE)
    countries: dict[str, list] = {}
    for dyad in sorted(series):
        countries.setdefault(series[dyad].country_id, []).append(series[dyad])
    fits: dict[str, dict] = {"train": {}, "full": {}}
    for tag, hi in (("train", wl.train_end), ("full", val_end)):
        for country in sorted(countries):
            group = [s.month_slice(lo, hi) for s in countries[country]]
            try:
                params = stages.fit_country_params(group, prior, max_iter)
            except Exception as exc:
                units.fail("dyad_fit", len(group), exc)
                continue
            for s in group:
                fit = units.attempt(
                    "dyad_fit", 1, stages.fit_trend, s, prior, params[s.dyad_id], out, tag
                )
                if fit is not None:
                    fits[tag][s.dyad_id] = fit
    return fits


def run(wl: Workload, inputs: stages.Inputs, out: Path) -> Result:
    units = Units()
    val_end = wl.window[1]
    train_end = wl.train_end

    # ingest
    labels, dyads = stages.label_articles(inputs, wl.window, wl.dyads, out)
    series = {d: stages.aggregate(inputs.events, d, wl.window, out) for d in dyads}

    fits = fit_windows(wl, series, units, out)

    # state_labels
    train, val, states_train, states_val = stages.label(
        series, fits["train"], fits["full"], TAU, train_end, val_end, out
    )

    # hnsw + digests, per dyad
    articles_by_id = {a.article_id: a for a in inputs.articles}
    emb = inputs.embeddings
    by_kind: dict[str, list] = {kind: [] for kind in stages.KINDS}
    for dyad in sorted(series):
        ids = sorted(
            aid for aid, lab in labels.items()
            if dyad in lab.dyads and aid in emb and aid in articles_by_id
        )
        gold_ids = {aid for aid in ids if labels[aid].gold}
        context = [aid for aid in ids if aid not in gold_ids]
        month_count = len(series[dyad].months)
        try:
            topic_model = stages.cluster(
                dyad, ids, np.stack([emb.get(a) for a in ids]), gold_ids,
                wl.min_topic_size, MAX_TOPICS, SEED,
            )
            index = stages.context_index(
                context, np.stack([emb.get(a) for a in context]), SEED,
                out / f"index_{dyad}.bin",
            )
        except Exception as exc:
            units.fail("digest", month_count, exc)
            continue
        dyad_articles = {aid: articles_by_id[aid] for aid in ids}
        for month in series[dyad].months:
            made = units.attempt(
                "digest", 1, stages.month_digests, dyad, int(month), topic_model,
                dyad_articles, gold_ids, emb, index, SEED,
            )
            for kind, digests in (made or {}).items():
                by_kind[kind].extend(digests)
    stages.save_digests([d for kind in stages.KINDS for d in by_kind[kind]], out)

    # stepshift
    model_records: list = []
    for step in wl.steps:
        made = units.attempt(
            "model", len(stages.KINDS), stages.forecast_step, by_kind, states_train,
            states_val, emb, train_end, train_end + 1, val_end, step, wl.epochs, out,
        )
        for kind in stages.KINDS:
            model_records.extend((made or {}).get(kind, []))

    # evaluation: conflictology records mirror the model records one for one
    groups = {(r.step, r.kind) for r in model_records}
    n_cis = N_METRICS * len(groups) * 2 * 2  # x2 sources, x2 row/dyad-month tables
    history = {d: {**states_train.get(d, {}), **states_val.get(d, {})} for d in series}
    baseline_records: list = []
    metrics_csv = None
    try:
        baseline_records = [
            stages.baseline_record(r, history[r.dyad_id], wl.n_boot, SEED) for r in model_records
        ]
        metrics_csv = stages.report(
            model_records, baseline_records, out / "report", wl.n_boot, SEED
        )
        units.attempted["metric_ci"] += n_cis
    except Exception as exc:
        units.fail("metric_ci", n_cis, exc)

    outputs = [out / "labels_train.csv", out / "labels_val.csv", out / "digests.jsonl"]
    outputs += sorted(out.glob("forecasts_step*.csv"))
    if metrics_csv is not None:
        outputs.append(metrics_csv)
    return Result(units, train, val, model_records, baseline_records, metrics_csv, outputs)
