"""Every call the benchmark makes into ``nexus``, one function per stage.

Only the public functions of ``src/nexus/*`` are used. When a public
signature changes, this is the one file to update. A module that no longer
exists (``hnsw`` once exact retrieval replaces it) imports as ``None``;
the tracer then skips it and that layer's metrics are absent, not zero.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from pathlib import Path

from nexus import digests, evaluation, gp_trend, ingest, state_labels, stepshift


def _optional(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


hnsw = _optional("nexus.hnsw")

LAYERS = {
    "ingest": ingest,
    "gp_trend": gp_trend,
    "state_labels": state_labels,
    "hnsw": hnsw,
    "digests": digests,
    "stepshift": stepshift,
    "evaluation": evaluation,
}
KINDS = (digests.LOW_CONTEXT, digests.HIGH_CONTEXT)


@dataclass
class Inputs:
    events: list
    articles: list
    embeddings: object
    probs: list
    row_errors: int


def load_inputs(corpus: Path) -> Inputs:
    """ingest: the four loaders on the generated files."""
    events, ev_err = ingest.load_events(corpus / "events.jsonl")
    articles, art_err = ingest.load_articles(corpus / "articles.jsonl")
    embeddings = ingest.load_embeddings(corpus / "embeddings.f32")
    probs, prob_err = ingest.load_dyad_probs(corpus / "dyad_probs.jsonl")
    return Inputs(events, articles, embeddings, probs, len(ev_err) + len(art_err) + len(prob_err))


def label_articles(inputs: Inputs, window: tuple[int, int], n_dyads: int, out: Path):
    """ingest: gold headline matches, the classifier filter, the top dyads."""
    gold = ingest.match_headlines(inputs.articles, inputs.events)
    labels = ingest.apply_dyad_filter(inputs.articles, inputs.probs, gold_labels=gold)
    dyads = ingest.select_top_dyads(inputs.articles, labels, window, n_dyads)
    ingest.save_labels_file(labels, out / "article_labels.jsonl")
    return labels, dyads


def aggregate(events: list, dyad: str, window: tuple[int, int], out: Path):
    """ingest: one dyad's monthly fatality series."""
    series = ingest.aggregate_monthly(events, dyad, window)
    ingest.save_series(series, out / f"series_{dyad}.json")
    return series


def length_scale_prior(median: float):
    return gp_trend.PriorSpec(log_median=math.log(median), log_sd=1.0)


def fit_country_params(series_list: list, prior, max_iter: int | None) -> dict:
    """gp_trend: MAP kernel parameters for one country (pooled when it has several dyads).

    ``max_iter=None`` leaves the optimiser at the program's default.
    """
    if max_iter is None:
        return gp_trend.fit_hierarchical(series_list, prior)
    return gp_trend.fit_hierarchical(series_list, prior, max_iter=max_iter)


def fit_trend(series, prior, params, out: Path, tag: str):
    """gp_trend: posterior mean and derivative of one dyad under fixed parameters."""
    fit = gp_trend.fit_trend(series, prior, params=params)
    gp_trend.save_trend_fit(fit, out / f"trend_{tag}_{series.dyad_id}.json")
    return fit


def label(series_by_dyad: dict, fits_train: dict, fits_val: dict, tau: float,
          train_end: int, val_end: int, out: Path):
    """state_labels: train and validation states, written and read back as CSV."""
    config = state_labels.LabelerConfig(tau=tau, train_end=train_end, val_end=val_end)
    train, val = state_labels.label_windows(series_by_dyad, fits_train, fits_val, config)
    state_labels.save_labels_csv(train, out / "labels_train.csv")
    state_labels.save_labels_csv(val, out / "labels_val.csv")
    return (
        train,
        val,
        state_labels.load_labels_csv(out / "labels_train.csv"),
        state_labels.load_labels_csv(out / "labels_val.csv"),
    )


def cluster(dyad: str, ids: list[str], vectors, gold_ids: set[str],
            min_topic_size: int, max_topics: int, seed: int):
    """digests: spherical k-means topics over one dyad's articles."""
    return digests.cluster_topics(
        dyad, ids, vectors, gold_ids,
        min_topic_size=min_topic_size, max_topics=max_topics, seed=seed,
    )


def context_index(ids: list[str], vectors, seed: int, path: Path):
    """hnsw: the retrieval index over one dyad's non-gold articles."""
    index = hnsw.build_index(ids, vectors, hnsw.HnswConfig(seed=seed))
    index.save(path)
    return index


def month_digests(dyad: str, month: int, topic_model, articles_by_id: dict,
                  gold_ids: set[str], embeddings, index, seed: int) -> dict:
    """digests: both digest kinds for one dyad-month."""
    low = digests.low_context_digest(
        dyad, month, topic_model, articles_by_id, gold_ids, embeddings
    )
    high = digests.rag_digest(
        dyad, month, topic_model, articles_by_id, gold_ids, embeddings, index, seed=seed
    )
    return {digests.LOW_CONTEXT: [low] if low is not None else [], digests.HIGH_CONTEXT: high}


def save_digests(all_digests: list, out: Path) -> None:
    digests.save_digests(all_digests, out / "digests.jsonl")


def forecast_step(digests_by_kind: dict, labels_train: dict, labels_val: dict, embeddings,
                  train_end: int, test_start: int, val_end: int, step: int, epochs: int,
                  out: Path) -> dict:
    """stepshift: one model per digest kind for one step, with its test forecasts."""
    runs = stepshift.run_steps(
        digests_by_kind, labels_train, labels_val, embeddings,
        train_end, test_start, val_end,
        steps=(step,), config=stepshift.TrainConfig(epochs=epochs),
    )
    records = {}
    for (s, kind), (model, recs) in runs.items():
        stepshift.save_model(model, out / f"model_step{s}_{kind}.json")
        evaluation.save_forecasts_csv(recs, out / f"forecasts_step{s}_{kind}.csv")
        records[kind] = recs
    return records


def baseline_record(record, history: dict, n_boot: int, seed: int):
    """evaluation: the conflictology forecast with the same structure as a model record."""
    probs = evaluation.conflictology(
        history, record.step, record.month, n_boot=n_boot, seed=seed
    )
    return evaluation.ForecastRecord(
        dyad_id=record.dyad_id,
        month=record.month,
        step=record.step,
        probabilities=tuple(float(p) for p in probs),
        actual=record.actual,
        source="conflictology",
        kind=record.kind,
    )


def structure_key(records: list) -> list:
    return evaluation.structure_key(records)


def report(model_records: list, baseline_records: list, out: Path, n_boot: int, seed: int) -> Path:
    """evaluation: bootstrap metrics, per-class table and probability grids."""
    evaluation.emit_report(model_records, baseline_records, out, n_boot=n_boot, seed=seed)
    return out / "metrics.csv"
