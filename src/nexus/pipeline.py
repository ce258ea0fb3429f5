"""The whole pipeline as one call: ``run``.

ingest -> gp_trend -> state_labels -> digests -> stepshift -> evaluation.
``run`` loads the four corpus inputs, calls each stage's public functions
in that order and saves every intermediate file under the names of the
``nexus`` package table. Its parameters are the settings that differ
between runs; the ones every run shares are the module constants below,
and the rest are the stages' defaults. A stage that raises ends the run.

The features of ``stepshift.run_steps`` do not depend on the step, so it
is called once with every step and pools each digest once. No retrieval
index is built: ``digests.rag_digest`` ranks articles by exact cosine
similarity and does not read its ``index``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import digests, evaluation, gp_trend, ingest, state_labels, stepshift

GP_MAX_ITER = 20  # iterations per GP optimiser start
PRIOR = gp_trend.PriorSpec(log_median=math.log(3.0), log_sd=1.0)  # length scale in months
SEED = 0  # of k-means and the bootstrap


def run(
    corpus_dir: str | Path,
    out_dir: str | Path,
    *,
    window: tuple[int, int],
    train_end: int,
    n_dyads: int,
    steps: tuple[int, ...],
    n_boot: int,
    epochs: int,
    min_topic_size: int,
) -> None:
    """Forecast and score the ``n_dyads`` dyads with the most labelled articles.

    ``corpus_dir`` holds ``events.jsonl``, ``articles.jsonl``,
    ``embeddings.f32`` (with its sidecar) and ``dyad_probs.jsonl``; rows
    the loaders reject are logged and left out. ``window`` is the first
    and last month of the run, and the validation window follows
    ``train_end`` to its end. The report goes to ``out_dir/report``.
    """
    corpus, out = Path(corpus_dir), Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    events, _ = ingest.load_events(corpus / "events.jsonl")
    articles, _ = ingest.load_articles(corpus / "articles.jsonl")
    emb = ingest.load_embeddings(corpus / "embeddings.f32")
    probs, _ = ingest.load_dyad_probs(corpus / "dyad_probs.jsonl")

    gold = ingest.match_headlines(articles, events)
    labels = ingest.apply_dyad_filter(articles, probs, gold_labels=gold)
    ingest.save_labels_file(labels, out / "article_labels.jsonl")
    series = {}
    for dyad in sorted(ingest.select_top_dyads(articles, labels, window, n_dyads)):
        series[dyad] = ingest.aggregate_monthly(events, dyad, window)
        ingest.save_series(series[dyad], out / f"series_{dyad}.json")

    # one fit on the training window and one on the whole window, per dyad
    lo, val_end = window
    fits: dict[str, dict] = {}
    for tag, hi in (("train", train_end), ("full", val_end)):
        group = [s.month_slice(lo, hi) for s in series.values()]
        params = gp_trend.fit_hierarchical(group, PRIOR, max_iter=GP_MAX_ITER)
        fits[tag] = {s.dyad_id: gp_trend.fit_trend(s, PRIOR, params[s.dyad_id]) for s in group}
        for dyad, fit in fits[tag].items():
            gp_trend.save_trend_fit(fit, out / f"trend_{tag}_{dyad}.json")

    config = state_labels.LabelerConfig(state_labels.DEFAULT_TAU, train_end, val_end)
    windows = state_labels.label_windows(series, fits["train"], fits["full"], config)
    states = []  # train, then validation: dyad -> month -> state code
    for tag, labeled in zip(("train", "val"), windows):
        state_labels.save_labels_csv(labeled, out / f"labels_{tag}.csv")
        states.append({d: dict(zip(ls.months.tolist(), ls.states.tolist()))
                       for d, ls in labeled.items()})

    articles_by_id = {a.article_id: a for a in articles}
    by_kind: dict[str, list] = {digests.LOW_CONTEXT: [], digests.HIGH_CONTEXT: []}
    for dyad, s in series.items():
        ids = sorted(aid for aid, label in labels.items() if dyad in label.dyads and aid in emb)
        gold_ids = {aid for aid in ids if labels[aid].gold}
        topics = digests.cluster_topics(dyad, ids, np.stack([emb.get(a) for a in ids]), gold_ids,
                                        min_topic_size=min_topic_size, seed=SEED)
        dyad_articles = {aid: articles_by_id[aid] for aid in ids}
        for month in s.months.tolist():
            low = digests.low_context_digest(dyad, month, topics, dyad_articles, gold_ids, emb)
            by_kind[digests.LOW_CONTEXT] += [low] if low is not None else []
            by_kind[digests.HIGH_CONTEXT] += digests.rag_digest(
                dyad, month, topics, dyad_articles, gold_ids, emb, None)
    digests.save_digests([d for made in by_kind.values() for d in made], out / "digests.jsonl")

    model_records = []
    for (step, kind), (model, records) in stepshift.run_steps(
        by_kind, *states, emb, train_end, train_end + 1, val_end,
        steps=steps, config=stepshift.TrainConfig(epochs=epochs),
    ).items():
        stepshift.save_model(model, out / f"model_step{step}_{kind}.json")
        evaluation.save_forecasts_csv(records, out / f"forecasts_step{step}_{kind}.csv")
        model_records += records

    history = {d: {**states[0].get(d, {}), **states[1].get(d, {})} for d in series}
    baseline_records = [
        replace(r, source="conflictology", probabilities=tuple(
            float(p) for p in evaluation.conflictology(history[r.dyad_id], r.step, r.month)))
        for r in model_records
    ]
    evaluation.emit_report(model_records, baseline_records, out / "report", n_boot=n_boot,
                           seed=SEED)
