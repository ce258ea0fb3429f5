"""Actor-dyad conflict escalation forecasting pipeline.

Stages: ingest -> fit-trends -> label -> digest -> forecast -> evaluate.
Each stage is a module of plain functions over in-memory collections and
the files they save; seeds are explicit arguments. ``nexus.pipeline.run``,
which this package does not import, is the one call that runs every stage.

The files the stages save and load, named as ``pipeline.run`` and the
benchmark name them; only the benchmark writes ``index_<dyad>.bin``, and no
stage reads it. Every writer goes through ``_files.write_atomic``; a reader
that cannot read its file raises ``ValueError`` naming it, and the record's
first line for JSONL and CSV (a file is read as CSV when its name ends in
``.csv``). A JSON field must be the type its reader names; CSV fields are
strings, a number the text its saver writes. ``digests.jsonl`` holds article
ids, whose text comes from the articles its reader is given.

============================  ============  =========================================================
file                          format        writer / reader
============================  ============  =========================================================
article_labels.jsonl          JSONL         ingest.save_labels_file / load_labels_file
series_<dyad>.json            JSON          ingest.save_series / load_series
embeddings.f32, .meta.json    f32 + JSON    ingest.save_embeddings / load_embeddings
trend_<tag>_<dyad>.json       JSON          gp_trend.save_trend_fit / load_trend_fit
labels_{train,val}.csv        CSV           state_labels.save_labels_csv / load_labels_csv
index_<dyad>.bin              JSON + f32    hnsw.HnswIndex.save / none
digests.jsonl                 JSONL         digests.save_digests / load_digests(path, articles_by_id)
model_step<s>_<kind>.json     JSON          stepshift.save_model / load_model
forecasts_step<s>_<kind>.csv  CSV           evaluation.save_forecasts_csv / load_forecasts_csv
metrics.csv, per_class.csv    CSV           evaluation.emit_report / none
============================  ============  =========================================================
"""

__version__ = "0.1.0"
