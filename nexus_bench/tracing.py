"""Spans and counters around the calls into ``nexus``, installed from outside.

The tracer replaces module attributes (and a few class methods and the
``evaluation.METRIC_FUNCS`` entries) with wrappers, and puts every
original back on :meth:`Tracer.restore`. Nothing in ``src/`` changes.

- A *span* wrapper records (name, start, end, parent) in memory. A span's
  self time is its duration minus the durations of its child spans; a
  layer's self time is the sum over its spans.
- A *counter* wrapper only counts calls, for functions called thousands of
  times inside a span (``log_marginal``, ``HnswIndex.insert``), so that
  their time stays in the caller's self time.
- An *observer* reads a result to count what the call produced (rows,
  pairs, jitter escalations). Observers that do work of their own (the
  exact-search check behind ``hnsw.recall_at_1``) run inside a
  ``trace.check`` span, so that time is not charged to any layer.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import time
from collections import Counter, defaultdict
from pathlib import Path

# Spans, by layer. "Class.method" names wrap a method of that class.
SPANS = {
    "ingest": (
        "load_events", "load_articles", "load_embeddings", "load_dyad_probs",
        "match_headlines", "apply_dyad_filter", "select_top_dyads",
        "aggregate_monthly", "save_series", "save_labels_file",
    ),
    "gp_trend": ("fit_hierarchical", "fit_map", "fit_trend", "save_trend_fit"),
    "state_labels": ("label_windows", "save_labels_csv", "load_labels_csv"),
    "hnsw": (
        "build_index", "HnswIndex.search", "HnswIndex.brute_force_search", "HnswIndex.save",
    ),
    "digests": ("cluster_topics", "low_context_digest", "rag_digest", "save_digests"),
    "stepshift": ("run_steps", "build_dataset", "train_softmax", "predict", "save_model"),
    "evaluation": ("conflictology", "emit_report", "bootstrap_ci", "save_forecasts_csv"),
}
# Call counters without spans. ``gp_trend._ascend`` is private: it is one
# optimiser start, counted to see how many stop at the iteration cap, and
# its metrics are absent when the program no longer has it.
COUNTERS = {
    "gp_trend": ("log_marginal", "cholesky_with_jitter", "_ascend"),
    "hnsw": ("HnswIndex.insert",),
    "digests": ("TopicModel.members",),
}
_LOG_BOUND = 12.0  # gp_trend's box on the log-parameters


def _owner_attr(module, dotted: str):
    if "." in dotted:
        cls_name, attr = dotted.split(".")
        return getattr(module, cls_name), attr
    return module, dotted


class Tracer:
    """Installs wrappers on the layer modules; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple] = []  # (owner, attr, original)
        self._exact_search = None  # the unwrapped HnswIndex.brute_force_search

    # -- installing and restoring ------------------------------------------

    def install(self, layers: dict) -> None:
        """Wrap the functions named in SPANS and COUNTERS of every present layer."""
        hnsw = layers.get("hnsw")
        if hnsw is not None:
            self._exact_search = vars(hnsw.HnswIndex)["brute_force_search"]
        for layer, module in layers.items():
            if module is None:
                continue
            for dotted in SPANS.get(layer, ()):
                name = f"{layer}.{dotted}"
                self._patch(*_owner_attr(module, dotted), lambda fn, n=name: self._spanned(n, fn))
            for dotted in COUNTERS.get(layer, ()):
                name = f"{layer}.{dotted}"
                if dotted.startswith("_") and not hasattr(module, dotted):
                    continue
                self._patch(*_owner_attr(module, dotted), lambda fn, n=name: self._counted(n, fn))
        evaluation = layers.get("evaluation")
        if evaluation is not None:
            for key in list(evaluation.METRIC_FUNCS):
                self._patch(
                    evaluation.METRIC_FUNCS, key,
                    lambda fn: self._counted("evaluation.metric", fn),
                )

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make_wrapper(original)
        else:
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, make_wrapper(original))
        self._originals.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back, last wrapped first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, result, fn, args, kwargs)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            try:
                result = fn(*args, **kwargs)
            except (ValueError, ZeroDivisionError):
                counts[name + ".undefined"] += 1
                raise
            if observe is not None:
                observe(self, result, fn, args, kwargs)
            return result

        return wrapper

    @contextlib.contextmanager
    def check_span(self):
        """A ``trace.check`` span: tracer work that no layer is charged for."""
        span = ["trace.check", time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- results -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    def span_table(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, longest call."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "incl": 0.0, "self": 0.0, "max": 0.0}
        )
        for i, (name, start, end, _) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["incl"] += end - start
            row["self"] += end - start - child[i]
            row["max"] = max(row["max"], end - start)
        return dict(table)

    def layer_metrics(self, layers: dict) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, (value, unit), for every present layer."""
        t = self.span_table()
        c = self.counts

        def incl(*names):
            return sum(t.get(n, {}).get("incl", 0.0) for n in names)

        def own(*names):
            return sum(t.get(n, {}).get("self", 0.0) for n in names)

        def calls(name):
            return t.get(name, {}).get("calls", 0)

        layer_self = defaultdict(float)
        for name, row in t.items():
            layer_self[name.split(".")[0]] += row["self"]

        per_layer = {
            "ingest": {
                "ingest.load_s": (incl("ingest.load_events", "ingest.load_articles",
                                       "ingest.load_embeddings", "ingest.load_dyad_probs"), "s"),
                "ingest.rows_loaded": (c["ingest.rows_loaded"], "count"),
                "ingest.row_errors": (c["ingest.row_errors"], "count"),
                "ingest.label_s": (incl("ingest.match_headlines", "ingest.apply_dyad_filter",
                                        "ingest.select_top_dyads"), "s"),
                "ingest.aggregate_s": (incl("ingest.aggregate_monthly"), "s"),
                "ingest.gold_articles": (c["ingest.gold_articles"], "count"),
            },
            "gp_trend": {
                "gp_trend.fit_s": (layer_self["gp_trend"], "s"),
                "gp_trend.fits": (calls("gp_trend.fit_map"), "count"),
                "gp_trend.dyad_fit_max_s": (t.get("gp_trend.fit_map", {}).get("max", 0.0), "s"),
                "gp_trend.log_marginal_calls": (c["gp_trend.log_marginal"], "count"),
                "gp_trend.cholesky_calls": (c["gp_trend.cholesky_with_jitter"], "count"),
                "gp_trend.jitter_escalations": (c["gp_trend.jitter_escalations"], "count"),
                "gp_trend.bound_hits": (c["gp_trend.bound_hits"], "count"),
                "gp_trend.fit_failures": (c["gp_trend.fit_failures"], "count"),
            },
            "state_labels": {
                "state_labels.label_s": (incl("state_labels.label_windows"), "s"),
                "state_labels.months_labeled": (c["state_labels.months_labeled"], "count"),
                "state_labels.dyads_skipped": (c["state_labels.dyads_skipped"], "count"),
            },
            "hnsw": {
                "hnsw.build_s": (incl("hnsw.build_index"), "s"),
                "hnsw.inserts": (c["hnsw.HnswIndex.insert"], "count"),
                "hnsw.search_s": (incl("hnsw.HnswIndex.search",
                                       "hnsw.HnswIndex.brute_force_search"), "s"),
                "hnsw.searches": (calls("hnsw.HnswIndex.search"), "count"),
                "hnsw.fallback_ratio": (
                    calls("hnsw.HnswIndex.brute_force_search")
                    / max(calls("hnsw.HnswIndex.search"), 1), "1"),
                "hnsw.recall_at_1": (
                    c["hnsw.exact_hits"] / max(calls("hnsw.HnswIndex.search"), 1), "1"),
            },
            "digests": {
                "digests.cluster_s": (incl("digests.cluster_topics"), "s"),
                "digests.low_context_s": (own("digests.low_context_digest"), "s"),
                "digests.rag_s": (own("digests.rag_digest"), "s"),
                "digests.members_calls": (c["digests.TopicModel.members"], "count"),
                "digests.digests": (c["digests.digests"], "count"),
                "digests.snippets": (c["digests.snippets"], "count"),
                "digests.tokens": (c["digests.tokens"], "count"),
            },
            "stepshift": {
                "stepshift.dataset_s": (own("stepshift.build_dataset"), "s"),
                "stepshift.train_s": (own("stepshift.train_softmax"), "s"),
                "stepshift.predict_s": (own("stepshift.predict"), "s"),
                "stepshift.models": (calls("stepshift.train_softmax"), "count"),
                "stepshift.pairs_train": (c["stepshift.pairs_train"], "count"),
                "stepshift.pairs_test": (c["stepshift.pairs_test"], "count"),
                "stepshift.pairs_dropped": (c["stepshift.pairs_dropped"], "count"),
                "stepshift.predict_calls": (calls("stepshift.predict"), "count"),
            },
            "evaluation": {
                "evaluation.baseline_s": (own("evaluation.conflictology"), "s"),
                "evaluation.baseline_calls": (calls("evaluation.conflictology"), "count"),
                "evaluation.report_s": (own("evaluation.emit_report"), "s"),
                "evaluation.bootstrap_s": (own("evaluation.bootstrap_ci"), "s"),
                "evaluation.resamples": (c["evaluation.resamples"], "count"),
                "evaluation.metric_calls": (c["evaluation.metric"], "count"),
                "evaluation.undefined_resamples": (c["evaluation.metric.undefined"], "count"),
                "evaluation.records": (c["evaluation.records"], "count"),
            },
        }
        if c["gp_trend._ascend"]:
            per_layer["gp_trend"]["gp_trend.starts"] = (c["gp_trend._ascend"], "count")
            per_layer["gp_trend"]["gp_trend.starts_at_cap"] = (
                c["gp_trend.starts_at_cap"], "count")
        out: dict[str, tuple[float, str]] = {}
        for layer, metrics in per_layer.items():
            if layers.get(layer) is None:
                continue
            out.update(metrics)
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        return out


# -- observers: (tracer, result, original function, args, kwargs) ----------

def _loaded(tracer, result, fn, args, kwargs):
    if isinstance(result, tuple):
        rows, errors = result
        tracer.counts["ingest.rows_loaded"] += len(rows)
        tracer.counts["ingest.row_errors"] += len(errors)
    else:  # EmbeddingMatrix
        tracer.counts["ingest.rows_loaded"] += len(result.ids)


def _gold(tracer, result, fn, args, kwargs):
    tracer.counts["ingest.gold_articles"] += len(result)


def _cholesky(tracer, result, fn, args, kwargs):
    if result[1] > 0:
        tracer.counts["gp_trend.jitter_escalations"] += 1


def _ascended(tracer, result, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    if len(result[2]) - 1 >= bound.arguments["max_iter"]:  # every iteration ran
        tracer.counts["gp_trend.starts_at_cap"] += 1


def _map_fit(tracer, result, fn, args, kwargs):
    params = result[0] if isinstance(result, tuple) else result
    values = (params.length_scale, params.amplitude, params.noise_sd)
    if any(abs(math.log(v)) >= _LOG_BOUND - 1e-6 for v in values):
        tracer.counts["gp_trend.bound_hits"] += 1


def _labelled(tracer, result, fn, args, kwargs):
    train, val = result
    tracer.counts["state_labels.months_labeled"] += sum(
        len(ls.months) for part in (train, val) for ls in part.values()
    )
    tracer.counts["state_labels.dyads_skipped"] += len(args[0]) - len(train)


def _searched(tracer, result, fn, args, kwargs):
    with tracer.check_span():
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        exact = tracer._exact_search(bound["self"], bound["query"], 1, bound.get("allowed"))
        if result and exact and result[0][0] == exact[0][0]:
            tracer.counts["hnsw.exact_hits"] += 1


def _saved_digests(tracer, result, fn, args, kwargs):
    digests = args[0]
    tracer.counts["digests.digests"] += len(digests)
    tracer.counts["digests.snippets"] += sum(len(d.snippets) for d in digests)
    tracer.counts["digests.tokens"] += sum(d.total_tokens for d in digests)


def _dataset(tracer, result, fn, args, kwargs):
    train, test, dropped = result
    tracer.counts["stepshift.pairs_train"] += len(train)
    tracer.counts["stepshift.pairs_test"] += len(test)
    tracer.counts["stepshift.pairs_dropped"] += dropped


def _bootstrap(tracer, result, fn, args, kwargs):
    tracer.counts["evaluation.resamples"] += result.n_bootstraps


def _report(tracer, result, fn, args, kwargs):
    tracer.counts["evaluation.records"] += len(args[0]) + len(args[1])


_OBSERVERS = {
    "ingest.load_events": _loaded,
    "ingest.load_articles": _loaded,
    "ingest.load_embeddings": _loaded,
    "ingest.load_dyad_probs": _loaded,
    "ingest.match_headlines": _gold,
    "gp_trend.cholesky_with_jitter": _cholesky,
    "gp_trend._ascend": _ascended,
    "gp_trend.fit_map": _map_fit,
    "state_labels.label_windows": _labelled,
    "hnsw.HnswIndex.search": _searched,
    "digests.save_digests": _saved_digests,
    "stepshift.build_dataset": _dataset,
    "evaluation.bootstrap_ci": _bootstrap,
    "evaluation.emit_report": _report,
}
