"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q nexus_bench/tests
"""

from __future__ import annotations

import csv
import logging
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import corpus  # noqa: E402
import pipeline  # noqa: E402
import stages  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = replace(
    WORKLOADS["many-forecasts"],
    name="tiny",
    countries=(2, 1),
    months=36,
    train_months=24,
    articles_per_month=3.0,
    topics=3,
    dim=32,
    steps=(0, 1),
    n_boot=20,
    epochs=300,
    min_topic_size=10,
)


@pytest.fixture(autouse=True)
def _quiet():
    logging.disable(logging.WARNING)
    yield
    logging.disable(logging.NOTSET)


def _run(wl, seed: int, tmp: Path):
    corpus_dir = corpus.ensure_corpus(wl, seed, tmp / "corpus")
    out = tmp / f"out-{seed}"
    out.mkdir()
    return pipeline.run(wl, stages.load_inputs(corpus_dir), out)


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    a, b, c = (tmp_path / name for name in "abc")
    for path, seed in ((a, 3), (b, 3), (c, 4)):
        path.mkdir()
        corpus.generate(TINY, seed, path)
    for name in corpus.INPUT_FILES + ("truth.json",):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert any(
        (a / name).read_bytes() != (c / name).read_bytes() for name in corpus.INPUT_FILES
    )


def _attributes(layers: dict) -> dict:
    """Every attribute the tracer may replace, by identity."""
    found = {}
    for layer, module in layers.items():
        if module is None:
            continue
        for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
            for name, value in vars(owner).items():
                if callable(value):
                    found[(owner.__name__, name)] = value
    found.update(
        (("METRIC_FUNCS", k), v) for k, v in layers["evaluation"].METRIC_FUNCS.items()
    )
    return found


def test_wrappers_are_restored(tmp_path):
    before = _attributes(stages.LAYERS)
    tracer = Tracer()
    tracer.install(stages.LAYERS)
    assert _attributes(stages.LAYERS) != before
    try:
        _run(TINY, 6, tmp_path)
    finally:
        tracer.restore()
    assert _attributes(stages.LAYERS) == before
    spans, counts = len(tracer.spans), dict(tracer.counts)
    assert spans > 0 and counts["gp_trend.log_marginal"] > 0

    _run(TINY, 7, tmp_path)  # untraced: the originals run, the tracer sees nothing
    assert len(tracer.spans) == spans
    assert dict(tracer.counts) == counts


def _mean(metrics_csv: Path, source: str, column: str) -> float:
    with open(metrics_csv, newline="", encoding="utf-8") as fh:
        return statistics.fmean(
            float(row[column])
            for row in csv.DictReader(fh)
            if row["source"] == source and row["metric"] == "auroc"
        )


def test_no_signal_no_edge_over_conflictology(tmp_path):
    """Negative control for leakage: with nothing planted, the model cannot win."""
    result = _run(replace(TINY, signal=0.0), 8, tmp_path)
    assert sum(result.units.failed.values()) == 0
    model = _mean(result.metrics_csv, "model", "point")
    assert model <= _mean(result.metrics_csv, "conflictology", "hi")
