"""The intermediate files: every saver writes atomically, every loader names a cut file."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_series
from nexus import _files
from nexus.digests import HIGH_CONTEXT, LOW_CONTEXT, Digest, Snippet, load_digests, save_digests
from nexus.evaluation import ForecastRecord, emit_report, load_forecasts_csv, save_forecasts_csv
from nexus.gp_trend import KernelParams, TrendFit, load_trend_fit, save_trend_fit
from nexus.hnsw import HnswConfig, HnswIndex, build_index
from nexus.ingest import (
    ArticleLabel,
    load_embeddings,
    load_labels_file,
    load_series,
    save_embeddings,
    save_labels_file,
    save_series,
)
from nexus.state_labels import LabeledSeries, load_labels_csv, save_labels_csv
from nexus.stepshift import SoftmaxModel, TrainConfig, load_model, save_model

VECTORS = np.arange(12, dtype=np.float32).reshape(4, 3) + 1
LABELS = {
    "a": ArticleLabel("a", ("d1", "d2"), gold=True, ambiguous=True),
    "b": ArticleLabel("b", ("d3",), gold=False),
    "c": ArticleLabel("c", ("d1",), gold=True),
}
TREND = TrendFit(
    "d1", KernelParams(6.0, 1.5, 0.3), np.arange(24000, 24004),
    np.array([0.1, 0.2, 0.4, 0.3]), np.array([0.1, 0.15, 0.05, -0.1]), -3.25, 1,
)
STATES = {
    dyad: LabeledSeries(dyad, np.arange(24000, 24003), np.array([0, 1, 3]),
                        np.array([0.0, 0.123456789, -0.5]))
    for dyad in ("d1", "d2")
}
DIGESTS = [
    Digest("d1", 24000 + m, kind, [Snippet(f"a{m}", "x y z", 3), Snippet("b", "w", 1)], 4)
    for kind in (LOW_CONTEXT, HIGH_CONTEXT) for m in range(2)
]
MODEL = SoftmaxModel(np.arange(12.0).reshape(4, 3) / 7, np.ones(4), TrainConfig(epochs=5),
                     0.75, 5, False, 1, LOW_CONTEXT)
FORECASTS = [
    ForecastRecord(dyad, 24000 + m, 1, (0.1, 0.2, 0.3, 0.4), m % 4, "model", LOW_CONTEXT)
    for dyad in ("d1", "d2") for m in range(3)
]


def _label_rows(loaded):
    return [(dyad, month, code) for dyad, by_month in loaded.items()
            for month, code in by_month.items()]


# name: (save(path), load(path), the loaded rows, or None for a single-object file)
CASES = {
    "series.json": (lambda p: save_series(make_series([0, 3, 17], "d7"), p), load_series, None),
    "labels.jsonl": (lambda p: save_labels_file(LABELS, p), load_labels_file,
                     lambda loaded: list(loaded.values())),
    "emb.f32": (lambda p: save_embeddings(p, list("abcd"), VECTORS), load_embeddings, None),
    "emb.meta.json": (lambda p: save_embeddings(p.with_name("emb.f32"), list("abcd"), VECTORS),
                      lambda p: load_embeddings(p.with_name("emb.f32")), None),
    "trend.json": (lambda p: save_trend_fit(TREND, p), load_trend_fit, None),
    "states.csv": (lambda p: save_labels_csv(STATES, p), load_labels_csv, _label_rows),
    "index.bin": (lambda p: build_index(list("abcd"), VECTORS, HnswConfig(seed=3)).save(p),
                  HnswIndex.load, None),
    "digests.jsonl": (lambda p: save_digests(DIGESTS, p), load_digests, list),
    "model.json": (lambda p: save_model(MODEL, p), load_model, None),
    "forecasts.csv": (lambda p: save_forecasts_csv(FORECASTS, p),
                      lambda p: load_forecasts_csv(p, 1, LOW_CONTEXT), list),
}


def _ignored_tail(name: str, data: bytes) -> int:
    """How many trailing bytes the loader does not read: the newline, or the unread last field."""
    if name.endswith(".jsonl"):
        return 1
    if name == "states.csv":  # the derivative value is not loaded
        return len(data) - data.rindex(b",") - 1
    return 2  # "\r\n"


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=40)
@given(data=st.data())
def test_cut_file_raises_naming_it_or_loads_a_prefix(tmp_path_factory, name, data):
    save, load, rows = CASES[name]
    path = tmp_path_factory.mktemp("cut") / name
    save(path)
    whole = path.read_bytes()
    full = None if rows is None else rows(load(path))
    cut = data.draw(st.integers(0, len(whole) - 1), label="cut")
    path.write_bytes(whole[:cut])
    if rows is None:
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load(path)
        return
    try:
        loaded = rows(load(path))
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    if name.endswith(".jsonl") and cut:  # a JSONL row cut short of its closing brace raises
        assert b"\n" in whole[cut - 1 : cut + 1]
    assert loaded == full[: len(loaded)]
    if cut >= len(whole) - _ignored_tail(name, whole):
        assert loaded == full


def test_every_saver_writes_through_write_atomic(tmp_path, monkeypatch):
    written = []
    write_atomic = _files.write_atomic

    def recorder(path, write):
        written.append(path)
        write_atomic(path, write)

    monkeypatch.setattr(_files, "write_atomic", recorder)
    for name, (save, _, _) in CASES.items():
        (tmp_path / name).mkdir()
        save(tmp_path / name / name)
    baseline = [replace(r, source="conflictology") for r in FORECASTS]
    emit_report(FORECASTS, baseline, tmp_path / "report", n_boot=3)
    files = {p for p in tmp_path.rglob("*") if p.is_file()}
    assert len(files) > len(CASES) + 3  # the sidecar, metrics, per_class and the grids
    assert files == set(written)


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"old": 1}')

    def write(fh):
        fh.write(b'{"ne')
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _files.write_atomic(path, write)
    assert path.read_bytes() == b'{"old": 1}'
    assert list(tmp_path.iterdir()) == [path]
