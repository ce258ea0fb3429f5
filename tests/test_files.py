"""The intermediate files: every saver writes atomically, every loader names a cut file."""

import datetime as dt
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roundtrip_outputs
from conftest import make_series
from nexus import _files
from nexus.digests import HIGH_CONTEXT, LOW_CONTEXT, Digest, load_digests, save_digests, snippet
from nexus.evaluation import ForecastRecord, emit_report, load_forecasts_csv, save_forecasts_csv
from nexus.gp_trend import KernelParams, TrendFit, load_trend_fit, save_trend_fit
from nexus.ingest import (
    Article,
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
    "a": ArticleLabel("a", ("d1", "d2"), gold=True),
    "b": ArticleLabel("b", ("d3",), gold=False),
    "c": ArticleLabel("c", ("d1",), gold=True),
}
TREND = TrendFit("d1", KernelParams(6.0, 1.5, 0.3), 24000, np.array([0.1, 0.2, 0.4, 0.3]), -3.25, 1)
STATES = {
    dyad: LabeledSeries(dyad, np.arange(24000, 24003), np.array([0, 1, 3]))
    for dyad in ("d1", "d2")
}
ARTICLES = {
    aid: Article(aid, dt.date(2020, 1, 1), headline, body)
    for aid, headline, body in (("a0", "x y", "z"), ("a1", "x", " y  z"), ("b", "w", ""))
}
DIGESTS = [
    Digest("d1", 24000 + m, kind, [snippet(ARTICLES[f"a{m}"]), snippet(ARTICLES["b"])])
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


def _resave_embeddings(matrix, path):
    save_embeddings(path.with_name("emb.f32"), matrix.ids, matrix.vectors)


# name: (save(path), load(path), the loaded rows, or None for a single-object file,
#        resave(loaded, path) that saves what load returns, or None where it is not a saver's input)
CASES = {
    "series.json": (lambda p: save_series(make_series([0, 3, 17], "d7"), p), load_series, None,
                    save_series),
    "labels.jsonl": (lambda p: save_labels_file(LABELS, p), load_labels_file,
                     lambda loaded: list(loaded.values()), save_labels_file),
    "emb.f32": (lambda p: save_embeddings(p, list("abcd"), VECTORS), load_embeddings, None,
                _resave_embeddings),
    "emb.meta.json": (lambda p: save_embeddings(p.with_name("emb.f32"), list("abcd"), VECTORS),
                      lambda p: load_embeddings(p.with_name("emb.f32")), None,
                      _resave_embeddings),
    "trend.json": (lambda p: save_trend_fit(TREND, p), load_trend_fit, None, save_trend_fit),
    "states.csv": (lambda p: save_labels_csv(STATES, p), load_labels_csv, _label_rows,
                   roundtrip_outputs.resave_labels),
    "digests.jsonl": (lambda p: save_digests(DIGESTS, p), lambda p: load_digests(p, ARTICLES), list,
                      save_digests),
    "model.json": (lambda p: save_model(MODEL, p), load_model, None, save_model),
    "forecasts.csv": (lambda p: save_forecasts_csv(FORECASTS, p),
                      lambda p: load_forecasts_csv(p, 1, LOW_CONTEXT), list, save_forecasts_csv),
}


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=40)
@given(data=st.data())
def test_cut_file_raises_naming_it_or_loads_a_prefix(tmp_path_factory, name, data):
    save, load, rows, _ = CASES[name]
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
    if cut >= len(whole) - (1 if name.endswith(".jsonl") else 2):  # all but "\n" or "\r\n"
        assert loaded == full


@pytest.mark.parametrize("name", [name for name, case in CASES.items() if case[3]])
def test_saving_what_was_loaded_writes_the_same_bytes(tmp_path, name):
    save, load, _, resave = CASES[name]
    saved, resaved = tmp_path / "saved" / name, tmp_path / "resaved" / name
    saved.parent.mkdir()
    resaved.parent.mkdir()
    save(saved)
    resave(load(saved), resaved)
    assert resaved.read_bytes() == saved.read_bytes()


def test_roundtrip_script_names_the_first_file_that_does_not_round_trip(tmp_path):
    # one file of each kind, named as a pipeline run names it
    for case, name in (("series.json", "series_d7.json"), ("labels.jsonl", "article_labels.jsonl"),
                       ("states.csv", "labels_train.csv"),
                       ("trend.json", "trend_train_d1.json"), ("digests.jsonl", "digests.jsonl"),
                       ("model.json", "model_step1_low_context.json"),
                       ("forecasts.csv", "forecasts_step1_low_context.csv")):
        CASES[case][0](tmp_path / name)
    counts, error = roundtrip_outputs.check(tmp_path, ARTICLES)
    assert error is None and set(counts.values()) == {1}
    trend = tmp_path / "trend_train_d1.json"
    trend.write_text(json.dumps(json.loads(trend.read_text()), indent=1))  # same values
    assert roundtrip_outputs.check(tmp_path, ARTICLES)[1] == (
        f"{trend}: saving what was loaded writes other bytes"
    )
    trend.unlink()
    assert roundtrip_outputs.check(tmp_path, ARTICLES)[1] == f"{tmp_path}: no trend_*.json file"


LABELS_HEADER = b"dyad_id,month,state_code,state_name\r\n"
# name: (a labels CSV with one bad record, the record's first line)
BAD_LABELS = {
    "merged-rows": (LABELS_HEADER + b"d1,2020-01,2,Plateaud1,2020-02,0,Peace\r\n"
                    b"d1,2020-03,1,Escalation\r\n", 2),
    "invalid-utf8": (LABELS_HEADER + b"d1,2020-01,2,Plateau\r\n"
                     b"d1,2020-02,0,Pe\xffce\r\n", 3),
    "multi-line-record": (LABELS_HEADER + b'd1,2020-01,9,"two\r\nlines"\r\n'
                          b"d1,2020-02,0,Peace\r\n", 2),
}


@pytest.mark.parametrize("name", BAD_LABELS)
def test_bad_csv_record_raises_naming_file_and_first_line(tmp_path, name):
    data, line = BAD_LABELS[name]
    path = tmp_path / "states.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: ")):
        load_labels_csv(path)


def test_deeply_nested_jsonl_line_raises_naming_file_and_line(tmp_path):
    path = tmp_path / "digests.jsonl"
    save_digests(DIGESTS, path)
    with path.open("ab") as fh:
        fh.write(b"[" * 200_000 + b"\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}, line {len(DIGESTS) + 1}: ")):
        load_digests(path, ARTICLES)


def test_every_saver_writes_through_write_atomic(tmp_path, monkeypatch):
    written = []
    write_atomic = _files.write_atomic

    def recorder(path, write):
        written.append(path)
        write_atomic(path, write)

    monkeypatch.setattr(_files, "write_atomic", recorder)
    for name, (save, *_) in CASES.items():
        (tmp_path / name).mkdir()
        save(tmp_path / name / name)
    baseline = [replace(r, source="conflictology") for r in FORECASTS]
    emit_report(FORECASTS, baseline, tmp_path / "report", n_boot=3)
    files = {p for p in tmp_path.rglob("*") if p.is_file()}
    # each embeddings case also writes its partner file, then metrics and per_class
    assert len(files) == len(CASES) + 2 + 2
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


def test_field_returns_the_type_it_names():
    assert type(_files.field({"x": 3}, "x", float)) is float
    assert _files.field({"x": 3}, "x", int) == 3 and _files.field({"x": "3"}, "x", str) == "3"
    with pytest.raises(ValueError, match=r"^x is out of the float range$"):
        _files.field({"x": 10**400}, "x", float)
    with pytest.raises(ValueError, match=r"^x is out of the float range$"):
        _files.numbers({"x": [1.5, 10**400]}, "x")
    with pytest.raises(ValueError, match=r"^x is not a dict: \[1\]$"):
        _files.field({"x": [1]}, "x", dict)


def test_ragged_2d_number_list_names_its_field(tmp_path):
    path = tmp_path / "model.json"
    save_model(MODEL, path)
    payload = json.loads(path.read_text())
    payload["weights"][1] = payload["weights"][1][:1]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape(
        f"{path}: weights is not a rectangular list of lists"
    )):
        load_model(path)
