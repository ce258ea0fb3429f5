import datetime as dt
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_series
from nexus import _files, months
from nexus.ingest import (
    DYAD_THRESHOLD,
    MAX_COUNT,
    Article,
    ArticleLabel,
    ConflictEvent,
    DyadProbabilityRow,
    EmbeddingMatrix,
    RowError,
    aggregate_monthly,
    apply_dyad_filter,
    load_articles,
    load_dyad_probs,
    load_embeddings,
    load_events,
    load_labels_file,
    load_series,
    match_headlines,
    save_embeddings,
    save_labels_file,
    save_series,
    select_top_dyads,
)


def write_jsonl(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def event_row(event_id, fatalities):
    """One JSONL event row; ``fatalities`` is written verbatim as a JSON literal."""
    return (
        f'{{"event_id":"{event_id}","dyad_id":"d1","country_id":"c1",'
        f'"date":"2015-03-14","fatalities":{fatalities},"headline":"clash {event_id}"}}'
    )


def csv_event_row(event_id, fatalities, headline="clash"):
    return f"{event_id},d1,c1,2015-03-14,{fatalities},{headline} {event_id}\n".encode("latin-1")


CSV_HEADER = b"event_id,dyad_id,country_id,date,fatalities,headline\n"


class TestLoaderContract:
    """A bad row becomes a RowError; the good rows around it still load."""

    @pytest.mark.parametrize(
        "bad",
        [
            '{"article_id":"a","probs":{"d1":"x"}}',
            '{"article_id":"b","probs":[1,2]}',
            '{"article_id":"c","probs":{"d1":true}}',  # float(true) is 1.0
            '{"article_id":"d","probs":{"d1":0.2,"d2":false}}',
        ],
        ids=["non-numeric-probability", "probs-not-an-object", "boolean-true", "boolean-false"],
    )
    def test_dyad_probs_bad_row(self, tmp_path, bad):
        path = write_jsonl(
            tmp_path / "probs.jsonl",
            [
                '{"article_id":"g1","probs":{"d1":0.9}}',
                bad,
                '{"article_id":"g2","probs":{"d1":0.1,"d2":0.4}}',
            ],
        )
        rows, errors = load_dyad_probs(path)
        assert [r.article_id for r in rows] == ["g1", "g2"]
        assert rows[1].probabilities == {"d1": 0.1, "d2": 0.4}
        assert [e.line for e in errors] == [2]

    def test_events_infinite_fatalities(self, tmp_path):
        # json parses 1e999 as inf, which int() cannot convert
        path = write_jsonl(
            tmp_path / "events.jsonl",
            [event_row("e1", "3"), event_row("e2", "1e999"), event_row("e3", "0")],
        )
        events, errors = load_events(path)
        assert [e.event_id for e in events] == ["e1", "e3"]
        assert [e.line for e in errors] == [2]

    def test_events_invalid_utf8_row(self, tmp_path):
        path = tmp_path / "events.jsonl"
        rows = [event_row("e1", "3").replace("clash", "clash \xff"), event_row("e2", "1")]
        path.write_bytes(b"".join(r.encode("latin-1") + b"\n" for r in rows))
        events, errors = load_events(path)
        assert [e.event_id for e in events] == ["e2"]
        assert [e.line for e in errors] == [1]
        assert "UTF-8" in errors[0].message

    def test_events_fractional_fatalities(self, tmp_path):
        path = write_jsonl(
            tmp_path / "events.jsonl",
            [event_row("e1", "2.7"), event_row("e2", "3.0"), event_row("e3", "4")],
        )
        events, errors = load_events(path)
        assert [(e.event_id, e.fatalities) for e in events] == [("e2", 3), ("e3", 4)]
        assert [e.line for e in errors] == [1]
        assert type(events[0].fatalities) is int

    def test_events_boolean_and_oversized_fatalities(self, tmp_path):
        path = write_jsonl(
            tmp_path / "events.jsonl",
            [
                event_row("e1", "true"),
                event_row("e2", str(MAX_COUNT)),
                event_row("e3", str(MAX_COUNT + 1)),
                event_row("e4", "1e20"),
                event_row("e5", "100000000000000000000"),
                event_row("e6", "false"),
            ],
        )
        events, errors = load_events(path)
        assert [(e.event_id, e.fatalities) for e in events] == [("e2", MAX_COUNT)]
        assert [e.line for e in errors] == [1, 3, 4, 5, 6]

    def test_loaded_counts_sum_inside_int64(self, tmp_path):
        # two rows of 9e18 would each fit an int64 but wrap when added
        path = write_jsonl(
            tmp_path / "events.jsonl",
            [
                event_row("e1", "9000000000000000000"),
                event_row("e2", "9000000000000000000"),
                event_row("e3", str(MAX_COUNT)),
                event_row("e4", str(MAX_COUNT)),
            ],
        )
        events, errors = load_events(path)
        assert [e.line for e in errors] == [1, 2]
        window = (months.month_index(2015, 1), months.month_index(2015, 12))
        assert aggregate_monthly(events, "d1", window).raw_fatalities.sum() == 2 * MAX_COUNT

    def test_csv_events_invalid_utf8_row(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_bytes(
            CSV_HEADER + csv_event_row("e1", "3", "clash \xff") + csv_event_row("e2", "1")
        )
        events, errors = load_events(path)
        assert [e.event_id for e in events] == ["e2"]
        assert [e.line for e in errors] == [2]
        assert "UTF-8" in errors[0].message

    def test_csv_events_fatalities_parse_as_jsonl(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_bytes(
            CSV_HEADER
            + csv_event_row("e1", "3.0")
            + csv_event_row("e2", "2.7")
            + csv_event_row("e3", "1e999")
            + csv_event_row("e4", "4")
        )
        events, errors = load_events(path)
        assert [(e.event_id, e.fatalities) for e in events] == [("e1", 3), ("e4", 4)]
        assert type(events[0].fatalities) is int
        assert [e.line for e in errors] == [3, 4]

    def test_csv_error_names_first_physical_line(self, tmp_path):
        # e1's quoted headline spans lines 2-3, so e2 starts on line 4; line 5 is blank
        path = tmp_path / "events.csv"
        path.write_bytes(
            CSV_HEADER
            + b'e1,d1,c1,2015-03-14,3,"two-line\nheadline"\n'
            + csv_event_row("e2", "2.7")
            + b"\n"
            + csv_event_row("e3", "-1")
            + b"e4,d1,c1,2015-03-14\n"
        )
        events, errors = load_events(path)
        assert [(e.event_id, e.headline) for e in events] == [("e1", "two-line\nheadline")]
        assert [e.line for e in errors] == [4, 6, 7]
        assert "missing fields" in errors[2].message

    def test_csv_rows_merged_by_a_lost_line_break_are_a_row_error(self, tmp_path):
        # e1's line break was lost, so e1 and e2 share line 2 and read as one record of 11 fields
        path = tmp_path / "events.csv"
        merged = csv_event_row("e1", "3", "Clash in the north").rstrip(b"\n")
        path.write_bytes(CSV_HEADER + merged + csv_event_row("e2", "1") + csv_event_row("e3", "2"))
        events, errors = load_events(path)
        assert [e.event_id for e in events] == ["e3"]
        assert [e.line for e in errors] == [2]

    def test_csv_field_past_the_field_limit_is_a_row_error(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_bytes(
            CSV_HEADER + csv_event_row("e1", "3", "x" * 200_000) + csv_event_row("e2", "1")
        )
        events, errors = load_events(path)
        assert [e.event_id for e in events] == ["e2"]
        assert [e.line for e in errors] == [2]
        assert "field limit" in errors[0].message

    def test_csv_header_past_the_field_limit_is_one_row_error(self, tmp_path):
        # without a header no record can be read
        path = tmp_path / "events.csv"
        path.write_bytes(b"x" * 200_000 + b"\n" + csv_event_row("e1", "3"))
        events, errors = load_events(path)
        assert events == [] and [e.line for e in errors] == [1]

    def test_events_duplicate_id(self, tmp_path):
        path = write_jsonl(
            tmp_path / "events.jsonl",
            [event_row(i, f) for i, f in (("e1", 3), ("e2", 1), ("e1", 5), ("e3", 0))],
        )
        events, errors = load_events(path)
        assert [(e.event_id, e.fatalities) for e in events] == [("e1", 3), ("e2", 1), ("e3", 0)]
        assert [e.line for e in errors] == [3]
        assert "'e1'" in errors[0].message and "line 1" in errors[0].message

    def test_articles_duplicate_id(self, tmp_path):
        row = '{{"article_id":"{}","date":"2015-03-{:02d}","headline":"h","body":"b"}}'
        rows = [row.format("a1", 1), row.format("a2", 2), row.format("a1", 3)]
        path = write_jsonl(tmp_path / "articles.jsonl", rows)
        articles, errors = load_articles(path)
        assert [(a.article_id, a.date.day) for a in articles] == [("a1", 1), ("a2", 2)]
        assert [e.line for e in errors] == [3]
        assert "'a1'" in errors[0].message and "line 1" in errors[0].message

    # the basic and week forms of 2015-03-14: date.fromisoformat takes both on Python 3.11,
    # neither on 3.10, so the same file would load differently
    @pytest.mark.parametrize("date", ["20150314", "2015-W11-6"])
    def test_date_other_than_yyyy_mm_dd_is_a_bad_row(self, tmp_path, date):
        bad = event_row("e2", 1).replace("2015-03-14", date)
        path = write_jsonl(tmp_path / "events.jsonl", [bad, event_row("e3", 2)])
        events, errors = load_events(path)
        assert [e.event_id for e in events] == ["e3"] and [e.line for e in errors] == [1]
        assert "YYYY-MM-DD" in errors[0].message
        path = tmp_path / "events.csv"
        path.write_bytes(CSV_HEADER + csv_event_row("e2", 1).replace(b"2015-03-14", date.encode())
                         + csv_event_row("e3", 2))
        events, errors = load_events(path)
        assert [e.event_id for e in events] == ["e3"] and [e.line for e in errors] == [2]
        row = '{{"article_id":"{}","date":"{}","headline":"h","body":"b"}}'
        rows = [row.format("a1", date), row.format("a2", "2015-03-14")]
        path = write_jsonl(tmp_path / "articles.jsonl", rows)
        articles, errors = load_articles(path)
        assert [a.article_id for a in articles] == ["a2"] and [e.line for e in errors] == [1]


def test_embedding_matrix_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="'b' in rows 1 and 3"):
        EmbeddingMatrix(ids=["a", "b", "c", "b", "a"], vectors=np.zeros((5, 2)))


# The three row loaders, each with a valid JSONL row for an id, its required
# fields and the attribute that holds the row's id.
LOADERS = {
    "events": (load_events, lambda i: json.loads(event_row(i, 3)),
               ("event_id", "dyad_id", "country_id", "date", "fatalities", "headline"),
               "event_id"),
    "articles": (load_articles,
                 lambda i: {"article_id": i, "date": "2015-03-14", "headline": "h", "body": "b"},
                 ("article_id", "date", "headline", "body"), "article_id"),
    "dyad_probs": (load_dyad_probs, lambda i: {"article_id": i, "probs": {"d1": 0.9}},
                   ("article_id", "probs"), "article_id"),
}


def _decoded(raw):
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return None


def _not_an_object(raw):
    try:
        return not isinstance(json.loads(_decoded(raw)), dict)
    except (TypeError, ValueError, RecursionError):
        return True


# One physical line each: arbitrary bytes or UTF-8 text that is not a JSON
# object, a valid row, or a valid row without one required field. Ids come
# from a small pool, so valid rows repeat ids.
LINES = st.lists(
    st.one_of(
        st.tuples(st.just("text"), st.one_of(
            st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
                    max_size=20).map(str.encode),
            st.binary(max_size=20).map(lambda raw: raw.replace(b"\n", b"").replace(b"\r", b"")),
        ).filter(_not_an_object)),
        st.tuples(st.just("row"), st.sampled_from("abc")),
        st.tuples(st.just("broken"), st.sampled_from("abc"), st.integers(0, 5)),
    ),
    max_size=12,
)


class TestLoaderProperties:
    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @settings(max_examples=60, deadline=None)
    @given(lines=LINES)
    # line 2 repeats line 1's id and line 3 is not JSON: errors on lines 2, 3 in that order
    @example(lines=[("row", "a"), ("row", "a"), ("text", b"{not json")])
    def test_rows_load_or_become_errors_in_line_order(self, tmp_path_factory, loader, lines):
        load, make_row, fields, key = LOADERS[loader]
        raw_lines, loaded, error_lines = [], [], []
        for lineno, (kind, value, *drop) in enumerate(lines, start=1):
            if kind == "text":
                raw_lines.append(value)
                decoded = _decoded(value)
                if decoded is None or decoded.strip():
                    error_lines.append(lineno)
                continue
            row = make_row(value)
            if kind == "broken":
                del row[fields[drop[0] % len(fields)]]
                error_lines.append(lineno)
            elif value in loaded:
                error_lines.append(lineno)
            else:
                loaded.append(value)
            raw_lines.append(json.dumps(row).encode())
        path = tmp_path_factory.mktemp(loader) / "rows.jsonl"
        path.write_bytes(b"".join(raw + b"\n" for raw in raw_lines))
        items, errors = load(path)
        assert [getattr(item, key) for item in items] == loaded
        assert [e.line for e in errors] == error_lines  # ascending, as enumerated


class TestLoaderEdgeCases:
    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_deeply_nested_json_is_a_row_error(self, tmp_path, loader):
        load, make_row, _, key = LOADERS[loader]
        path = write_jsonl(tmp_path / "rows.jsonl", [json.dumps(make_row("a")), "[" * 100_000])
        items, errors = load(path)
        assert [getattr(item, key) for item in items] == ["a"]
        assert errors == [RowError(2, "invalid JSON: nested too deeply")]

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_integer_past_the_digit_limit_is_a_row_error(self, tmp_path, loader):
        load, make_row, _, key = LOADERS[loader]
        path = write_jsonl(tmp_path / "rows.jsonl", ["9" * 5000, json.dumps(make_row("a"))])
        items, errors = load(path)
        assert [getattr(item, key) for item in items] == ["a"]
        assert [e.line for e in errors] == [1]
        assert errors[0].message.startswith("invalid JSON")

    def test_dyad_probs_probability_too_large_for_a_float(self, tmp_path):
        path = write_jsonl(
            tmp_path / "probs.jsonl",
            ['{"article_id":"a","probs":{"d1":' + "1" * 400 + "}}",
             '{"article_id":"b","probs":{"d1":0.5}}'],
        )
        rows, errors = load_dyad_probs(path)
        assert [r.article_id for r in rows] == ["b"]
        assert [e.line for e in errors] == [1]
        assert "unparseable probability: d1" in errors[0].message

    def test_dyad_probs_duplicate_id(self, tmp_path):
        path = write_jsonl(
            tmp_path / "probs.jsonl",
            ['{"article_id":"a","probs":{"d1":0.9}}',
             '{"article_id":"b","probs":{"d1":0.1}}',
             '{"article_id":"a","probs":{"d2":0.95}}'],
        )
        rows, errors = load_dyad_probs(path)
        assert [(r.article_id, r.probabilities) for r in rows] == [
            ("a", {"d1": 0.9}), ("b", {"d1": 0.1})
        ]
        assert errors == [RowError(3, "duplicate article_id 'a', first on line 1")]


def article(article_id, headline="h", date=dt.date(2015, 3, 14)):
    return Article(article_id=article_id, date=date, headline=headline, body="b")


def event(event_id, dyad_id, headline="h", date=dt.date(2015, 3, 14), fatalities=1):
    return ConflictEvent(event_id, dyad_id, "c1", date, fatalities, headline)


class TestMatchHeadlines:
    def test_ignores_case_whitespace_and_trailing_punctuation(self):
        articles = [article("a1", "  Clash\tnear   the RIVER!?. "), article("a2", "clash")]
        labels = match_headlines(articles, [event("e1", "d1", "clash near the river")])
        assert labels == {"a1": ArticleLabel("a1", ("d1",), gold=True, ambiguous=False)}

    def test_headline_of_several_dyads_is_ambiguous(self):
        events = [event("e1", "d2", "Shelling."), event("e2", "d1", "shelling"),
                  event("e3", "d2", "SHELLING")]
        labels = match_headlines([article("a1", "shelling")], events)
        assert labels == {"a1": ArticleLabel("a1", ("d1", "d2"), gold=True, ambiguous=True)}


class TestApplyDyadFilter:
    def test_threshold_is_inclusive(self):
        below = float(np.nextafter(DYAD_THRESHOLD, 0.0))
        probs = [DyadProbabilityRow("a1", {"d1": DYAD_THRESHOLD}),
                 DyadProbabilityRow("a2", {"d1": below, "d2": 0.1})]
        labels = apply_dyad_filter([article("a1"), article("a2")], probs)
        assert labels == {"a1": ArticleLabel("a1", ("d1",), gold=False)}

    def test_gold_labels_pass_through_unchanged(self):
        gold = {"a1": ArticleLabel("a1", ("d1", "d2"), gold=True, ambiguous=True),
                "a2": ArticleLabel("a2", ("d3",), gold=True)}
        probs = [DyadProbabilityRow("a1", {"d9": 0.99}), DyadProbabilityRow("a2", {"d3": 0.1})]
        labels = apply_dyad_filter([article("a1"), article("a2")], probs, gold_labels=gold)
        assert labels == gold

    def test_tie_broken_lexicographically(self):
        probs = [DyadProbabilityRow("a1", {"d2": 0.9, "d10": 0.9, "d3": 0.85})]
        labels = apply_dyad_filter([article("a1")], probs)
        assert labels["a1"].dyads == ("d10",)

    def test_row_for_unknown_article_ignored(self, caplog):
        probs = [DyadProbabilityRow("zz", {"d1": 0.99}), DyadProbabilityRow("a1", {"d1": 0.9})]
        with caplog.at_level(logging.WARNING, logger="nexus.ingest"):
            labels = apply_dyad_filter([article("a1")], probs)
        assert list(labels) == ["a1"]
        assert "unknown article zz" in caplog.text


def test_select_top_dyads_ties_broken_by_id():
    articles = [article(f"a{i}") for i in range(6)]
    articles.append(article("late", date=dt.date(2016, 1, 5)))
    dyads = ["d2", "d1", "d2", "d1", "d3", "d0", "d3"]
    labels = {a.article_id: ArticleLabel(a.article_id, (d,), gold=True)
              for a, d in zip(articles, dyads)}
    window = (months.month_index(2015, 1), months.month_index(2015, 12))
    # in-window counts: d1 2, d2 2, d0 1, d3 1 (its second article is outside)
    assert select_top_dyads(articles, labels, window, 3) == ["d1", "d2", "d0"]


class TestAggregateMonthly:
    WINDOW = (months.month_index(2015, 1), months.month_index(2015, 12))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 12), st.integers(0, 500), st.booleans()),
                    max_size=30))
    def test_conserves_total_fatalities(self, draws):
        events = [event(f"e{i}", "d1" if mine else "d2", date=dt.date(2015, month, 1),
                        fatalities=fatalities)
                  for i, (month, fatalities, mine) in enumerate(draws)]
        series = aggregate_monthly(events, "d1", self.WINDOW)
        assert list(series.months) == list(range(self.WINDOW[0], self.WINDOW[1] + 1))
        assert series.raw_fatalities.sum() == sum(f for _, f, mine in draws if mine)
        for month, fatalities, mine in draws:
            assert series.raw_fatalities[month - 1] >= (fatalities if mine else 0)
        np.testing.assert_array_equal(series.log_fatalities, np.log1p(series.raw_fatalities))

    def test_rejects_event_outside_window(self):
        events = [event("e1", "d1"), event("e2", "d1", date=dt.date(2016, 1, 1))]
        with pytest.raises(ValueError, match="e2 dated 2016-01-01 outside window"):
            aggregate_monthly(events, "d1", self.WINDOW)


class TestRoundTrips:
    def test_series(self, tmp_path):
        series = make_series([0, 3, 0, 17, 250, 1], dyad_id="d7", country_id="c2")
        save_series(series, tmp_path / "series.json")
        loaded = load_series(tmp_path / "series.json")
        assert (loaded.dyad_id, loaded.country_id) == ("d7", "c2")
        for name in ("months", "raw_fatalities", "log_fatalities"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(series, name))

    def test_labels_file(self, tmp_path):
        labels = {
            "b": ArticleLabel("b", ("d1", "d2"), gold=True, ambiguous=True),
            "a": ArticleLabel("a", ("d3",), gold=False),
            "c": ArticleLabel("c", ("d1",), gold=True),
        }
        save_labels_file(labels, tmp_path / "labels.jsonl")
        assert load_labels_file(tmp_path / "labels.jsonl") == labels

    @pytest.mark.parametrize("name, sidecar", [("emb.f32", "emb.meta.json"),
                                               ("emb.bin", "emb.bin.meta.json")])
    def test_embeddings(self, tmp_path, name, sidecar):
        vectors = np.random.default_rng(0).standard_normal((4, 3)).astype(np.float32)
        save_embeddings(tmp_path / name, ["a", "b", "c", "d"], vectors)
        assert (tmp_path / sidecar).exists()
        loaded = load_embeddings(tmp_path / name)
        assert loaded.ids == ["a", "b", "c", "d"]
        np.testing.assert_array_equal(loaded.vectors, vectors)
        np.testing.assert_array_equal(loaded.get("c"), vectors[2])
        assert loaded.vectors.flags.writeable

    @pytest.mark.parametrize(
        "ids, vectors, error",
        [
            (list("abcd"), np.ones(4), ValueError),
            (list("abcd"), np.ones((3, 2)), ValueError),
            (list("abcd"), np.ones((4, 2, 1)), ValueError),
            (list("abca"), np.ones((4, 2)), ValueError),  # a pair its own loader rejects
            ([b"a"], np.ones((1, 2)), TypeError),  # an id the JSON sidecar cannot hold
        ],
        ids=["1-d", "too-few-rows", "3-d", "repeated-id", "bytes-id"],
    )
    def test_embeddings_bad_input_writes_nothing(self, tmp_path, ids, vectors, error):
        with pytest.raises(error):
            save_embeddings(tmp_path / "emb.f32", ids, vectors)
        assert list(tmp_path.iterdir()) == []

    def test_embeddings_cut_apart_by_a_crash_raise(self, tmp_path, monkeypatch):
        path = tmp_path / "emb.f32"
        save_embeddings(path, ["a", "b"], np.ones((2, 3)))
        write_atomic = _files.write_atomic

        def crash_on_f32(target, write):
            if Path(target).suffix == ".f32":
                raise OSError("killed")
            write_atomic(target, write)

        monkeypatch.setattr(_files, "write_atomic", crash_on_f32)
        with pytest.raises(OSError, match="killed"):
            save_embeddings(path, ["x", "y"], np.full((2, 3), 2.0))
        # the new sidecar lists x and y beside the first save's vectors
        with pytest.raises(ValueError, match=re.escape(f"{path}: sha256")):
            load_embeddings(path)

    @staticmethod
    def _without_sha256(path, ids, vectors):
        """An embeddings pair whose sidecar has no sha256, as older writers left it."""
        path.write_bytes(np.asarray(vectors, dtype="<f4").tobytes())
        meta = path.with_name("emb.meta.json")
        meta.write_text(json.dumps({"dim": 3, "ids": ids}))
        return meta

    @pytest.mark.parametrize("extra", [1, 2, 3])
    def test_embeddings_with_a_partial_trailing_value_raise(self, tmp_path, extra):
        path = tmp_path / "emb.f32"
        self._without_sha256(path, ["a", "b"], np.ones((2, 3)))
        with open(path, "ab") as fh:
            fh.write(b"\0" * extra)
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected 24 bytes, found {24 + extra}")):
            load_embeddings(path)

    def test_embeddings_sidecar_repeating_an_id_names_it(self, tmp_path):
        meta = self._without_sha256(tmp_path / "emb.f32", ["a", "a"], np.ones((2, 3)))
        with pytest.raises(ValueError, match=re.escape(f"{meta}: duplicate embedding id 'a'")):
            load_embeddings(tmp_path / "emb.f32")
