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
            '{"article_id":"e","probs":{"d1":"0.9"}}',
        ],
        ids=["non-numeric-probability", "probs-not-an-object", "boolean-true", "boolean-false",
             "string-probability"],
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

    def test_row_missing_several_fields_names_the_first(self, tmp_path):
        row = json.loads(event_row("e1", 3))
        del row["dyad_id"], row["date"]
        path = write_jsonl(tmp_path / "events.jsonl", [json.dumps(row)])
        assert load_events(path) == ([], [RowError(1, "missing field 'dyad_id'")])

    def test_null_headlines_are_row_errors_and_label_nothing(self, tmp_path):
        # null is no headline: read as the text 'None', the two would match
        events_path = write_jsonl(tmp_path / "events.jsonl",
                                  [event_row("e1", 3).replace('"clash e1"', "null")])
        articles_path = write_jsonl(
            tmp_path / "articles.jsonl",
            ['{"article_id":"a1","date":"2015-03-14","headline":null,"body":"b"}'],
        )
        events, event_errors = load_events(events_path)
        articles, article_errors = load_articles(articles_path)
        assert events == [] and articles == []
        assert event_errors == article_errors == [RowError(1, "headline is not a str: None")]
        assert match_headlines(articles, events) == {}

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

    @pytest.mark.parametrize("text", ["\u0663", "1_0", " 3", "+3", "\uff13", "inf"])
    def test_csv_events_fatalities_other_than_ascii_number_text_are_row_errors(self, tmp_path, text):
        # float() reads each of these: an Arabic-Indic 3, "1_0" as 10, padding, a sign, ...
        path = tmp_path / "events.csv"
        path.write_bytes(CSV_HEADER + csv_event_row("e1", "2") + csv_event_row("e2", "x").replace(
            b",x,", f",{text},".encode()) + csv_event_row("e3", "4"))
        events, errors = load_events(path)
        assert [(e.event_id, e.fatalities) for e in events] == [("e1", 2), ("e3", 4)]
        assert errors == [RowError(3, f"fatalities is not ASCII number text: {text!r}")]

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
    # neither on 3.10, so the same file would load differently; and the date with a space
    @pytest.mark.parametrize("date", ["20150314", "2015-W11-6", " 2015-03-14", "2015-03-14 "])
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
# object, a valid row, a valid row without one required field, or a valid row
# with one field retyped to a JSON value its reader rejects (a number that is
# not a count for ``fatalities``). Ids come from a small pool, so valid rows
# repeat ids.
LINES = st.lists(
    st.one_of(
        st.tuples(st.just("text"), st.one_of(
            st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
                    max_size=20).map(str.encode),
            st.binary(max_size=20).map(lambda raw: raw.replace(b"\n", b"").replace(b"\r", b"")),
        ).filter(_not_an_object)),
        st.tuples(st.just("row"), st.sampled_from("abc")),
        st.tuples(st.just("broken"), st.sampled_from("abc"), st.integers(0, 5)),
        st.tuples(st.just("retyped"), st.sampled_from("abc"), st.integers(0, 5),
                  st.sampled_from([None, -7, 0.5, ["x"], True, False])),
    ),
    max_size=12,
)


class TestLoaderProperties:
    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @settings(max_examples=60, deadline=None)
    @given(lines=LINES)
    # line 2 repeats line 1's id and line 3 is not JSON: errors on lines 2, 3 in that order
    @example(lines=[("row", "a"), ("row", "a"), ("text", b"{not json")])
    # an id that is a JSON number is a bad row, and does not take the id from line 2
    @example(lines=[("retyped", "a", 0, -7), ("row", "a")])
    def test_rows_load_or_become_errors_in_line_order(self, tmp_path_factory, loader, lines):
        load, make_row, fields, key = LOADERS[loader]
        raw_lines, loaded, error_lines = [], [], []
        for lineno, (kind, value, *change) in enumerate(lines, start=1):
            if kind == "text":
                raw_lines.append(value)
                decoded = _decoded(value)
                if decoded is None or decoded.strip():
                    error_lines.append(lineno)
                continue
            row = make_row(value)
            if kind == "broken":
                del row[fields[change[0] % len(fields)]]
                error_lines.append(lineno)
            elif kind == "retyped":
                row[fields[change[0] % len(fields)]] = change[1]
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
        assert errors[0].message == "d1 is out of the float range"

    @pytest.mark.parametrize("dyad", ["", " ", "\t"])
    def test_dyad_probs_blank_dyad_is_a_row_error(self, tmp_path, dyad):
        path = write_jsonl(
            tmp_path / "probs.jsonl",
            [json.dumps({"article_id": "a", "probs": {"d1": 0.1, dyad: 0.95}}),
             '{"article_id":"b","probs":{"d1":0.9}}'],
        )
        rows, errors = load_dyad_probs(path)
        assert [r.article_id for r in rows] == ["b"]
        assert errors == [RowError(1, "empty dyad_id")]

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
        assert errors == [RowError(3, "second row for article_id 'a' (first at line 1)")]


def article(article_id, headline="h", date=dt.date(2015, 3, 14)):
    return Article(article_id=article_id, date=date, headline=headline, body="b")


def event(event_id, dyad_id, headline="h", date=dt.date(2015, 3, 14), fatalities=1,
          country_id="c1"):
    return ConflictEvent(event_id, dyad_id, country_id, date, fatalities, headline)


class TestMatchHeadlines:
    def test_ignores_case_whitespace_and_trailing_punctuation(self):
        articles = [article("a1", "  Clash\tnear   the RIVER!?. "), article("a2", "clash")]
        labels = match_headlines(articles, [event("e1", "d1", "clash near the river")])
        assert labels == {"a1": ArticleLabel("a1", ("d1",), gold=True)}

    def test_blank_headline_labels_no_article(self, caplog):
        events = [event("e1", "d1", "..."), event("e2", "d2", " "), event("e3", "d1", "raid")]
        articles = [article("a1", "?"), article("a2", ""), article("a3", "Raid!")]
        with caplog.at_level(logging.WARNING, logger="nexus.ingest"):
            labels = match_headlines(articles, events)
        assert labels == {"a3": ArticleLabel("a3", ("d1",), gold=True)}
        assert "2 events with a blank headline label no article: e1, e2" in caplog.text
        window = (months.month_index(2015, 1), months.month_index(2015, 12))
        assert aggregate_monthly(events, "d1", window).raw_fatalities.sum() == 2

    def test_headline_of_several_dyads_is_ambiguous(self, caplog):
        events = [event("e1", "d2", "Shelling."), event("e2", "d1", "shelling"),
                  event("e3", "d2", "SHELLING")]
        labels = match_headlines([article("a1", "shelling")], events)
        assert labels == {"a1": ArticleLabel("a1", ("d1", "d2"), gold=True)}
        assert "article a1 headline matches events of dyads d1, d2" in caplog.text


class TestApplyDyadFilter:
    def test_threshold_is_inclusive(self):
        below = float(np.nextafter(DYAD_THRESHOLD, 0.0))
        probs = [DyadProbabilityRow("a1", {"d1": DYAD_THRESHOLD}),
                 DyadProbabilityRow("a2", {"d1": below, "d2": 0.1})]
        labels = apply_dyad_filter([article("a1"), article("a2")], probs)
        assert labels == {"a1": ArticleLabel("a1", ("d1",), gold=False)}

    def test_gold_labels_pass_through_unchanged(self):
        gold = {"a1": ArticleLabel("a1", ("d1", "d2"), gold=True),
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

    def test_rejects_dyad_in_two_countries(self):
        events = [event("e1", "d1"), event("e2", "d1", country_id="c2"),
                  event("e3", "d2", country_id="c3")]
        with pytest.raises(ValueError, match="dyad d1 has events in two countries: 'c1' and 'c2'"):
            aggregate_monthly(events, "d1", self.WINDOW)
        assert aggregate_monthly(events, "d2", self.WINDOW).country_id == "c3"

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match=re.escape("window 2000-11..2000-01 is empty")):
            aggregate_monthly([event("e1", "d2")], "d1", (24010, 24000))

    def test_empty_country_names_none(self):
        events = [event("e1", "d1", country_id=""), event("e2", "d1")]
        assert aggregate_monthly(events, "d1", self.WINDOW).country_id == "c1"


# rows for every ingest step: a headline of two dyads, a gold article with a
# classifier row, a probability tie, rows at and below the threshold, a row for
# an unknown article, an event without a country and a tie in the dyad counts
ORDER_EVENTS = [
    event("e1", "d1", "shelling", dt.date(2015, 1, 3), 4),
    event("e2", "d2", "Shelling.", dt.date(2015, 2, 3), 2, country_id="c2"),
    event("e3", "d1", "raid", dt.date(2015, 2, 9), 7, country_id=""),
    event("e4", "d3", "ambush", dt.date(2015, 3, 1), 1, country_id="c3"),
    event("e5", "d1", "clash", dt.date(2015, 3, 5), 3),
    event("e6", "d1", "clash", dt.date(2015, 3, 5), 5),
]
ORDER_ARTICLES = [
    article(f"a{i}", headline, dt.date(2015, 1 + i % 3, 10))
    for i, headline in enumerate(["shelling", "raid", "ambush", "x", "y", "clash", "z"])
]
ORDER_PROBS = [
    DyadProbabilityRow("a0", {"d3": 0.99}),
    DyadProbabilityRow("a3", {"d3": 0.9, "d2": 0.9}),
    DyadProbabilityRow("a4", {"d2": DYAD_THRESHOLD}),
    DyadProbabilityRow("a6", {"d1": float(np.nextafter(DYAD_THRESHOLD, 0.0))}),
    DyadProbabilityRow("zz", {"d1": 0.99}),
]
VECTOR_IDS = ["a3", "a0", "a6", "a1", "a4"]


def _ingest(events, articles, probs):
    window = (months.month_index(2015, 1), months.month_index(2015, 3))
    gold = match_headlines(articles, events)
    labels = apply_dyad_filter(articles, probs, gold)
    series = [aggregate_monthly(events, dyad, window) for dyad in ("d1", "d2", "d3")]
    return (gold, labels, select_top_dyads(articles, labels, window, 2),
            [(s.country_id, s.raw_fatalities.tolist()) for s in series])


@settings(max_examples=30, deadline=None)
@given(st.permutations(ORDER_EVENTS), st.permutations(ORDER_ARTICLES),
       st.permutations(ORDER_PROBS), st.permutations(range(len(VECTOR_IDS))))
def test_input_row_order_changes_no_result(events, articles, probs, rows):
    assert _ingest(events, articles, probs) == _ingest(ORDER_EVENTS, ORDER_ARTICLES, ORDER_PROBS)
    vectors = np.arange(15, dtype=np.float32).reshape(5, 3)
    matrix = EmbeddingMatrix([VECTOR_IDS[i] for i in rows], vectors[list(rows)])
    for i, aid in enumerate(VECTOR_IDS):
        np.testing.assert_array_equal(matrix.get(aid), vectors[i])


class TestRoundTrips:
    def test_series(self, tmp_path):
        series = make_series([0, 3, 0, 17, 250, 1], dyad_id="d7", country_id="c2")
        save_series(series, tmp_path / "series.json")
        assert sorted(json.loads((tmp_path / "series.json").read_text())) == [
            "country_id", "dyad_id", "months", "raw_fatalities"
        ]
        loaded = load_series(tmp_path / "series.json")
        assert (loaded.dyad_id, loaded.country_id) == ("d7", "c2")
        for name in ("months", "raw_fatalities", "log_fatalities"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(series, name))

    def test_series_log_fatalities_follow_from_the_counts(self, tmp_path):
        # a file of the older format, whose log column disagrees with its counts
        path = tmp_path / "series.json"
        save_series(make_series([0, 1, 3]), path)
        payload = json.loads(path.read_text())
        payload["log_fatalities"] = [0.0, 2.89, 1.0]
        path.write_text(json.dumps(payload))
        np.testing.assert_array_equal(load_series(path).log_fatalities, np.log1p([0, 1, 3]))

    def test_labels_file(self, tmp_path):
        labels = {
            "b": ArticleLabel("b", ("d1", "d2"), gold=True),
            "a": ArticleLabel("a", ("d3",), gold=False),
            "c": ArticleLabel("c", ("d1",), gold=True),
        }
        save_labels_file(labels, tmp_path / "labels.jsonl")
        assert '"ambiguous"' not in (tmp_path / "labels.jsonl").read_text()
        assert load_labels_file(tmp_path / "labels.jsonl") == labels

    def test_second_row_for_an_article_names_path_and_lines(self, tmp_path):
        # a classifier label after the gold one must not replace it
        path = tmp_path / "labels.jsonl"
        path.write_text(
            '{"article_id": "a1", "dyads": ["d1"], "gold": true}\n'
            '{"article_id": "b", "dyads": ["d1"], "gold": false}\n'
            '{"article_id": "a1", "dyads": ["d2"], "gold": false}\n'
        )
        with pytest.raises(ValueError, match=re.escape(
            f"{path}, line 3: second row for article a1 (first at line 1)"
        )):
            load_labels_file(path)

    def test_saving_two_labels_for_one_article_raises_and_keeps_the_file(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        save_labels_file({"a": ArticleLabel("a", ("d1",), gold=True)}, path)
        old = path.read_bytes()
        labels = {"a": ArticleLabel("a", ("d1",), gold=True),
                  "b": ArticleLabel("a", ("d2",), gold=False)}
        with pytest.raises(ValueError, match=re.escape(f"{path}: two records for article a")):
            save_labels_file(labels, path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.jsonl"]

    @pytest.mark.parametrize("field, value, message", [
        ("dyads", "d1", "dyads is not a list of strings: 'd1'"),
        ("dyads", [1], "dyads is not a list of strings: [1]"),
        ("gold", "false", "gold is not a bool: 'false'"),
        ("article_id", 5, "article_id is not a str: 5"),
    ])
    def test_labels_field_of_the_wrong_json_type_names_path_and_line(
        self, tmp_path, field, value, message
    ):
        path = tmp_path / "labels.jsonl"
        rows = [{"article_id": aid, "dyads": ["d1"], "gold": True}
                for aid in ("a", "b")]
        rows[1][field] = value
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 2: {message}")):
            load_labels_file(path)

    @pytest.mark.parametrize("field, value, message", [
        ("months", ["2015-01", 24001], "months is not a list of strings: ['2015-01', 24001]"),
        ("months", "2015-01", "months is not a list of strings: '2015-01'"),
        ("dyad_id", 7, "dyad_id is not a str: 7"),
        ("country_id", ["c"], "country_id is not a str: ['c']"),
        ("raw_fatalities", [0, 3.7], "raw_fatalities is not an int: 3.7"),
        ("raw_fatalities", [0, True], "raw_fatalities is not an int: True"),
        ("raw_fatalities", [0, "3"], "raw_fatalities is not an int: '3'"),
        ("raw_fatalities", 3, "raw_fatalities is not a list"),
        ("raw_fatalities", [0, -1], "series d1: negative fatalities"),
        ("raw_fatalities", [0, 10**30], "raw_fatalities is out of the int range"),
    ], ids=["months", "months-string", "dyad_id", "country_id", "raw-float", "raw-bool",
            "raw-string", "raw-not-a-list", "raw-negative", "raw-past-int64"])
    def test_series_field_of_the_wrong_json_type_names_the_file(
        self, tmp_path, field, value, message
    ):
        path = tmp_path / "series.json"
        save_series(make_series([0, 3]), path)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_series(path)

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

    @pytest.mark.parametrize("key, value, message", [
        ("dim", 3.7, "dim is not an int: 3.7"),
        ("dim", True, "dim is not an int: True"),
        ("dim", "3", "dim is not an int: '3'"),
        ("dim", 0, "dim must be at least 1: 0"),
        ("dim", -3, "dim must be at least 1: -3"),
        ("ids", ["a", 2], "ids is not a list of strings: ['a', 2]"),
        ("ids", "ab", "ids is not a list of strings: 'ab'"),
        ("sha256", 7, "sha256 is not a str: 7"),
        ("sha256", None, "sha256 is not a str: None"),
    ], ids=["dim-float", "dim-bool", "dim-string", "dim-zero", "dim-negative", "ids-number",
            "ids-string", "sha256-number", "sha256-null"])
    def test_embeddings_sidecar_field_of_the_wrong_type_names_it(
        self, tmp_path, key, value, message
    ):
        meta = self._without_sha256(tmp_path / "emb.f32", ["a", "b"], np.ones((2, 3)))
        payload = json.loads(meta.read_text())
        payload[key] = value
        meta.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{meta}: {message}")):
            load_embeddings(tmp_path / "emb.f32")

    def test_embeddings_sidecar_repeating_an_id_names_it(self, tmp_path):
        meta = self._without_sha256(tmp_path / "emb.f32", ["a", "a"], np.ones((2, 3)))
        with pytest.raises(ValueError, match=re.escape(f"{meta}: duplicate embedding id 'a'")):
            load_embeddings(tmp_path / "emb.f32")
