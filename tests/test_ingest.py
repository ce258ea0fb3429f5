import pytest

from nexus.ingest import load_dyad_probs, load_events


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
        ],
        ids=["non-numeric-probability", "probs-not-an-object"],
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
