"""Corpus loading, headline back-labeling, dyad filtering, monthly aggregation.

Input files are JSONL (or CSV for events) plus a flat little-endian
float32 embedding matrix with a JSON sidecar. Dates are ``YYYY-MM-DD``
exactly. Every field is read through ``nexus._files`` (``field``,
``numbers``, ``strings``): a JSON field must be the JSON type its reader
names, so ids, dates and headlines are strings and probabilities
numbers; a CSV field is a string, and a count may be a JSON number or a
CSV string. The three row loaders (events, articles, dyad probabilities)
read records through :func:`nexus._files.records`, the one loop that
builds and key-checks every row-file record, and share one contract: a
bad row never aborts the load but becomes a :class:`RowError` naming its
first line; a row that repeats the id of an earlier loaded row is one
such error, "second row for event_id 'e1' (first at line 1)"
(``article_id`` for articles and probability rows); errors come back,
and are logged, in line order.
Classifier labels need a best-dyad probability of at least
``DYAD_THRESHOLD``. All downstream operations are pure functions over the
loaded collections.
"""

from __future__ import annotations

import datetime as dt
import functools
import hashlib
import logging
import re
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _files, months

logger = logging.getLogger(__name__)

_TRAILING_PUNCT = string.punctuation + " "
DYAD_THRESHOLD = 0.8  # apply_dyad_filter keeps a classifier row whose best dyad has p >= this
# Largest count a row may carry: sums over billions of rows stay inside int64.
MAX_COUNT = 10**9
_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")
_NUMBER = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?")  # a CSV count's text


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConflictEvent:
    """One dated, dyad-attributed fatal event with its source headline."""

    event_id: str
    dyad_id: str
    country_id: str
    date: dt.date
    fatalities: int
    headline: str

    @functools.cached_property
    def month(self) -> int:
        return months.month_index(self.date.year, self.date.month)


@dataclass(eq=False)
class Article:
    """A dated newswire article; its embedding lives in an EmbeddingMatrix.

    ``month`` is computed on first access and kept, so ``date`` is fixed
    once an article is built.
    """

    article_id: str
    date: dt.date
    headline: str
    body: str

    @functools.cached_property
    def month(self) -> int:
        return months.month_index(self.date.year, self.date.month)


@dataclass(frozen=True)
class DyadProbabilityRow:
    """Per-article dyad membership probabilities from an external classifier.

    Probabilities need not sum to 1; the residual mass is an implicit
    "other" class.
    """

    article_id: str
    probabilities: dict[str, float] = field(hash=False)


@dataclass
class DyadMonthSeries:
    """Contiguous monthly grid of fatalities for one dyad.

    ``log_fatalities`` is ln(1 + raw); months with no recorded events are
    present with raw 0, so the zero state stays well-defined.
    """

    dyad_id: str
    country_id: str
    months: np.ndarray
    log_fatalities: np.ndarray
    raw_fatalities: np.ndarray

    def __post_init__(self) -> None:
        self.months = np.asarray(self.months, dtype=int)
        self.raw_fatalities = np.asarray(self.raw_fatalities, dtype=int)
        self.log_fatalities = np.asarray(self.log_fatalities, dtype=float)
        n = len(self.months)
        if len(self.log_fatalities) != n or len(self.raw_fatalities) != n:
            raise ValueError(f"series {self.dyad_id}: ragged lengths")
        if n and np.any(np.diff(self.months) != 1):
            raise ValueError(f"series {self.dyad_id}: months not contiguous")
        if np.any(self.raw_fatalities < 0):
            raise ValueError(f"series {self.dyad_id}: negative fatalities")

    def month_slice(self, lo: int, hi: int) -> "DyadMonthSeries":
        """Sub-series restricted to month indices in [lo, hi]."""
        mask = (self.months >= lo) & (self.months <= hi)
        return DyadMonthSeries(
            dyad_id=self.dyad_id,
            country_id=self.country_id,
            months=self.months[mask],
            log_fatalities=self.log_fatalities[mask],
            raw_fatalities=self.raw_fatalities[mask],
        )


@dataclass(frozen=True)
class ArticleLabel:
    """Dyad attribution for one article.

    ``gold`` marks event-headline matches; a gold label of more than one
    dyad is a headline shared by events of those dyads.
    """

    article_id: str
    dyads: tuple[str, ...]
    gold: bool


@dataclass(frozen=True)
class RowError:
    """One rejected input row, by line number."""

    line: int
    message: str


@dataclass
class EmbeddingMatrix:
    """Row-major embedding matrix with article-id row labels."""

    ids: list[str]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.ids):
            raise ValueError(f"embedding matrix of shape {self.vectors.shape} for {len(self.ids)} ids")
        self._row: dict[str, int] = {}
        for i, aid in enumerate(self.ids):
            if self._row.setdefault(aid, i) != i:
                first = self._row[aid]
                raise ValueError(f"duplicate embedding id {aid!r} in rows {first} and {i}")

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __contains__(self, article_id: str) -> bool:
        return article_id in self._row

    def get(self, article_id: str) -> np.ndarray:
        return self.vectors[self._row[article_id]]


# ---------------------------------------------------------------------------
# Loaders
# ---------------------------------------------------------------------------

def _parse_count(row: dict, name: str) -> int:
    """An integral count from 0 to MAX_COUNT, from a JSON number or a CSV string.

    3, 3.0 and "3.0" give 3; JSON ``true`` and ``false``, and strings that only
    ``float`` reads as numbers, such as "1_0" or non-ASCII digits, are not counts.
    """
    value = row[name]
    if isinstance(value, bool):
        raise ValueError(f"boolean count: {value}")
    if isinstance(value, str) and not _NUMBER.fullmatch(value):
        raise ValueError(f"{name} is not ASCII number text: {value!r}")
    number = float(value) if isinstance(value, str) else value
    count = int(number)  # OverflowError for inf, ValueError for nan, TypeError for null
    if count != number:
        raise ValueError(f"non-integral count: {value}")
    if not 0 <= count <= MAX_COUNT:
        raise ValueError(f"count {count} outside 0..{MAX_COUNT}")
    return count


def _parse_date(text: str) -> dt.date:
    if not _DATE.fullmatch(text):  # fromisoformat takes more forms from Python 3.11 on
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return dt.date.fromisoformat(text)


def _load_rows(path: str | Path, build, key) -> tuple[list, list[RowError]]:
    """The items of every good record of ``path``, and a RowError for every bad one."""
    items, errors = [], []
    for line, item, error in _files.records(path, build, key):
        if error is None:
            items.append(item)
        else:
            errors.append(RowError(line, error))
            logger.warning("%s:%d: %s", path, line, error)
    return items, errors


def load_events(path: str | Path) -> tuple[list[ConflictEvent], list[RowError]]:
    """Load events from JSONL or CSV; rejected rows come back as errors."""

    def build(row: dict) -> ConflictEvent:
        return ConflictEvent(
            event_id=_files.field(row, "event_id", str),
            dyad_id=_files.dyad(_files.field(row, "dyad_id", str)),
            country_id=_files.field(row, "country_id", str),
            date=_parse_date(_files.field(row, "date", str)),
            fatalities=_parse_count(row, "fatalities"),
            headline=_files.field(row, "headline", str),
        )

    events, errors = _load_rows(path, build, lambda e: f"event_id {e.event_id!r}")
    if not events:
        logger.warning("no events loaded from %s", path)
    return events, errors


def load_articles(path: str | Path) -> tuple[list[Article], list[RowError]]:
    """Load articles from JSONL; embeddings are loaded separately."""

    def build(row: dict) -> Article:
        return Article(
            article_id=_files.field(row, "article_id", str),
            date=_parse_date(_files.field(row, "date", str)),
            headline=_files.field(row, "headline", str),
            body=_files.field(row, "body", str),
        )

    return _load_rows(path, build, lambda a: f"article_id {a.article_id!r}")


def _meta_path(f32_path: Path) -> Path:
    return f32_path.with_name(f32_path.name.removesuffix(".f32") + ".meta.json")


def load_embeddings(path: str | Path) -> EmbeddingMatrix:
    """Load a flat little-endian float32 matrix plus its JSON sidecar.

    A sidecar that holds the matrix file's ``sha256`` (as ``save_embeddings``
    writes it) must match that file, so a pair cut apart by a crash between
    its two writes raises instead of loading one save's ids beside another's
    vectors. The sidecar's ``dim`` must be a JSON integer of at least 1, its
    ``ids`` a list of strings and its ``sha256`` a string.
    """
    path = Path(path)

    def build(meta: dict) -> tuple[int, list[str], str | None]:
        dim = _files.field(meta, "dim", int)
        if dim < 1:
            raise ValueError(f"dim must be at least 1: {dim}")
        sha256 = _files.field(meta, "sha256", str) if "sha256" in meta else None
        return dim, list(_files.strings(meta, "ids")), sha256

    dim, ids, sha256 = _files.read_json(_meta_path(path), build)
    data = np.fromfile(path, dtype=np.uint8)  # the file's bytes, read once
    if data.size != 4 * dim * len(ids):
        raise ValueError(f"{path}: expected {4 * dim * len(ids)} bytes, found {data.size}")
    if sha256 is not None and hashlib.sha256(data).hexdigest() != sha256:
        raise ValueError(f"{path}: sha256 differs from the one in {_meta_path(path).name}")
    vectors = data.view("<f4").reshape(len(ids), dim)
    if not np.all(np.isfinite(vectors)):
        raise ValueError(f"{path}: non-finite embedding components")
    try:
        return EmbeddingMatrix(ids=ids, vectors=vectors)
    except ValueError as exc:  # a repeated id
        raise ValueError(f"{_meta_path(path)}: {exc}") from exc


def save_embeddings(path: str | Path, ids: list[str], vectors: np.ndarray) -> None:
    """Write the flat .f32 matrix and its .meta.json sidecar, which holds the matrix's sha256."""
    path = Path(path)
    vectors = np.ascontiguousarray(vectors, dtype="<f4")
    EmbeddingMatrix(ids=list(ids), vectors=vectors)  # the loader's shape and repeated-id checks
    sha256 = hashlib.sha256(vectors).hexdigest()
    _files.write_json(
        _meta_path(path), {"dim": int(vectors.shape[1]), "ids": list(ids), "sha256": sha256}
    )
    _files.write_atomic(path, vectors.tofile)


def load_dyad_probs(
    path: str | Path,
) -> tuple[list[DyadProbabilityRow], list[RowError]]:
    """Load per-article dyad probability rows from JSONL; a blank dyad key is a bad row."""

    def build(row: dict) -> DyadProbabilityRow:
        article_id = _files.field(row, "article_id", str)
        probs = _files.field(row, "probs", dict)
        probabilities = {_files.dyad(dyad): _files.field(probs, dyad, float) for dyad in probs}
        for dyad, p in probabilities.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability out of [0,1]: {dyad}={p}")
        return DyadProbabilityRow(article_id=article_id, probabilities=probabilities)

    return _load_rows(path, build, lambda r: f"article_id {r.article_id!r}")


# ---------------------------------------------------------------------------
# Labeling and filtering
# ---------------------------------------------------------------------------

def normalize_headline(text: str) -> str:
    """Lowercase, trim, collapse whitespace runs, strip trailing punctuation."""
    collapsed = " ".join(text.lower().split())
    return collapsed.rstrip(_TRAILING_PUNCT)


def match_headlines(
    articles: list[Article], events: list[ConflictEvent]
) -> dict[str, ArticleLabel]:
    """Back-label articles whose normalized headline matches a labeled event.

    A headline shared by events of several dyads labels the article with
    all of them, and is logged. A headline that normalizes to ``""`` (blank,
    or punctuation only) matches nothing; events with one are logged once
    per call, and keep their fatalities.
    """
    by_headline: dict[str, set[str]] = {}
    blank = []
    for event in events:
        key = normalize_headline(event.headline)
        if key:
            by_headline.setdefault(key, set()).add(event.dyad_id)
        else:
            blank.append(event.event_id)
    if blank:
        logger.warning("%d events with a blank headline label no article: %s",
                       len(blank), ", ".join(blank))
    labels: dict[str, ArticleLabel] = {}
    for article in articles:
        dyads = by_headline.get(normalize_headline(article.headline))
        if not dyads:
            continue
        ordered = tuple(sorted(dyads))
        if len(ordered) > 1:
            logger.warning(
                "article %s headline matches events of dyads %s",
                article.article_id,
                ", ".join(ordered),
            )
        labels[article.article_id] = ArticleLabel(
            article_id=article.article_id, dyads=ordered, gold=True
        )
    return labels


def apply_dyad_filter(
    articles: list[Article],
    probs: list[DyadProbabilityRow],
    gold_labels: dict[str, ArticleLabel] | None = None,
) -> dict[str, ArticleLabel]:
    """Gold labels unchanged, plus classifier labels whose best dyad reaches DYAD_THRESHOLD.

    Articles already gold-labeled by headline match bypass the filter. The
    comparison is >= DYAD_THRESHOLD: rows strictly below are eliminated.
    """
    known = {a.article_id for a in articles}
    out = dict(gold_labels or {})
    for row in probs:
        if row.article_id not in known:
            logger.warning("probability row for unknown article %s ignored", row.article_id)
            continue
        if row.article_id in out:
            continue  # gold label bypasses the classifier filter
        if not row.probabilities:
            continue
        # deterministic argmax: highest probability, lexicographic tie-break
        best = min(row.probabilities.items(), key=lambda kv: (-kv[1], kv[0]))
        if best[1] >= DYAD_THRESHOLD:
            out[row.article_id] = ArticleLabel(row.article_id, (best[0],), gold=False)
    return out


def select_top_dyads(
    articles: list[Article],
    labels: dict[str, ArticleLabel],
    window: tuple[int, int],
    n: int,
) -> list[str]:
    """The n dyads with the most labeled articles dated within the window.

    Ties break by lexicographic dyad_id; fewer than n distinct dyads
    returns them all with a warning.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1: {n}")
    lo, hi = window
    counts: dict[str, int] = {}
    for article in articles:
        label = labels.get(article.article_id)
        if label is None or not lo <= article.month <= hi:
            continue
        for dyad in label.dyads:
            counts[dyad] = counts.get(dyad, 0) + 1
    if not counts:
        logger.warning("no labeled articles in selection window")
        return []
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if len(ranked) < n:
        logger.warning("only %d dyads present, %d requested", len(ranked), n)
    return [dyad for dyad, _ in ranked[:n]]


def aggregate_monthly(
    events: list[ConflictEvent], dyad_id: str, window: tuple[int, int]
) -> DyadMonthSeries:
    """Monthly fatality sums for one dyad over a contiguous, non-empty window.

    Months without events carry raw 0; y_t = ln(1 + raw_t). The dyad's
    events must name one country (an empty ``country_id`` names none), the
    one the series keeps.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError(f"window {months.format_month(lo)}..{months.format_month(hi)} is empty")
    grid = np.arange(lo, hi + 1)
    raw = np.zeros(len(grid), dtype=int)
    country = ""
    for event in events:
        if event.dyad_id != dyad_id:
            continue
        if not lo <= event.month <= hi:
            raise ValueError(
                f"event {event.event_id} dated {event.date} outside window "
                f"{months.format_month(lo)}..{months.format_month(hi)}"
            )
        if country and event.country_id not in ("", country):
            raise ValueError(
                f"dyad {dyad_id} has events in two countries: {country!r} and "
                f"{event.country_id!r} (event {event.event_id})"
            )
        raw[event.month - lo] += event.fatalities
        country = country or event.country_id
    return DyadMonthSeries(
        dyad_id=dyad_id,
        country_id=country,
        months=grid,
        log_fatalities=np.log1p(raw),
        raw_fatalities=raw,
    )


# ---------------------------------------------------------------------------
# Intermediate-file serialization
# ---------------------------------------------------------------------------

def save_series(series: DyadMonthSeries, path: str | Path) -> None:
    _files.write_json(path, {
        "dyad_id": series.dyad_id,
        "country_id": series.country_id,
        "months": [months.format_month(int(m)) for m in series.months],
        "raw_fatalities": [int(v) for v in series.raw_fatalities],
    })


def load_series(path: str | Path) -> DyadMonthSeries:
    """The saved series; its ``log_fatalities`` are ln(1 + raw), as ``aggregate_monthly``'s."""

    def build(payload: dict) -> DyadMonthSeries:
        raw = _files.numbers(payload, "raw_fatalities", int)
        return DyadMonthSeries(
            dyad_id=_files.field(payload, "dyad_id", str),
            country_id=_files.field(payload, "country_id", str),
            months=np.array([months.parse_month(m) for m in _files.strings(payload, "months")]),
            log_fatalities=np.log1p(np.maximum(raw, 0)),  # DyadMonthSeries rejects raw < 0
            raw_fatalities=raw,
        )

    return _files.read_json(path, build)


def _label_key(label: ArticleLabel) -> str:
    return f"article {label.article_id}"


def save_labels_file(labels: dict[str, ArticleLabel], path: str | Path) -> None:
    ordered = [labels[aid] for aid in sorted(labels)]
    _files.check_keys(path, ordered, _label_key)
    _files.write_jsonl(path, map(vars, ordered))


def load_labels_file(path: str | Path) -> dict[str, ArticleLabel]:
    """Article labels by id; a second row for an article, or a wrong JSON type, is an error."""
    labels = _files.read_rows(path, lambda row: ArticleLabel(
        article_id=_files.field(row, "article_id", str),
        dyads=_files.strings(row, "dyads"),
        gold=_files.field(row, "gold", bool),
    ), _label_key)
    return {label.article_id: label for label in labels}
