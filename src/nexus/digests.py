"""Topic clustering over dyad article embeddings and dyad-month digest assembly.

Topics come from spherical k-means (cosine assignment, normalized-mean
centroids) with k = floor(N / min_topic_size) clamped to [3, max_topics]
and a post-pass merging undersized clusters into their nearest centroid.
The topic with the highest share of gold event-matched articles (the
lower one on a tie) is marked violent.

Two digest kinds exist per dyad-month, and both hold only articles dated
in that month: low-context (per topic, the five in-month articles closest
to the centroid, prefixed by all of the month's event snippets) and
high-context RAG (one digest of event-blocks: per event, the event snippet
and the nearest in-month context article from each non-violent topic).
Neither kind has a token budget: the digest encoder,
``stepshift.pool_embedding``, is a mean with no context window. A month
with no embedded event article takes the low-context snippets as its
high-context digest, so the two kinds cover the same dyad-months. Snippet
length and articles per topic are the module constants ``SNIPPET_TOKENS``
and ``PER_TOPIC``. A saved digest holds its snippets' article ids, and
:func:`load_digests` rebuilds each snippet from its article.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import _files, months
from .ingest import Article

logger = logging.getLogger(__name__)

SNIPPET_TOKENS = 256  # whitespace tokens kept per snippet
PER_TOPIC = 5  # low-context articles per topic
KMEANS_MAX_ITER = 100
DEFAULT_MIN_TOPIC_SIZE = 200
DEFAULT_MAX_TOPICS = 21

LOW_CONTEXT = "low_context"
HIGH_CONTEXT = "high_context"


@dataclass(frozen=True)
class Snippet:
    article_id: str
    text: str
    token_count: int


@dataclass
class TopicModel:
    dyad_id: str
    centroids: np.ndarray  # (k, D), unit rows
    assignment: dict[str, int]
    violent_topic: int | None

    @property
    def topic_count(self) -> int:
        return int(self.centroids.shape[0])

    def members(self, topic: int) -> list[str]:
        return sorted(aid for aid, t in self.assignment.items() if t == topic)


@dataclass
class Digest:
    dyad_id: str
    month: int
    kind: str
    snippets: list[Snippet]

    @property
    def snippet_ids(self) -> list[str]:
        return [s.article_id for s in self.snippets]

    @property
    def total_tokens(self) -> int:
        return sum(s.token_count for s in self.snippets)


# ---------------------------------------------------------------------------
# Unit vectors and snippets
# ---------------------------------------------------------------------------

def normalize(vector) -> np.ndarray:
    """Unit-normalize to float32; zero vectors are rejected."""
    v = np.asarray(vector, dtype=np.float32)
    if v.ndim != 1:
        raise ValueError("vector must be one-dimensional")
    norm = float(np.linalg.norm(v))
    if not math.isfinite(norm) or norm == 0.0:
        raise ValueError("vector has zero or non-finite norm")
    return v / np.float32(norm)


def snippet(article: Article) -> Snippet:
    """First ``SNIPPET_TOKENS`` whitespace tokens of headline + body, single-spaced."""
    tokens = f"{article.headline} {article.body}".split()
    if not tokens:
        raise ValueError(f"article {article.article_id} has no text")
    kept = tokens[:SNIPPET_TOKENS]
    return Snippet(article.article_id, " ".join(kept), len(kept))


# ---------------------------------------------------------------------------
# Spherical k-means topics
# ---------------------------------------------------------------------------

def initial_topic_count(n_articles: int, min_topic_size: int, max_topics: int) -> int:
    return max(3, min(n_articles // min_topic_size, max_topics))


def _kmeanspp_init(vectors: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = vectors.shape[0]
    first = int(rng.integers(n))
    centroids = [vectors[first]]
    d2 = 1.0 - vectors @ centroids[0]
    for _ in range(k - 1):
        weights = np.maximum(d2, 0.0)
        total = float(weights.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=weights / total))
        centroids.append(vectors[idx])
        d2 = np.minimum(d2, 1.0 - vectors @ centroids[-1])
    return np.stack(centroids)


def _normalized_mean(vectors: np.ndarray) -> np.ndarray:
    """The rows' normalized mean, or the first row when the rows cancel out."""
    mean = vectors.mean(axis=0)
    if np.linalg.norm(mean) == 0.0:
        return vectors[0]
    return normalize(mean)


def cluster_topics(
    dyad_id: str,
    ids: list[str],
    vectors: np.ndarray,
    gold_ids: set[str],
    min_topic_size: int = DEFAULT_MIN_TOPIC_SIZE,
    max_topics: int = DEFAULT_MAX_TOPICS,
    seed: int = 0,
) -> TopicModel:
    """Spherical k-means with a minimum-cluster-size merge rule.

    K-means stops at convergence or after ``KMEANS_MAX_ITER`` reassignments;
    every centroid, then and after each merge, is the normalized mean of its
    cluster's members. Empty clusters are dropped. While more than one
    cluster is left and the smallest is below ``min_topic_size``, the
    smallest merges into the cluster whose centroid is nearest its own, so
    the final topic count may drop below the initial k. Clusters are scanned
    in k-means label order, a merged cluster after every older one, and the
    first one scanned wins a tie of sizes or of similarities. Topics are
    numbered in the order of their first article in ``ids``. Fewer than
    2 * min_topic_size articles cannot fill two topics, so they end in one
    catch-all topic. ``ids`` must not repeat, ``min_topic_size`` must be at
    least 1 and ``max_topics`` at least 3, the floor of k.
    """
    n = len(ids)
    if n == 0:
        raise ValueError(f"dyad {dyad_id}: no articles to cluster")
    if min_topic_size < 1:
        raise ValueError(f"dyad {dyad_id}: min_topic_size must be at least 1: {min_topic_size}")
    if max_topics < 3:
        raise ValueError(f"dyad {dyad_id}: max_topics must be at least 3: {max_topics}")
    position: dict[str, int] = {}
    for i, aid in enumerate(ids):
        if position.setdefault(aid, i) != i:
            first = position[aid]
            raise ValueError(f"dyad {dyad_id}: article id {aid!r} at positions {first} and {i}")
    vectors = np.asarray(vectors, dtype=np.float32)
    if len(vectors) != n:
        raise ValueError(f"dyad {dyad_id}: {len(vectors)} vectors for {n} article ids")
    unit = np.stack([normalize(v) for v in vectors])

    k = initial_topic_count(n, min_topic_size, max_topics)
    rng = np.random.Generator(np.random.PCG64(seed))
    centroids = _kmeanspp_init(unit, k, rng)
    labels = np.full(n, -1)  # each assignment below is followed by an update of the centroids
    for _ in range(KMEANS_MAX_ITER + 1):
        new_labels = np.argmax(unit @ centroids.T, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for t in range(k):
            members = unit[labels == t]
            if len(members):  # an empty cluster keeps its centroid; it may attract points later
                centroids[t] = _normalized_mean(members)

    while True:
        topics, sizes = np.unique(labels, return_counts=True)
        smallest = int(np.argmin(sizes))
        if len(topics) == 1 or sizes[smallest] >= min_topic_size:
            break
        cents = centroids[topics]
        sims = cents @ cents[smallest]
        sims[smallest] = -np.inf
        target = int(np.argmax(sims))
        merged = len(centroids)  # a label above every other, so it is scanned last
        labels[(labels == topics[smallest]) | (labels == topics[target])] = merged
        centroids = np.vstack([centroids, _normalized_mean(unit[labels == merged])])

    order = list(dict.fromkeys(labels.tolist()))  # topics numbered by their first article
    count = len(order)
    number = np.empty(len(centroids), dtype=int)
    number[order] = np.arange(count)
    labels = number[labels]
    assignment = dict(zip(ids, labels.tolist()))

    is_gold = np.array([aid in gold_ids for aid in ids], dtype=bool)
    gold_share = np.bincount(labels[is_gold], minlength=count) / np.bincount(labels)
    violent = int(np.argmax(gold_share)) if is_gold.any() else None
    return TopicModel(dyad_id, centroids[order], assignment, violent)


# ---------------------------------------------------------------------------
# Digest assembly
# ---------------------------------------------------------------------------

def _month_articles(
    topic_model: TopicModel, articles_by_id: dict[str, Article], gold_ids: set[str], month: int
) -> tuple[list[str], dict[int, list[str]]]:
    """The month's event (gold) ids, sorted, and each topic's in-month non-event members."""
    in_month = {aid for aid, article in articles_by_id.items() if article.month == month}
    by_topic: dict[int, list[str]] = {}
    for aid, topic in topic_model.assignment.items():
        if aid in in_month and aid not in gold_ids:
            by_topic.setdefault(topic, []).append(aid)
    return sorted(in_month & gold_ids), by_topic


def _ranked(query: np.ndarray, ids: list[str], embeddings) -> list[str]:
    """``ids`` by descending cosine similarity to the unit ``query``, ties by ascending id."""
    sims = [(float(normalize(embeddings.get(aid)) @ query), aid) for aid in ids]
    return [aid for _, aid in sorted(sims, key=lambda pair: (-pair[0], pair[1]))]


def low_context_digest(
    dyad_id: str,
    month: int,
    topic_model: TopicModel,
    articles_by_id: dict[str, Article],
    gold_ids: set[str],
    embeddings,
) -> Digest | None:
    """Event snippets first, then per topic the closest in-month articles.

    Topics contribute up to ``PER_TOPIC`` non-event articles each, ranked by
    cosine similarity to the centroid. A dyad-month with no articles and
    no events yields no digest.
    """
    ids, members = _month_articles(topic_model, articles_by_id, gold_ids, month)
    for topic in range(topic_model.topic_count):
        ids += _ranked(topic_model.centroids[topic], members.get(topic, []), embeddings)[:PER_TOPIC]
    if not ids:
        return None
    snippets = [snippet(articles_by_id[aid]) for aid in ids]
    return Digest(dyad_id=dyad_id, month=month, kind=LOW_CONTEXT, snippets=snippets)


def rag_digest(
    dyad_id: str,
    month: int,
    topic_model: TopicModel,
    articles_by_id: dict[str, Article],
    gold_ids: set[str],
    embeddings,
    index,
    seed: int = 0,
) -> list[Digest]:
    """The month's high-context digest, as a list of at most one.

    Per event, in id order, an event-block: the event snippet, then the
    in-month non-event article of each non-violent topic closest to the
    event. A topic with no such article is skipped, and the skips are
    logged once per call. A month with no event article that has an
    embedding takes the low-context digest's snippets, tagged high-context.
    ``index`` and ``seed`` are unread; they are kept because the
    benchmark's stage adapter passes them.
    """
    month_events, members = _month_articles(topic_model, articles_by_id, gold_ids, month)
    event_ids = []
    for eid in month_events:
        if eid in embeddings:
            event_ids.append(eid)
        else:
            logger.warning("event article %s has no embedding, skipped", eid)
    if not event_ids:
        low = low_context_digest(dyad_id, month, topic_model, articles_by_id, gold_ids, embeddings)
        return [replace(low, kind=HIGH_CONTEXT)] if low is not None else []

    topics = sorted(t for t in members if t != topic_model.violent_topic)
    skipped = topic_model.topic_count - len(topics) - (topic_model.violent_topic is not None)
    if skipped:
        logger.debug(
            "dyad %s month %s: %d topics with no in-month article skipped for %d events",
            dyad_id, months.format_month(month), skipped, len(event_ids),
        )
    ids = []
    for eid in event_ids:
        query = normalize(embeddings.get(eid))
        ids.append(eid)
        ids += [_ranked(query, members[t], embeddings)[0] for t in topics]
    snippets = [snippet(articles_by_id[aid]) for aid in ids]
    return [Digest(dyad_id=dyad_id, month=month, kind=HIGH_CONTEXT, snippets=snippets)]


# ---------------------------------------------------------------------------
# JSONL interface
# ---------------------------------------------------------------------------

def _digest_key(d: Digest) -> str:
    return f"{d.kind} digest of dyad {d.dyad_id}, month {months.format_month(d.month)}"


def save_digests(digests: list[Digest], path: str | Path) -> None:
    """Write one JSONL row per digest, its snippets as article ids; two of one kind,
    dyad and month raise."""
    ordered = sorted(digests, key=lambda d: (d.kind, d.dyad_id, d.month))
    _files.check_keys(path, ordered, _digest_key)
    _files.write_jsonl(path, (
        {
            "dyad_id": digest.dyad_id,
            "month": months.format_month(digest.month),
            "kind": digest.kind,
            "snippet_ids": digest.snippet_ids,
        }
        for digest in ordered
    ))


def load_digests(path: str | Path, articles_by_id: dict[str, Article]) -> list[Digest]:
    """Digests from a JSONL file, each snippet rebuilt by :func:`snippet` from its article.

    Keys other than the saved fields are ignored, the ``text`` of older
    files among them. A row whose snippet ids are not a non-empty list of
    strings, that names an id ``articles_by_id`` lacks, whose kind is
    neither digest kind, or whose kind, dyad and month an earlier row has,
    is an error.
    """

    def article(aid: str) -> Article:
        if aid not in articles_by_id:  # a KeyError would read as a missing field
            raise ValueError(f"snippet id {aid!r} has no article")
        return articles_by_id[aid]

    def build(row: dict) -> Digest:
        kind, ids = _files.field(row, "kind", str), _files.strings(row, "snippet_ids")
        if kind not in (LOW_CONTEXT, HIGH_CONTEXT):
            raise ValueError(f"kind is not {LOW_CONTEXT} or {HIGH_CONTEXT}: {kind!r}")
        if not ids:
            raise ValueError("snippet_ids is empty")
        return Digest(
            dyad_id=_files.ident(_files.field(row, "dyad_id", str), "dyad_id"),
            month=months.parse_month(row["month"]),
            kind=kind,
            snippets=[snippet(article(aid)) for aid in ids],
        )

    return _files.read_rows(path, build, _digest_key)
