import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nexus.digests import (
    HIGH_CONTEXT,
    LOW_CONTEXT,
    SNIPPET_TOKENS,
    Digest,
    Snippet,
    TopicModel,
    cluster_topics,
    initial_topic_count,
    load_digests,
    low_context_digest,
    rag_digest,
    sample_event_blocks,
    save_digests,
    snippet,
)
from nexus.hnsw import HnswConfig, HnswIndex, normalize
from nexus.ingest import Article, EmbeddingMatrix
from nexus.months import format_month, parse_month
from nexus.stepshift import build_dataset


def art(article_id, n_tokens=20, month="2021-03"):
    words = " ".join(f"w{i}" for i in range(n_tokens - 1))
    return Article(
        article_id=article_id,
        date=dt.date.fromisoformat(month + "-15"),
        headline=f"h-{article_id}",
        body=words,
    )


class TestSnippet:
    def test_long_article_truncated(self):
        s = snippet(art("a", n_tokens=300))
        assert s.token_count == SNIPPET_TOKENS == 256
        assert len(s.text.split()) == 256

    def test_short_article_kept(self):
        s = snippet(art("a", n_tokens=10))
        assert s.token_count == 10

    def test_exact_boundary_unchanged(self):
        s = snippet(art("a", n_tokens=256))
        assert s.token_count == 256

    def test_empty_article_rejected(self):
        empty = Article("x", dt.date(2021, 1, 1), "", "")
        with pytest.raises(ValueError):
            snippet(empty)

    def test_whitespace_collapsed(self):
        a = Article("x", dt.date(2021, 1, 1), "two  words", "and\tmore\n\nhere")
        assert snippet(a).text == "two words and more here"


class TestClusterTopics:
    def test_initial_k_formula(self):
        assert initial_topic_count(600, 200, 21) == 3
        assert initial_topic_count(10_000, 200, 21) == 21
        assert initial_topic_count(450, 200, 21) == 3  # clamped up

    def test_two_blob_membership_recovered(self):
        rng = np.random.default_rng(0)
        d = 16
        mu_a = np.zeros(d)
        mu_a[0] = 4.0
        mu_b = np.zeros(d)
        mu_b[1] = 4.0
        vec_a = rng.normal(size=(400, d)) * 0.3 + mu_a
        vec_b = rng.normal(size=(400, d)) * 0.3 + mu_b
        ids = [f"a{i}" for i in range(400)] + [f"b{i}" for i in range(400)]
        model = cluster_topics(
            "dy", ids, np.vstack([vec_a, vec_b]), gold_ids=set(), min_topic_size=200, seed=3
        )
        # perfect purity: each blob collapses into its own topic
        topics_a = {model.assignment[f"a{i}"] for i in range(400)}
        topics_b = {model.assignment[f"b{i}"] for i in range(400)}
        assert len(topics_a) == 1
        assert len(topics_b) == 1
        assert topics_a != topics_b

    def test_small_corpus_single_catch_all(self):
        rng = np.random.default_rng(1)
        ids = [f"x{i}" for i in range(30)]
        model = cluster_topics(
            "dy", ids, rng.normal(size=(30, 8)), gold_ids=set(), min_topic_size=200
        )
        assert model.topic_count == 1
        assert set(model.assignment.values()) == {0}

    def test_identical_embeddings_single_topic(self, caplog):
        ids = [f"x{i}" for i in range(100)]
        vectors = np.tile(np.ones(8), (100, 1))
        with caplog.at_level("WARNING"):
            model = cluster_topics(
                "dy", ids, vectors, gold_ids=set(), min_topic_size=10
            )
        assert model.topic_count == 1

    def test_every_article_assigned_and_sizes_respected(self):
        rng = np.random.default_rng(2)
        centers = np.eye(4, 12) * 5.0
        vectors = np.vstack(
            [rng.normal(size=(100, 12)) * 0.2 + centers[i] for i in range(4)]
        )
        ids = [f"x{i}" for i in range(400)]
        model = cluster_topics("dy", ids, vectors, gold_ids=set(), min_topic_size=50, seed=5)
        assert set(model.assignment) == set(ids)
        sizes = np.bincount(list(model.assignment.values()))
        assert np.all(sizes >= 50)

    def test_violent_topic_by_gold_density(self):
        rng = np.random.default_rng(3)
        d = 8
        blob1 = rng.normal(size=(60, d)) * 0.1 + np.array([5] + [0] * 7)
        blob2 = rng.normal(size=(60, d)) * 0.1 + np.array([0, 5] + [0] * 6)
        ids = [f"g{i}" for i in range(60)] + [f"c{i}" for i in range(60)]
        gold = {f"g{i}" for i in range(60)}
        model = cluster_topics(
            "dy", ids, np.vstack([blob1, blob2]), gold_ids=gold, min_topic_size=20, seed=7
        )
        assert model.violent_topic == model.assignment["g0"]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(300, 10))
        ids = [f"x{i}" for i in range(300)]
        m1 = cluster_topics("dy", ids, vectors, set(), min_topic_size=50, seed=9)
        m2 = cluster_topics("dy", ids, vectors, set(), min_topic_size=50, seed=9)
        assert m1.assignment == m2.assignment
        assert np.array_equal(m1.centroids, m2.centroids)


def make_fixture(per_topic_in_month=6, n_events=2, month="2021-03"):
    """Three orthogonal context topics plus gold event articles near topic 0."""
    d = 8
    rng = np.random.default_rng(11)
    articles: dict[str, Article] = {}
    ids, vectors = [], []
    assignment = {}
    centroids = np.zeros((3, d), dtype=np.float32)
    for topic in range(3):
        centroids[topic, topic] = 1.0
        for i in range(per_topic_in_month):
            aid = f"t{topic}_{i}"
            articles[aid] = art(aid, month=month)
            base = np.zeros(d)
            base[topic] = 1.0
            noise = rng.normal(size=d) * 0.05
            ids.append(aid)
            vectors.append(base + noise)
            assignment[aid] = topic
    gold_ids = set()
    for i in range(n_events):
        aid = f"ev_{i}"
        articles[aid] = art(aid, month=month)
        base = np.zeros(d)
        base[0] = 1.0
        ids.append(aid)
        vectors.append(base + rng.normal(size=d) * 0.05)
        gold_ids.add(aid)
    matrix = EmbeddingMatrix(ids=ids, vectors=np.asarray(vectors, dtype=np.float32))
    model = TopicModel("dy", centroids, assignment, violent_topic=None)
    return articles, matrix, model, gold_ids


class TestLowContextDigest:
    def test_snippet_count_events_plus_five_per_topic(self):
        articles, matrix, model, gold = make_fixture(per_topic_in_month=6, n_events=2)
        digest = low_context_digest(
            "dy", parse_month("2021-03"), model, articles, gold, matrix
        )
        assert digest is not None
        assert len(digest.snippets) == 2 + 3 * 5
        # event snippets lead, sorted by id
        assert digest.snippet_ids[:2] == ["ev_0", "ev_1"]

    def test_small_topic_contributes_what_it_has(self):
        articles, matrix, model, gold = make_fixture(per_topic_in_month=2, n_events=1)
        digest = low_context_digest(
            "dy", parse_month("2021-03"), model, articles, gold, matrix
        )
        assert len(digest.snippets) == 1 + 3 * 2

    def test_event_only_month(self):
        articles, matrix, model, gold = make_fixture(per_topic_in_month=0, n_events=1)
        digest = low_context_digest(
            "dy", parse_month("2021-03"), model, articles, gold, matrix
        )
        assert digest.snippet_ids == ["ev_0"]

    def test_empty_month_gives_none(self):
        articles, matrix, model, gold = make_fixture()
        digest = low_context_digest(
            "dy", parse_month("2020-01"), model, articles, gold, matrix
        )
        assert digest is None

    def test_within_topic_order_by_similarity(self):
        articles, matrix, model, gold = make_fixture(per_topic_in_month=6, n_events=0)
        digest = low_context_digest(
            "dy", parse_month("2021-03"), model, articles, gold, matrix
        )
        t0 = [aid for aid in digest.snippet_ids if aid.startswith("t0_")]
        sims = [float(matrix.get(aid) @ model.centroids[0] / np.linalg.norm(matrix.get(aid))) for aid in t0]
        assert sims == sorted(sims, reverse=True)

    def test_deterministic(self):
        articles, matrix, model, gold = make_fixture()
        a = low_context_digest("dy", parse_month("2021-03"), model, articles, gold, matrix)
        b = low_context_digest("dy", parse_month("2021-03"), model, articles, gold, matrix)
        assert a.snippet_ids == b.snippet_ids


def low_context_reference(month, topic_model, articles_by_id, gold_ids, embeddings, per_topic=5):
    """Snippet ids of `low_context_digest` by one `members()` call per topic, its reference."""
    def in_month(aid):
        return aid in articles_by_id and articles_by_id[aid].month == month

    ids = sorted(aid for aid in gold_ids if in_month(aid))
    for topic in range(topic_model.topic_count):
        members = [aid for aid in topic_model.members(topic) if aid not in gold_ids and in_month(aid)]
        centroid = topic_model.centroids[topic]
        sims = [(float(normalize(embeddings.get(aid)) @ centroid), aid) for aid in members]
        ids += [aid for _, aid in sorted(sims, key=lambda pair: (-pair[0], pair[1]))[:per_topic]]
    return ids


# (month offset, topic, vector on a small grid so similarities tie, gold, has an article)
article_rows = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(0, 2),
        st.lists(st.integers(0, 1), min_size=3, max_size=3),
        st.booleans(),
        st.booleans(),
    ),
    max_size=30,
)


class TestLowContextMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(article_rows)
    def test_snippet_ids_equal_reference(self, rows):
        month = parse_month("2021-03")
        articles, assignment, gold, ids, vectors = {}, {}, set(), [], []
        for i, (offset, topic, grid, is_gold, present) in enumerate(rows):
            aid = f"a{99 - i:02d}"  # ids in reverse insertion order
            assignment[aid] = topic
            if present:
                articles[aid] = art(aid, month="2021-03" if offset == 0 else "2021-04")
            if is_gold:
                gold.add(aid)
            ids.append(aid)
            vectors.append([1.0, *grid])
        centroids = np.eye(3, 4, k=1, dtype=np.float32) + np.float32(0.5)
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        model = TopicModel("dy", centroids, assignment, violent_topic=None)
        matrix = EmbeddingMatrix(ids=ids, vectors=np.asarray(vectors, dtype=np.float32).reshape(-1, 4))
        digest = low_context_digest("dy", month, model, articles, gold, matrix)
        expected = low_context_reference(month, model, articles, gold, matrix)
        assert (digest.snippet_ids if digest is not None else []) == expected


def build_context_index(matrix, gold_ids):
    index = HnswIndex(matrix.dim, HnswConfig(seed=5))
    for aid in matrix.ids:
        if aid not in gold_ids:
            index.insert(aid, matrix.get(aid))
    return index


class TestRagDigest:
    def test_event_block_size(self):
        articles, matrix, model, gold = make_fixture(per_topic_in_month=6, n_events=1)
        index = build_context_index(matrix, gold)
        digests = rag_digest(
            "dy", parse_month("2021-03"), model, articles, gold, matrix, index, seed=1
        )
        # one event, three non-violent topics -> one digest of one 4-snippet block
        assert len(digests) == 1
        assert len(digests[0].snippets) == 1 + 3
        assert digests[0].kind == HIGH_CONTEXT

    def test_violent_topic_excluded(self):
        articles, matrix, model, gold = make_fixture(per_topic_in_month=6, n_events=1)
        model.violent_topic = 0
        index = build_context_index(matrix, gold)
        digests = rag_digest(
            "dy", parse_month("2021-03"), model, articles, gold, matrix, index, seed=1
        )
        assert len(digests[0].snippets) == 1 + 2
        retrieved = digests[0].snippet_ids[1:]
        assert all(not aid.startswith("t0_") for aid in retrieved)

    def test_contexts_from_distinct_topics(self):
        articles, matrix, model, gold = make_fixture(per_topic_in_month=6, n_events=2)
        index = build_context_index(matrix, gold)
        digests = rag_digest(
            "dy", parse_month("2021-03"), model, articles, gold, matrix, index, seed=1
        )
        snippets = digests[0].snippets
        # each 4-snippet block: event + one member of each topic
        for start in (0, 4):
            block_ids = [s.article_id for s in snippets[start + 1 : start + 4]]
            topics = {model.assignment[aid] for aid in block_ids}
            assert len(topics) == 3

    def test_no_events_falls_back_to_low_context(self):
        articles, matrix, model, gold = make_fixture(per_topic_in_month=6, n_events=0)
        index = build_context_index(matrix, gold)
        digests = rag_digest(
            "dy", parse_month("2021-03"), model, articles, gold, matrix, index, seed=1
        )
        assert len(digests) == 1
        assert digests[0].kind == LOW_CONTEXT

    def test_deterministic_given_seed(self):
        articles, matrix, model, gold = make_fixture(per_topic_in_month=6, n_events=3)
        index = build_context_index(matrix, gold)
        a = rag_digest("dy", parse_month("2021-03"), model, articles, gold, matrix, index, seed=4)
        b = rag_digest("dy", parse_month("2021-03"), model, articles, gold, matrix, index, seed=4)
        assert [d.snippet_ids for d in a] == [d.snippet_ids for d in b]


def all_digests(month_range, model, articles, gold, matrix, index):
    out = []
    for month in month_range:
        low = low_context_digest("dy", month, model, articles, gold, matrix)
        out += ([low] if low is not None else [])
        out += rag_digest("dy", month, model, articles, gold, matrix, index, seed=month)
    return out


class TestCausalDigests:
    @settings(max_examples=100, deadline=None)
    @given(article_rows)
    def test_every_snippet_dated_in_its_digest_month(self, rows):
        articles, assignment, gold, ids, vectors = {}, {}, set(), [], []
        for i, (offset, topic, grid, is_gold, _) in enumerate(rows):
            aid = f"a{i:02d}"
            articles[aid] = art(aid, month=f"2021-0{3 + offset}")
            assignment[aid] = topic
            if is_gold:
                gold.add(aid)
            ids.append(aid)
            vectors.append([1.0, *grid])
        centroids = np.eye(3, 4, k=1, dtype=np.float32) + np.float32(0.5)
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        model = TopicModel("dy", centroids, assignment, violent_topic=None)
        matrix = EmbeddingMatrix(ids=ids, vectors=np.asarray(vectors, dtype=np.float32).reshape(-1, 4))
        index = build_context_index(matrix, gold)
        months = range(parse_month("2021-03"), parse_month("2021-05") + 1)
        for digest in all_digests(months, model, articles, gold, matrix, index):
            assert all(articles[aid].month == digest.month for aid in digest.snippet_ids)

    @staticmethod
    def _corpus(later_seed):
        """Six months of three blob topics plus two events a month near topic 0.

        Articles after 2021-04 are drawn from `later_seed`, the rest from a
        fixed seed.
        """
        d, train_end = 8, parse_month("2021-04")
        articles, gold, ids, vectors = {}, set(), [], []
        for month in range(parse_month("2021-01"), parse_month("2021-06") + 1):
            rng = np.random.default_rng(later_seed if month > train_end else month)
            for i in range(32):
                aid = f"{format_month(month)}-{i:02d}"
                articles[aid] = art(aid, n_tokens=int(rng.integers(5, 30)), month=format_month(month))
                ids.append(aid)
                vectors.append(np.eye(d)[0 if i >= 30 else i % 3] + rng.normal(size=d) * 0.3)
                if i >= 30:
                    gold.add(aid)
        return articles, gold, EmbeddingMatrix(ids=ids, vectors=np.asarray(vectors)), train_end

    def _train_pairs(self, later_seed):
        """Step-1 training pairs; the topics are fixed, so only the articles vary."""
        articles, gold, matrix, train_end = self._corpus(later_seed)
        topic = {aid: (0 if aid in gold else int(aid[-2:]) % 3) for aid in matrix.ids}
        model = TopicModel("dy", np.eye(3, 8, dtype=np.float32), topic, violent_topic=None)
        months = range(parse_month("2021-01"), parse_month("2021-06") + 1)
        digests = all_digests(months, model, articles, gold, matrix, build_context_index(matrix, gold))
        labels_train = {"dy": {m: m % 4 for m in months if m <= train_end}}
        labels_val = {"dy": {m: m % 4 for m in months}}
        train, _, _ = build_dataset(
            digests, labels_train, labels_val, 1, train_end, train_end + 1, months[-1], matrix
        )
        return [(p.digest_month, p.kind, p.target, p.features.tobytes()) for p in train]

    def test_training_pairs_immune_to_future_articles(self):
        pairs = self._train_pairs(later_seed=100)
        assert len(pairs) > 3
        assert pairs == self._train_pairs(later_seed=101)


class TestSampleEventBlocks:
    def _blocks(self, n, tokens_each):
        return [
            [Snippet(f"s{i}", "x " * tokens_each, tokens_each)] for i in range(n)
        ]

    def test_all_fit_in_single_digest(self):
        packed = sample_event_blocks(self._blocks(4, 100), context_limit=2048, seed=0)
        assert len(packed) == 1
        assert len(packed[0]) == 4

    def test_ten_blocks_of_600_at_limit_2048(self):
        blocks = self._blocks(10, 600)
        packed = sample_event_blocks(blocks, context_limit=2048, seed=3)
        for digest in packed:
            assert len(digest) <= 3
            assert sum(s.token_count for b in digest for s in b) <= 2048
        covered = {b[0].article_id for digest in packed for b in digest}
        assert covered == {f"s{i}" for i in range(10)}

    def test_union_coverage_over_many_seeds(self):
        blocks = self._blocks(10, 600)
        for seed in range(20):
            packed = sample_event_blocks(blocks, 2048, seed)
            covered = {b[0].article_id for digest in packed for b in digest}
            assert covered == {f"s{i}" for i in range(10)}

    def test_oversized_block_rejected(self):
        with pytest.raises(ValueError):
            sample_event_blocks(self._blocks(1, 5000), context_limit=2048, seed=0)


class TestDigestRoundTrip:
    def test_save_load(self, tmp_path):
        articles, matrix, model, gold = make_fixture()
        digest = low_context_digest(
            "dy", parse_month("2021-03"), model, articles, gold, matrix
        )
        path = tmp_path / "digests.jsonl"
        save_digests([digest], path)
        loaded = load_digests(path)
        assert len(loaded) == 1
        assert loaded[0].snippet_ids == digest.snippet_ids
        assert loaded[0].total_tokens == digest.total_tokens
        assert loaded[0].month == digest.month
        assert loaded[0].text == digest.text
