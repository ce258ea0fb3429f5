import datetime as dt
import json
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nexus.digests import (
    HIGH_CONTEXT,
    KMEANS_MAX_ITER,
    LOW_CONTEXT,
    PER_TOPIC,
    SNIPPET_TOKENS,
    Digest,
    Snippet,
    TopicModel,
    _kmeanspp_init,
    _normalized_mean,
    cluster_topics,
    initial_topic_count,
    load_digests,
    low_context_digest,
    normalize,
    rag_digest,
    save_digests,
    snippet,
)
from nexus.hnsw import HnswConfig, HnswIndex
from nexus.ingest import Article, EmbeddingMatrix
from nexus.months import format_month, parse_month
from nexus.stepshift import build_dataset, pool_embedding


def art(article_id, n_tokens=20, month="2021-03"):
    words = " ".join(f"w{i}" for i in range(n_tokens - 1))
    return Article(
        article_id=article_id,
        date=dt.date.fromisoformat(month + "-15"),
        headline=f"h-{article_id}",
        body=words,
    )


class TestNormalize:
    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.zeros(8))

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = normalize(rng.normal(size=16))
            assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-6

    def test_cosine_equals_dot_after_normalization(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = rng.normal(size=24), rng.normal(size=24)
            na, nb = normalize(a), normalize(b)
            cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
            assert abs(float(na @ nb) - cos) < 1e-6


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

    @pytest.mark.parametrize("n_vectors", [8, 12])
    def test_vector_count_other_than_id_count_rejected(self, n_vectors):
        ids = [f"a{i}" for i in range(10)]
        vectors = np.random.default_rng(2).normal(size=(n_vectors, 8))
        with pytest.raises(ValueError, match=f"dyad dy: {n_vectors} vectors for 10 article ids"):
            cluster_topics("dy", ids, vectors, gold_ids=set(), min_topic_size=2)

    @pytest.mark.parametrize("min_topic_size, max_topics, error", [
        (0, 21, "min_topic_size must be at least 1: 0"),
        (-3, 21, "min_topic_size must be at least 1: -3"),
        (1, 1, "max_topics must be at least 3: 1"),
        (25, 2, "max_topics must be at least 3: 2"),
    ])
    def test_bad_topic_settings_rejected(self, min_topic_size, max_topics, error):
        ids = [f"a{i}" for i in range(10)]
        vectors = np.random.default_rng(2).normal(size=(10, 8))
        with pytest.raises(ValueError, match=re.escape(f"dyad dy: {error}")):
            cluster_topics("dy", ids, vectors, set(), min_topic_size, max_topics)

    def test_identical_embeddings_single_topic(self):
        ids = [f"x{i}" for i in range(100)]
        vectors = np.tile(np.ones(8), (100, 1))
        model = cluster_topics("dy", ids, vectors, gold_ids=set(), min_topic_size=10)
        assert model.topic_count == 1

    def test_cancelling_group_gets_its_first_row_as_centroid(self):
        # two copies of three unit vectors 120 degrees apart: the one merged group's mean is 0
        s = np.sqrt(3) / 2
        vectors = np.array([[1.0, 0.0], [-0.5, s], [-0.5, -s]] * 2, dtype=np.float32)
        ids = [f"x{i}" for i in range(6)]
        model = cluster_topics("dy", ids, vectors, gold_ids=set(), min_topic_size=3, seed=0)
        assert model.centroids.dtype == np.float32
        assert np.array_equal(model.centroids, [[1.0, 0.0]])
        articles = {aid: art(aid) for aid in ids}
        embeddings = EmbeddingMatrix(ids=ids, vectors=vectors)
        digest = low_context_digest(
            "dy", parse_month("2021-03"), model, articles, set(), embeddings
        )
        assert len(digest.snippets) == PER_TOPIC

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), min_topic_size=st.integers(1, 12), dim=st.integers(2, 5))
    def test_small_corpus_is_one_catch_all_topic(self, data, min_topic_size, dim):
        n = data.draw(st.integers(1, 2 * min_topic_size - 1))
        row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
        vectors = np.array(data.draw(st.lists(row, min_size=n, max_size=n)), dtype=np.float32)
        unit = np.stack([normalize(v) for v in vectors])
        assume(np.linalg.norm(unit.mean(axis=0)) > 0)
        ids = [f"x{i}" for i in range(n)]
        gold = set(data.draw(st.lists(st.sampled_from(ids + ["elsewhere"]), max_size=3)))
        model = cluster_topics("dy", ids, vectors, gold, min_topic_size=min_topic_size)
        assert model.topic_count == 1
        assert model.assignment == {aid: 0 for aid in ids}
        assert np.array_equal(model.centroids, normalize(unit.mean(axis=0))[None, :])
        assert model.violent_topic == (0 if gold & set(ids) else None)

    def test_gold_share_tie_goes_to_lower_topic(self):
        rng = np.random.default_rng(6)
        blob1 = rng.normal(size=(30, 8)) * 0.1 + np.eye(8)[0] * 5
        blob2 = rng.normal(size=(30, 8)) * 0.1 + np.eye(8)[1] * 5
        ids = [f"a{i}" for i in range(30)] + [f"b{i}" for i in range(30)]
        gold = {"a0", "a1", "b0", "b1"}
        model = cluster_topics(
            "dy", ids, np.vstack([blob1, blob2]), gold_ids=gold, min_topic_size=20, seed=1
        )
        assert model.topic_count == 2
        assert model.assignment["a0"] == 0 and model.assignment["b0"] == 1
        assert model.violent_topic == 0

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

    def test_repeated_id_rejected_naming_both_positions(self):
        ids = ["x", "x", "y", "z", "w", "v"]
        vectors = np.random.default_rng(2).normal(size=(6, 8))
        message = "dyad d: article id 'x' at positions 0 and 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            cluster_topics("d", ids, vectors, set(), min_topic_size=1, max_topics=3)


def cluster_topics_reference(ids, vectors, gold_ids, min_topic_size, max_topics, seed,
                             max_iter=KMEANS_MAX_ITER):
    """The list-of-index-arrays partition that ``cluster_topics`` once kept, as its oracle.

    Returns the assignment, the violent topic and the centroids.
    """
    unit = np.stack([normalize(v) for v in np.asarray(vectors, dtype=np.float32)])
    k = initial_topic_count(len(ids), min_topic_size, max_topics)
    centroids = _kmeanspp_init(unit, k, np.random.Generator(np.random.PCG64(seed)))
    labels = np.argmax(unit @ centroids.T, axis=1)
    for _ in range(max_iter):
        fresh = []
        for t in range(k):
            member_vecs = unit[labels == t]
            fresh.append(_normalized_mean(member_vecs) if len(member_vecs) else centroids[t])
        centroids = np.stack(fresh)
        new_labels = np.argmax(unit @ centroids.T, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels

    groups = [np.flatnonzero(labels == t) for t in range(k) if np.any(labels == t)]
    while len(groups) > 1:
        sizes = [len(g) for g in groups]
        smallest = int(np.argmin(sizes))
        if sizes[smallest] >= min_topic_size:
            break
        cents = np.stack([_normalized_mean(unit[g]) for g in groups])
        sims = cents @ cents[smallest]
        sims[smallest] = -np.inf
        target = int(np.argmax(sims))
        merged = np.concatenate([groups[target], groups[smallest]])
        groups = [g for i, g in enumerate(groups) if i not in (smallest, target)]
        groups.append(np.sort(merged))

    groups.sort(key=lambda g: int(g[0]))
    topic_of = np.empty(len(ids), dtype=int)
    for topic, g in enumerate(groups):
        topic_of[g] = topic
    is_gold = np.array([aid in gold_ids for aid in ids], dtype=bool)
    gold_share = np.bincount(topic_of[is_gold], minlength=len(groups)) / [len(g) for g in groups]
    violent = int(np.argmax(gold_share)) if is_gold.any() else None
    centroids = np.stack([_normalized_mean(unit[g]) for g in groups])
    return dict(zip(ids, topic_of.tolist())), violent, centroids


def oracle_inputs(kind, n, dim, draw_seed, gold_share):
    """Article ids, vectors of one ``kind`` and gold ids for the reference comparison."""
    rng = np.random.default_rng(draw_seed)
    if kind == "blobs":
        centers = rng.normal(size=(int(rng.integers(1, 6)), dim)) * 3
        vectors = centers[rng.integers(len(centers), size=n)] + rng.normal(size=(n, dim)) * 0.3
    elif kind == "isotropic":
        vectors = rng.normal(size=(n, dim))
    elif kind == "rounded":  # repeated rows, so sizes and similarities tie
        vectors = np.round(rng.normal(size=(n, dim)))
        vectors[~vectors.any(axis=1), 0] = 1.0
    elif kind == "axes":  # equal groups on orthogonal axes: ties at every merge
        axes = np.concatenate([np.eye(dim), -np.eye(dim)])[rng.permutation(2 * dim)]
        vectors = axes[np.arange(n) % int(rng.integers(2, 2 * dim + 1))]
    elif rng.random() < 0.5:  # "cancelling": each row beside its negation
        base = rng.normal(size=((n + 1) // 2, dim))
        vectors = np.concatenate([base, -base])[:n]
    else:  # "cancelling": triples of unit vectors 120 degrees apart
        s = np.sqrt(3) / 2
        vectors = np.tile([[1.0, 0.0], [-0.5, s], [-0.5, -s]], (n, 1))[:n] @ np.eye(2, dim)
    ids = [f"a{i:03d}" for i in rng.permutation(n)]
    gold = {aid for aid in ids if rng.random() < gold_share}
    return ids, vectors.astype(np.float32), gold


class TestClusterTopicsMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["blobs", "isotropic", "rounded", "axes", "cancelling"]),
        n=st.integers(1, 80),
        dim=st.integers(2, 6),
        min_topic_size=st.integers(1, 8) | st.integers(1, 85),
        max_topics=st.integers(3, 25),
        seed=st.integers(0, 4),
        draw_seed=st.integers(0, 2**32 - 1),
        gold_share=st.sampled_from([0.0, 0.1, 0.5]),
    )
    @example("axes", 38, 5, 6, 9, 3, 878928606, 0.1)  # similarity ties, one with a merged cluster
    @example("rounded", 38, 2, 7, 11, 2, 507725864, 0.1)  # a tie of smallest sizes
    def test_partition_equals_the_list_based_merge(
        self, kind, n, dim, min_topic_size, max_topics, seed, draw_seed, gold_share
    ):
        ids, vectors, gold = oracle_inputs(kind, n, dim, draw_seed, gold_share)
        model = cluster_topics("dy", ids, vectors, gold, min_topic_size, max_topics, seed)
        assignment, violent, centroids = cluster_topics_reference(
            ids, vectors, gold, min_topic_size, max_topics, seed
        )
        assert model.assignment == assignment
        assert model.violent_topic == violent
        assert model.centroids.dtype == centroids.dtype
        assert np.array_equal(model.centroids, centroids)

    # one k-means iteration leaves these unconverged, so their last labels are not those the
    # centroids were updated from; the merges must use the means of the last labels
    @pytest.mark.parametrize("kind, draw_seed", [("isotropic", 0), ("blobs", 6)])
    def test_unconverged_k_means_merges_on_the_means_of_its_last_labels(
        self, monkeypatch, kind, draw_seed
    ):
        monkeypatch.setattr("nexus.digests.KMEANS_MAX_ITER", 1)
        ids, vectors, gold = oracle_inputs(kind, 60, 4, draw_seed, 0.1)
        model = cluster_topics("dy", ids, vectors, gold, 8, 10, 0)
        assignment, violent, centroids = cluster_topics_reference(
            ids, vectors, gold, 8, 10, 0, max_iter=1
        )
        assert model.assignment == assignment
        assert model.violent_topic == violent
        assert np.array_equal(model.centroids, centroids)


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


class TestRagDigest:
    def test_event_block_size(self):
        articles, matrix, model, gold = make_fixture(per_topic_in_month=6, n_events=1)
        digests = rag_digest(
            "dy", parse_month("2021-03"), model, articles, gold, matrix, None, seed=1
        )
        # one event, three non-violent topics -> one digest of one 4-snippet block
        assert len(digests) == 1
        assert len(digests[0].snippets) == 1 + 3
        assert digests[0].kind == HIGH_CONTEXT

    def test_violent_topic_excluded(self):
        articles, matrix, model, gold = make_fixture(per_topic_in_month=6, n_events=1)
        model.violent_topic = 0
        digests = rag_digest(
            "dy", parse_month("2021-03"), model, articles, gold, matrix, None, seed=1
        )
        assert len(digests[0].snippets) == 1 + 2
        retrieved = digests[0].snippet_ids[1:]
        assert all(not aid.startswith("t0_") for aid in retrieved)

    def test_contexts_from_distinct_topics(self):
        articles, matrix, model, gold = make_fixture(per_topic_in_month=6, n_events=2)
        digests = rag_digest(
            "dy", parse_month("2021-03"), model, articles, gold, matrix, None, seed=1
        )
        snippets = digests[0].snippets
        # each 4-snippet block: event + one member of each topic
        for start in (0, 4):
            block_ids = [s.article_id for s in snippets[start + 1 : start + 4]]
            topics = {model.assignment[aid] for aid in block_ids}
            assert len(topics) == 3

    def test_no_events_falls_back_to_low_context(self):
        articles, matrix, model, gold = make_fixture(per_topic_in_month=6, n_events=0)
        digests = rag_digest(
            "dy", parse_month("2021-03"), model, articles, gold, matrix, None, seed=1
        )
        low = low_context_digest("dy", parse_month("2021-03"), model, articles, gold, matrix)
        assert len(digests) == 1
        assert digests[0].kind == HIGH_CONTEXT
        assert digests[0].snippet_ids == low.snippet_ids

    def test_unembedded_events_fall_back_to_low_context(self):
        articles, matrix, model, gold = make_fixture(per_topic_in_month=6, n_events=0)
        articles["ev_0"] = art("ev_0")  # an event article with no embedding
        gold = {"ev_0"}
        digests = rag_digest("dy", parse_month("2021-03"), model, articles, gold, matrix, None)
        low = low_context_digest("dy", parse_month("2021-03"), model, articles, gold, matrix)
        assert low.snippet_ids[0] == "ev_0"
        assert [(d.kind, d.snippet_ids) for d in digests] == [(HIGH_CONTEXT, low.snippet_ids)]

    def test_every_event_block_in_one_digest(self):
        articles, matrix, model, gold = make_fixture(per_topic_in_month=6, n_events=12)
        digests = rag_digest("dy", parse_month("2021-03"), model, articles, gold, matrix, None)
        assert len(digests) == 1
        ids = digests[0].snippet_ids
        assert len(ids) == 12 * (1 + 3)
        assert ids[::4] == sorted(gold)  # each block leads with its event, in id order
        assert digests[0].total_tokens == sum(s.token_count for s in digests[0].snippets)


def all_digests(month_range, model, articles, gold, matrix):
    out = []
    for month in month_range:
        low = low_context_digest("dy", month, model, articles, gold, matrix)
        out += ([low] if low is not None else [])
        out += rag_digest("dy", month, model, articles, gold, matrix, None)
    return out


def rows_fixture(rows, unembedded_event_offsets=()):
    """Articles in 2021-03/04 from `article_rows`, plus event articles with no embedding."""
    articles, assignment, gold, ids, vectors = {}, {}, set(), [], []
    for i, (offset, topic, grid, is_gold, _) in enumerate(rows):
        aid = f"a{i:02d}"
        articles[aid] = art(aid, month=f"2021-0{3 + offset}")
        assignment[aid] = topic
        if is_gold:
            gold.add(aid)
        ids.append(aid)
        vectors.append([1.0, *grid])
    for i, offset in enumerate(unembedded_event_offsets):
        aid = f"u{i:02d}"
        articles[aid] = art(aid, month=f"2021-0{3 + offset}")
        gold.add(aid)
    centroids = np.eye(3, 4, k=1, dtype=np.float32) + np.float32(0.5)
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    model = TopicModel("dy", centroids, assignment, violent_topic=None)
    matrix = EmbeddingMatrix(ids=ids, vectors=np.asarray(vectors, dtype=np.float32).reshape(-1, 4))
    return articles, gold, model, matrix


# 2021-03 and 2021-04 hold the articles of `rows_fixture`; 2021-05 is empty
ROW_MONTHS = range(parse_month("2021-03"), parse_month("2021-05") + 1)


class TestCausalDigests:
    @settings(max_examples=100, deadline=None)
    @given(article_rows)
    def test_every_snippet_dated_in_its_digest_month(self, rows):
        articles, gold, model, matrix = rows_fixture(rows)
        for digest in all_digests(ROW_MONTHS, model, articles, gold, matrix):
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
        """Step-1 training pairs of each kind; the topics are fixed, so only the articles vary."""
        articles, gold, matrix, train_end = self._corpus(later_seed)
        topic = {aid: (0 if aid in gold else int(aid[-2:]) % 3) for aid in matrix.ids}
        model = TopicModel("dy", np.eye(3, 8, dtype=np.float32), topic, violent_topic=None)
        months = range(parse_month("2021-01"), parse_month("2021-06") + 1)
        by_kind = {}
        for digest in all_digests(months, model, articles, gold, matrix):
            by_kind.setdefault(digest.kind, []).append(digest)
        labels_train = {"dy": {m: m % 4 for m in months if m <= train_end}}
        labels_val = {"dy": {m: m % 4 for m in months}}
        pairs = []
        for kind in sorted(by_kind):
            pooled = {(d.dyad_id, d.month): pool_embedding(d, matrix) for d in by_kind[kind]}
            train, _, _ = build_dataset(pooled, labels_train, labels_val, 1, train_end,
                                        train_end + 1, months[-1])
            pairs += [(p.digest_month, kind, p.target, p.features.tobytes()) for p in train]
        return pairs

    def test_training_pairs_immune_to_future_articles(self):
        pairs = self._train_pairs(later_seed=100)
        assert len(pairs) > 3
        assert pairs == self._train_pairs(later_seed=101)


class TestOneDigestPerMonth:
    @settings(max_examples=100, deadline=None)
    @given(article_rows, st.lists(st.integers(0, 1), max_size=3))
    def test_high_context_exactly_when_low_context(self, rows, unembedded):
        articles, gold, model, matrix = rows_fixture(rows, unembedded)
        for month in ROW_MONTHS:
            low = low_context_digest("dy", month, model, articles, gold, matrix)
            high = rag_digest("dy", month, model, articles, gold, matrix, None)
            assert len(high) == (low is not None)
            assert all(d.kind == HIGH_CONTEXT and d.month == month for d in high)
            events = [aid for aid in gold if aid in matrix and articles[aid].month == month]
            if high and not events:
                assert high[0].snippet_ids == low.snippet_ids  # the fallback


def build_context_index(matrix, gold_ids):
    index = HnswIndex(matrix.dim, HnswConfig(seed=5))
    for aid in matrix.ids:
        if aid not in gold_ids:
            index.insert(aid, matrix.get(aid))
    return index


def rag_reference(month, topic_model, articles_by_id, gold_ids, embeddings):
    """Snippet ids of `rag_digest` by one index search per event and topic, its reference."""
    index = build_context_index(embeddings, gold_ids)
    events = sorted(
        aid for aid in gold_ids if aid in embeddings and articles_by_id[aid].month == month
    )
    if not events:
        return low_context_reference(month, topic_model, articles_by_id, gold_ids, embeddings)
    ids = []
    for eid in events:
        ids.append(eid)
        for topic in range(topic_model.topic_count):
            allowed = {
                aid for aid in topic_model.members(topic)
                if aid in index.ids and articles_by_id[aid].month == month
            }
            if topic != topic_model.violent_topic and allowed:
                query = normalize(embeddings.get(eid))
                ids.append(index.search(query, k=1, allowed=allowed)[0][0])
    return ids


class TestRagMatchesIndexSearch:
    @settings(max_examples=200, deadline=None)
    @given(article_rows, st.lists(st.integers(0, 1), max_size=2))
    def test_snippet_ids_equal_reference(self, rows, unembedded):
        articles, gold, model, matrix = rows_fixture(rows, unembedded)
        # members in descending id order, so that ties must be broken by id
        model.assignment = dict(reversed(model.assignment.items()))
        for violent_topic in (None, 0, 1, 2):
            model.violent_topic = violent_topic
            for month in ROW_MONTHS:
                digests = rag_digest("dy", month, model, articles, gold, matrix, None)
                expected = rag_reference(month, model, articles, gold, matrix)
                assert [d.snippet_ids for d in digests] == ([expected] if expected else [])


# the articles whose snippets the saved digests below hold: "x y" for "a", "x y z" for the others
SAVED_ARTICLES = {"a": Article("a", dt.date(2021, 3, 1), "x", "y")} | {
    aid: Article(aid, dt.date(2021, 3, 1), "x  y", "\tz") for aid in ("a1", "a2", "a3")
}
WORD_CHARS = st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"))


@st.composite
def spaced_text(draw, min_words, max_words):
    """Words after an optional whitespace run, each followed by a whitespace run."""
    n = draw(st.integers(min_words, max_words))
    words = draw(st.lists(st.text(WORD_CHARS, min_size=1, max_size=4), min_size=1, max_size=4))
    gaps = draw(st.lists(st.text(" \t\n\r\x0b\x0c\x85\xa0\u2003\u2028", min_size=1, max_size=3),
                         min_size=1, max_size=3))
    lead = draw(st.sampled_from(["", *gaps]))
    return lead + "".join(words[i % len(words)] + gaps[i % len(gaps)] for i in range(n))


@st.composite
def articles_and_digests(draw):
    """Articles, some past ``SNIPPET_TOKENS`` words, and digests whose ids may repeat."""
    ids = draw(st.lists(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                                max_size=5), min_size=1, max_size=5, unique=True))
    articles = {
        aid: Article(aid, dt.date(2021, 3, 1), draw(spaced_text(1, 3)),
                     draw(spaced_text(0, SNIPPET_TOKENS + 10)))
        for aid in ids
    }
    keys = st.tuples(st.sampled_from([LOW_CONTEXT, HIGH_CONTEXT]), st.sampled_from(["d1", "d 2"]),
                     st.integers(parse_month("1990-01"), parse_month("2030-12")))
    snippet_ids = draw(st.dictionaries(keys, st.lists(st.sampled_from(ids), min_size=1, max_size=6),
                                       max_size=5))
    digests = [
        Digest(dyad, month, kind, [snippet(articles[aid]) for aid in chosen])
        for (kind, dyad, month), chosen in snippet_ids.items()
    ]
    return articles, digests


class TestDigestRoundTrip:
    def test_save_load(self, tmp_path):
        articles, matrix, model, gold = make_fixture()
        digest = low_context_digest(
            "dy", parse_month("2021-03"), model, articles, gold, matrix
        )
        path = tmp_path / "digests.jsonl"
        save_digests([digest], path)
        assert set(json.loads(path.read_text())) == {"dyad_id", "month", "kind", "snippet_ids"}
        assert load_digests(path, articles) == [digest]

    @settings(max_examples=60, deadline=None)
    @given(articles_and_digests())
    def test_load_rebuilds_the_saved_digests_from_their_articles(self, tmp_path_factory, drawn):
        articles, digests = drawn
        path = tmp_path_factory.mktemp("digests") / "digests.jsonl"
        save_digests(digests, path)
        loaded = load_digests(path, articles)
        assert loaded == sorted(digests, key=lambda d: (d.kind, d.dyad_id, d.month))
        saved = path.read_bytes()
        save_digests(loaded, path)
        assert path.read_bytes() == saved

    def test_both_kinds_round_trip_one_row_per_key(self, tmp_path):
        # an event in 2021-03, none in 2021-04 (the fallback), nothing in 2021-05
        rows = [(0, t, [t % 2, 1, 0], False, True) for t in range(3)]
        rows += [(0, 0, [1, 0, 0], True, True)]
        rows += [(1, t, [0, t % 2, 1], False, True) for t in range(3)]
        articles, gold, model, matrix = rows_fixture(rows)
        by_kind = {LOW_CONTEXT: [], HIGH_CONTEXT: []}
        for month in ROW_MONTHS:
            low = low_context_digest("dy", month, model, articles, gold, matrix)
            by_kind[LOW_CONTEXT] += [low] if low is not None else []
            by_kind[HIGH_CONTEXT] += rag_digest("dy", month, model, articles, gold, matrix, None)
        path = tmp_path / "digests.jsonl"
        save_digests(by_kind[LOW_CONTEXT] + by_kind[HIGH_CONTEXT], path)
        loaded = load_digests(path, articles)
        assert {kind: [d for d in loaded if d.kind == kind] for kind in by_kind} == by_kind
        keys = Counter((d.kind, d.dyad_id, d.month) for d in loaded)
        assert sorted(keys.values()) == [1] * 4
        assert {(k[1], k[2]) for k in keys if k[0] == LOW_CONTEXT} == {
            (k[1], k[2]) for k in keys if k[0] == HIGH_CONTEXT
        }

    def test_older_seed_field_ignored(self, tmp_path):
        digest = Digest("dy", parse_month("2021-03"), HIGH_CONTEXT, [snippet(SAVED_ARTICLES["a"])])
        path = tmp_path / "digests.jsonl"
        save_digests([digest], path)
        row = path.read_text().rstrip("\n")
        path.write_text(row[:-1] + ', "seed": 0, "partition": 1}\n')
        assert load_digests(path, SAVED_ARTICLES) == [digest]

    def test_stale_token_total_ignored(self, tmp_path):
        # older files hold a token total; it is not saved, and not checked on load, whatever its value
        digest = Digest("dy", parse_month("2021-03"), HIGH_CONTEXT, [snippet(SAVED_ARTICLES["a"])])
        path = tmp_path / "digests.jsonl"
        save_digests([digest], path)
        row = path.read_text().rstrip("\n")
        assert "total_tokens" not in row
        path.write_text(row[:-1] + ', "total_tokens": 9}\n')
        assert load_digests(path, SAVED_ARTICLES) == [digest]

    def test_older_text_field_ignored(self, tmp_path):
        # older files hold the snippets' text; the snippets now come from the articles
        digest = Digest("dy", parse_month("2021-03"), HIGH_CONTEXT, [snippet(SAVED_ARTICLES["a"])])
        path = tmp_path / "digests.jsonl"
        save_digests([digest], path)
        row = path.read_text().rstrip("\n")
        assert '"text"' not in row
        path.write_text(row[:-1] + ', "text": "not the article text"}\n')
        assert load_digests(path, SAVED_ARTICLES) == [digest]


class TestLoadDigestsErrors:
    def _three(self):
        return [
            Digest("dy", parse_month(f"2021-0{m}"), LOW_CONTEXT, [snippet(SAVED_ARTICLES[f"a{m}"])])
            for m in (1, 2, 3)
        ]

    def test_cut_off_file_names_path_and_line(self, tmp_path):
        path = tmp_path / "digests.jsonl"
        digests = self._three()
        save_digests(digests, path)
        data = path.read_bytes()
        last_row = data.rindex(b"\n", 0, len(data) - 1) + 1
        for cut in range(last_row, len(data)):
            path.write_bytes(data[:cut])
            if cut == last_row:
                assert load_digests(path, SAVED_ARTICLES) == digests[:2]
            elif cut == len(data) - 1:  # only the final newline is gone
                assert load_digests(path, SAVED_ARTICLES) == digests
            else:
                with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: ")):
                    load_digests(path, SAVED_ARTICLES)

    def test_snippet_id_with_no_article_names_path_line_and_id(self, tmp_path):
        path = tmp_path / "digests.jsonl"
        save_digests(self._three(), path)
        articles = {aid: a for aid, a in SAVED_ARTICLES.items() if aid != "a2"}
        with pytest.raises(ValueError, match=re.escape(
            f"{path}, line 2: snippet id 'a2' has no article"
        )):
            load_digests(path, articles)

    def test_second_row_for_a_kind_dyad_month_names_path_and_lines(self, tmp_path):
        path = tmp_path / "digests.jsonl"
        digests = self._three()
        save_digests(digests + [replace(digests[1], kind=HIGH_CONTEXT)], path)
        # the other kind's digest of a month is no repeat
        assert len(load_digests(path, SAVED_ARTICLES)) == 4
        save_digests(digests, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + [lines[1].replace('"a2"', '"a1"')]))
        with pytest.raises(ValueError, match=re.escape(
            f"{path}, line 4: second row for low_context digest of dyad dy, month 2021-02 "
            "(first at line 2)"
        )):
            load_digests(path, SAVED_ARTICLES)

    def test_saving_a_second_digest_for_a_kind_dyad_month_raises_and_keeps_the_file(
        self, tmp_path
    ):
        path = tmp_path / "digests.jsonl"
        digests = self._three()
        save_digests(digests, path)
        old = path.read_bytes()
        with pytest.raises(ValueError, match=re.escape(
            f"{path}: two records for low_context digest of dyad dy, month 2021-02"
        )):
            save_digests(digests + [replace(digests[1], snippets=[Snippet("a9", "w", 1)])], path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["digests.jsonl"]

    def test_missing_field_names_path_and_line(self, tmp_path):
        path = tmp_path / "digests.jsonl"
        save_digests(self._three(), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace('"kind"', '"kinds"')
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 2: missing field 'kind'")):
            load_digests(path, SAVED_ARTICLES)

    @pytest.mark.parametrize(
        "field, value",
        [("snippet_ids", ["a2", "a9"]), ("month", 202102), ("snippet_ids", "a"), ("snippet_ids", [2]),
         ("dyad_id", 7), ("kind", ["x"])],
    )
    def test_row_at_odds_with_itself_names_path_and_line(self, tmp_path, field, value):
        # an id with no article, or a field not of its JSON type (the string "a" is not the ids ["a"], 7 not a dyad id)
        path = tmp_path / "digests.jsonl"
        save_digests(self._three(), path)
        lines = path.read_text().splitlines(keepends=True)
        row = json.loads(lines[1])
        row[field] = value
        lines[1] = json.dumps(row) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 2: ")):
            load_digests(path, SAVED_ARTICLES)
