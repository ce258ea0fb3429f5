import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nexus.hnsw import HnswConfig, HnswIndex, build_index, normalize


def random_unit(rng, n, d):
    v = rng.normal(size=(n, d)).astype(np.float32)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def small_index():
    rng = np.random.default_rng(3)
    data = random_unit(rng, 1000, 32)
    ids = [f"a{i:04d}" for i in range(1000)]
    return build_index(ids, data, HnswConfig(seed=11)), ids, data


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


class TestInsert:
    def test_first_insert_becomes_entry(self):
        index = HnswIndex(8, HnswConfig(seed=0))
        index.insert("x", np.ones(8))
        assert len(index) == 1
        assert index.search(np.ones(8), 1) == [("x", pytest.approx(1.0, abs=1e-6))]

    def test_self_retrieval(self):
        rng = np.random.default_rng(2)
        index = HnswIndex(16, HnswConfig(seed=0))
        data = random_unit(rng, 50, 16)
        for i, v in enumerate(data):
            index.insert(f"v{i}", v)
        hit = index.search(data[17], 1)[0]
        assert hit[0] == "v17"
        assert hit[1] == pytest.approx(1.0, abs=1e-6)

    def test_zero_vector_error(self):
        index = HnswIndex(4)
        with pytest.raises(ValueError):
            index.insert("z", np.zeros(4))

    def test_dimension_mismatch(self):
        index = HnswIndex(4)
        with pytest.raises(ValueError):
            index.insert("z", np.ones(5))

    def test_duplicate_id_replaces_vector(self, caplog):
        index = HnswIndex(4, HnswConfig(seed=0))
        index.insert("a", [1.0, 0.0, 0.0, 0.0])
        index.insert("b", [0.0, 1.0, 0.0, 0.0])
        with caplog.at_level("WARNING"):
            index.insert("a", [0.0, 0.0, 1.0, 0.0])
        assert "duplicate" in caplog.text
        assert len(index) == 2
        assert np.allclose(index.vectors[index.ids.index("a")], [0.0, 0.0, 1.0, 0.0])


class TestSearch:
    def test_k_equal_to_size_returns_everything(self, small_index):
        index, ids, data = small_index
        out = index.search(data[0], k=len(ids))
        assert len(out) == len(ids)
        assert {aid for aid, _ in out} == set(ids)

    def test_oversized_k_returns_all(self):
        index = HnswIndex(8, HnswConfig(seed=0))
        rng = np.random.default_rng(4)
        for i, v in enumerate(random_unit(rng, 5, 8)):
            index.insert(f"v{i}", v)
        assert len(index.search(random_unit(rng, 1, 8)[0], k=50)) == 5

    def test_results_sorted_unique_subset(self, small_index):
        index, ids, data = small_index
        rng = np.random.default_rng(5)
        known = set(ids)
        for q in random_unit(rng, 20, 32):
            out = index.search(q, 10)
            sims = [s for _, s in out]
            assert sims == sorted(sims, reverse=True)
            found = [a for a, _ in out]
            assert len(set(found)) == len(found)
            assert set(found) <= known

    def test_empty_index_error(self):
        with pytest.raises(ValueError):
            HnswIndex(4).search(np.ones(4), 1)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        data = random_unit(rng, 300, 16)
        ids = [f"v{i}" for i in range(300)]
        queries = random_unit(rng, 10, 16)
        a = build_index(ids, data, HnswConfig(seed=21))
        b = build_index(ids, data, HnswConfig(seed=21))
        for q in queries:
            assert a.search(q, 5) == b.search(q, 5)

    def test_allowed_filter_restricts_results(self, small_index):
        index, ids, data = small_index
        allowed = set(ids[:100])
        out = index.search(data[3], 10, allowed=allowed)
        assert {aid for aid, _ in out} <= allowed


class TestBruteForce:
    def test_singleton(self):
        index = HnswIndex(4, HnswConfig(seed=0))
        index.insert("only", [1.0, 0.0, 0.0, 0.0])
        assert index.brute_force_search([1.0, 0.0, 0.0, 0.0], 1)[0][0] == "only"

    def test_orthogonal_pair(self):
        index = HnswIndex(2, HnswConfig(seed=0))
        index.insert("x", [1.0, 0.0])
        index.insert("y", [0.0, 1.0])
        out = index.brute_force_search([1.0, 0.0], 2)
        assert out[0] == ("x", pytest.approx(1.0, abs=1e-6))
        assert out[1] == ("y", pytest.approx(0.0, abs=1e-6))

    def test_tie_broken_by_ascending_id(self):
        index = HnswIndex(2, HnswConfig(seed=0))
        index.insert("b", [1.0, 0.0])
        index.insert("a", [1.0, 0.0])
        out = index.brute_force_search([1.0, 0.0], 2)
        assert [aid for aid, _ in out] == ["a", "b"]

    def test_insertion_order_invariance(self):
        rng = np.random.default_rng(7)
        data = random_unit(rng, 40, 8)
        ids = [f"v{i}" for i in range(40)]
        fwd = HnswIndex(8, HnswConfig(seed=0))
        rev = HnswIndex(8, HnswConfig(seed=0))
        for aid, v in zip(ids, data):
            fwd.insert(aid, v)
        for aid, v in zip(reversed(ids), data[::-1]):
            rev.insert(aid, v)
        q = random_unit(rng, 1, 8)[0]
        assert fwd.brute_force_search(q, 7) == rev.brute_force_search(q, 7)


def brute_force_reference(index, query, k, allowed=None):
    """The exact full scan that was the graph index's oracle, as a plain loop."""
    sims = (index.vectors @ normalize(query)).astype(float)
    ranked = []
    for aid, sim in zip(index.ids, sims.tolist()):
        if allowed is None or aid in allowed:
            ranked.append((aid, sim))
    ranked.sort(key=lambda pair: (-pair[1], pair[0]))
    return ranked[:k]


# vectors on a coarse integer grid, so that many similarities tie exactly
grid_vectors = st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(any)


class TestExactSearch:
    @settings(max_examples=300, deadline=None)
    @given(
        vectors=st.lists(grid_vectors, min_size=1, max_size=24),
        query=grid_vectors,
        data=st.data(),
    )
    def test_search_equals_reference(self, vectors, query, data):
        n = len(vectors)
        # ids in shuffled order, so ascending id differs from insertion order
        ids = data.draw(st.permutations([f"v{i:02d}" for i in range(n)]))
        index = build_index(ids, np.array(vectors, dtype=np.float32))
        k = data.draw(st.integers(1, n + 1))
        allowed = data.draw(
            st.none() | st.sets(st.sampled_from(ids + ["not-indexed"]))
        )
        assert index.search(query, k, allowed=allowed) == brute_force_reference(
            index, query, k, allowed
        )


class TestPersistence:
    def test_round_trip_answers_identically(self, small_index, tmp_path):
        index, ids, data = small_index
        path = tmp_path / "index.hnsw"
        index.save(path)
        loaded = HnswIndex.load(path)
        assert loaded.ids == index.ids
        assert loaded.dim == index.dim and loaded.config == index.config
        assert np.array_equal(loaded.vectors, index.vectors)
        rng = np.random.default_rng(10)
        for q in random_unit(rng, 25, 32):
            assert loaded.search(q, 10) == index.search(q, 10)
        for qi in (0, 17, 500):
            assert loaded.search(data[qi], 5) == index.search(data[qi], 5)

    def test_header_fields(self, small_index, tmp_path):
        index, _, _ = small_index
        path = tmp_path / "index.hnsw"
        index.save(path)
        with open(path, "rb") as fh:
            assert fh.read(4) == b"HNSW"
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen))
        for key in ("dim", "count", "seed"):
            assert key in header
        assert header["count"] == 1000

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data, hlen: data[:6],
            lambda data, hlen: data[: 8 + hlen // 2],
            lambda data, hlen: data[: 8 + hlen + 10],
            lambda data, hlen: data[:-3],
            lambda data, hlen: data[:8] + data[8 : 8 + hlen].replace(
                b'"count": 3', b'"count": 2'
            ) + data[8 + hlen :],
        ],
        ids=["length-prefix", "json-header", "matrix", "last-row", "count-mismatch"],
    )
    def test_corrupt_file_names_its_path(self, tmp_path, corrupt):
        index = build_index(["a", "b", "c"], np.eye(3, 4) + 0.5)
        path = tmp_path / "index.hnsw"
        index.save(path)
        data = path.read_bytes()
        (hlen,) = struct.unpack("<I", data[4:8])
        broken = corrupt(data, hlen)
        assert broken != data
        path.write_bytes(broken)
        with pytest.raises(ValueError) as excinfo:
            HnswIndex.load(path)
        assert str(path) in str(excinfo.value)
