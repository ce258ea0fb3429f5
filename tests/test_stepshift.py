import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize

from nexus import stepshift
from nexus.digests import Digest, Snippet
from nexus.evaluation import ForecastRecord
from nexus.ingest import EmbeddingMatrix
from nexus.months import parse_month
from nexus.stepshift import (
    L2,
    SoftmaxModel,
    TrainConfig,
    TrainingCollapseError,
    TrainingPair,
    build_dataset,
    class_weights,
    load_model,
    loss_and_grad,
    pool_embedding,
    predict,
    run_steps,
    save_model,
    train_softmax,
)


def digest_of(dyad, month_text, member_ids, kind="low_context"):
    snippets = [Snippet(aid, f"text {aid}", 2) for aid in member_ids]
    return Digest(dyad_id=dyad, month=parse_month(month_text), kind=kind, snippets=snippets)


class TestPoolEmbedding:
    def test_single_member_normalized(self):
        matrix = EmbeddingMatrix(ids=["a"], vectors=np.array([[3.0, 4.0]], dtype=np.float32))
        pooled = pool_embedding(digest_of("d", "2021-01", ["a"]), matrix)
        assert np.allclose(pooled, [0.6, 0.8])

    def test_opposite_vectors_rejected(self):
        matrix = EmbeddingMatrix(
            ids=["a", "b"], vectors=np.array([[1.0, 0.0], [-1.0, 0.0]], dtype=np.float32)
        )
        with pytest.raises(ValueError, match="^digest d/2021-01 pools to a zero vector$"):
            pool_embedding(digest_of("d", "2021-01", ["a", "b"]), matrix)

    def test_hand_mean(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        matrix = EmbeddingMatrix(
            ids=["a", "b", "c"],
            vectors=np.array([e1, e1, e2], dtype=np.float32),
        )
        pooled = pool_embedding(digest_of("d", "2021-01", ["a", "b", "c"]), matrix)
        expected = (2 * e1 + e2) / 3
        expected /= np.linalg.norm(expected)
        assert np.allclose(pooled, expected, atol=1e-6)

    def test_no_members_error(self):
        matrix = EmbeddingMatrix(ids=["z"], vectors=np.ones((1, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="^digest d/2021-01 has no member embeddings$"):
            pool_embedding(digest_of("d", "2021-01", ["missing"]), matrix)


def label_table(dyad, month_states):
    return {dyad: {parse_month(m): s for m, s in month_states.items()}}


def monthly_digests(dyad, months_text, matrix_ids):
    return [digest_of(dyad, m, matrix_ids) for m in months_text]


MATRIX = EmbeddingMatrix(ids=["a"], vectors=np.array([[1.0, 0.0]], dtype=np.float32))


class TestBuildDataset:
    def setup_method(self):
        self.months_text = [f"2021-{mm:02d}" for mm in range(1, 13)] + [
            f"2022-{mm:02d}" for mm in range(1, 7)
        ]
        self.labels = {
            "d": {
                parse_month(m): (i % 4)
                for i, m in enumerate(self.months_text)
            }
        }
        self.digests = monthly_digests("d", self.months_text, ["a"])
        self.pooled = {(d.dyad_id, d.month): pool_embedding(d, MATRIX) for d in self.digests}
        self.train_end = parse_month("2021-12")
        self.test_start = parse_month("2022-01")
        self.val_end = parse_month("2022-06")

    def _build(self, step):
        return build_dataset(
            self.pooled,
            self.labels,
            self.labels,
            step,
            self.train_end,
            self.test_start,
            self.val_end,
        )

    def test_step_zero_targets_own_month(self):
        train, test, _ = self._build(0)
        for p in train + test:
            assert p.target_month == p.digest_month

    def test_step_three_arithmetic(self):
        train, _, _ = self._build(3)
        by_month = {p.digest_month: p for p in train}
        june = parse_month("2021-06")
        assert by_month[june].target_month == parse_month("2021-09")

    def test_step_six_boundary(self):
        train, _, _ = self._build(6)
        assert max(p.digest_month for p in train) == parse_month("2021-06")

    def test_no_train_target_beyond_train_end(self):
        for step in (0, 1, 3, 6):
            train, _, _ = self._build(step)
            assert all(p.target_month <= self.train_end for p in train)

    def test_test_pairs_respect_bounds(self):
        _, test, _ = self._build(3)
        assert all(p.digest_month >= self.test_start for p in test)
        assert all(p.target_month <= self.val_end for p in test)

    @pytest.mark.parametrize("step", [-1, -3])
    def test_negative_step_rejected(self, step):
        with pytest.raises(ValueError, match=f"step must be non-negative: {step}$"):
            self._build(step)

    def test_missing_labels_dropped_with_count(self):
        labels = {"d": {parse_month("2021-02"): 1}}
        train, test, dropped = build_dataset(
            self.pooled,
            labels,
            labels,
            0,
            self.train_end,
            self.test_start,
            self.val_end,
        )
        assert len(train) == 1
        assert dropped == len(self.digests) - 1 - len(test)


class TestClassWeights:
    def test_balanced_weights_are_one(self):
        assert np.allclose(class_weights([0, 1, 2, 3] * 10), 1.0)

    def test_formula_fixture(self):
        targets = [0] * 100 + [1] * 50 + [2] * 25 + [3] * 25
        assert np.allclose(class_weights(targets), [0.5, 1.0, 2.0, 2.0])

    def test_absent_class_zero(self):
        weights = class_weights([0, 0, 1, 1])
        assert weights[2] == 0.0 and weights[3] == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            class_weights([2, 2, 2])


def separable_pairs(n=40, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        cls = i % 2
        center = np.array([3.0, 0.0]) if cls == 0 else np.array([-3.0, 0.0])
        pairs.append(
            TrainingPair(
                dyad_id="d",
                digest_month=0,
                target_month=0,
                features=center + rng.normal(size=2) * 0.1,
                target=cls,
            )
        )
    return pairs


def random_fixture(seed, n, dim):
    """Gaussian features with targets cycling through the four classes."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, dim)), np.arange(n) % 4


def pairs_of(features, targets):
    return [
        TrainingPair("d", 0, 0, x, int(t))
        for x, t in zip(features, targets)
    ]


def softmax_hessian(W, features, targets, cw):
    """Hessian of the training objective in the row-major flattening of W."""
    x = np.hstack([features, np.ones((len(features), 1))])
    logits = x @ W.T
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    cov = np.einsum("ia,ab->iab", p, np.eye(4)) - np.einsum("ia,ib->iab", p, p)
    h = np.einsum("i,iab,ij,ik->ajbk", cw[targets] / len(targets), cov, x, x)
    return h.reshape(W.size, W.size) + 2.0 * L2 * np.eye(W.size)


class TestTrainSoftmax:
    def test_separable_data_fits_perfectly(self):
        pairs = separable_pairs()
        model = train_softmax(pairs, TrainConfig(epochs=500))
        correct = sum(
            int(np.argmax(predict(model, p.features))) == p.target for p in pairs
        )
        assert correct == len(pairs)

    def test_negative_epochs_rejected(self):
        for epochs in (0, -1):
            with pytest.raises(ValueError, match=f"epochs must be at least 1: {epochs}$"):
                TrainConfig(epochs=epochs)

    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(30, 3))
        targets = rng.integers(0, 4, size=30)
        cw = class_weights(targets)
        for _ in range(10):
            W = rng.normal(size=(4, 4))
            _, grad = loss_and_grad(W, features, targets, cw, l2=1e-3)
            fd = np.zeros_like(W)
            eps = 1e-5
            for i in range(W.shape[0]):
                for j in range(W.shape[1]):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[i, j] += eps
                    Wm[i, j] -= eps
                    lp, _ = loss_and_grad(Wp, features, targets, cw, 1e-3)
                    lm, _ = loss_and_grad(Wm, features, targets, cw, 1e-3)
                    fd[i, j] = (lp - lm) / (2 * eps)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_collapse_raises_on_non_finite_loss(self, bad, monkeypatch):
        pairs = separable_pairs()
        monkeypatch.setattr(
            stepshift, "class_weights", lambda targets: np.array([bad, 1.0, 0.0, 0.0])
        )
        with pytest.raises(TrainingCollapseError) as excinfo:
            train_softmax(pairs)
        assert excinfo.value.n_iter >= 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_returns_the_minimiser(self, seed):
        # the objective is strictly convex: a zero gradient marks its one minimum
        features, targets = random_fixture(seed, n=160, dim=48)
        model = train_softmax(pairs_of(features, targets))
        _, grad = loss_and_grad(model.weights, features, targets, model.class_weights, L2)
        assert model.converged
        assert 0 < model.n_iter < TrainConfig().epochs
        assert np.abs(grad).max() < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_final_loss_matches_newton_oracle(self, seed):
        features, targets = random_fixture(seed, n=12, dim=2)
        model = train_softmax(pairs_of(features, targets))
        cw, shape = model.class_weights, model.weights.shape

        def loss(flat):
            return loss_and_grad(flat.reshape(shape), features, targets, cw, L2)[0]

        def grad(flat):
            return loss_and_grad(flat.reshape(shape), features, targets, cw, L2)[1].ravel()

        oracle = minimize(
            loss, np.zeros(model.weights.size), jac=grad,
            hess=lambda flat: softmax_hessian(flat.reshape(shape), features, targets, cw),
            method="trust-exact", options={"gtol": 1e-10},
        )
        assert np.abs(oracle.jac).max() < 1e-9  # "success" can be False at this precision
        assert oracle.fun - 1e-12 <= model.final_loss <= oracle.fun + 1e-7

    def test_equal_weights_match_unweighted_loss(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(20, 3))
        targets = rng.integers(0, 4, size=20)
        W = rng.normal(size=(4, 4))
        weighted, _ = loss_and_grad(W, features, targets, np.ones(4), l2=0.0)
        n = len(targets)
        probs = np.exp(W @ np.hstack([features, np.ones((n, 1))]).T).T
        probs /= probs.sum(axis=1, keepdims=True)
        unweighted = -np.mean(np.log(probs[np.arange(n), targets]))
        assert abs(weighted - unweighted) < 1e-12

    def test_doubling_weights_keeps_decisions(self, monkeypatch):
        pairs = separable_pairs()
        m1 = train_softmax(pairs, TrainConfig(epochs=300))
        monkeypatch.setattr(stepshift, "class_weights", lambda targets: 2 * class_weights(targets))
        m2 = train_softmax(pairs, TrainConfig(epochs=300))
        for p in pairs:
            assert np.argmax(predict(m1, p.features)) == np.argmax(predict(m2, p.features))


class TestPredict:
    def test_zero_weights_uniform(self):
        model = SoftmaxModel(np.zeros((4, 3)), np.ones(4), TrainConfig())
        assert np.allclose(predict(model, [1.0, -2.0]), 0.25)

    def test_dominant_row_wins(self):
        W = np.zeros((4, 3))
        W[2, 0] = 10.0  # strong weight on feature 0 for class 2
        model = SoftmaxModel(W, np.ones(4), TrainConfig())
        assert int(np.argmax(predict(model, [1.0, 0.0]))) == 2

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    def test_probabilities_sum_to_one(self, feats):
        rng = np.random.default_rng(3)
        model = SoftmaxModel(rng.normal(size=(4, 4)), np.ones(4), TrainConfig())
        probs = predict(model, feats)
        assert abs(float(probs.sum()) - 1.0) < 1e-9
        assert np.all(probs > 0)

    def test_shift_invariance_full_distribution(self):
        rng = np.random.default_rng(4)
        W = rng.normal(size=(4, 5))
        shift = rng.normal(size=5)
        m1 = SoftmaxModel(W, np.ones(4), TrainConfig())
        m2 = SoftmaxModel(W + shift[None, :], np.ones(4), TrainConfig())
        for _ in range(20):
            x = rng.normal(size=4)
            p1, p2 = predict(m1, x), predict(m2, x)
            assert np.allclose(p1, p2, atol=1e-12)
            assert np.argmax(p1) == np.argmax(p2)

    def test_dimension_mismatch(self):
        model = SoftmaxModel(np.zeros((4, 3)), np.ones(4), TrainConfig())
        with pytest.raises(ValueError):
            predict(model, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            predict(model, np.ones((5, 3)))

    def test_matrix_rows_match_single_vectors(self):
        rng = np.random.default_rng(5)
        model = SoftmaxModel(rng.normal(size=(4, 4)), np.ones(4), TrainConfig())
        features = rng.normal(size=(7, 3))
        probs = predict(model, features)
        assert probs.shape == (7, 4)
        for x, row in zip(features, probs):
            assert np.allclose(predict(model, x), row, rtol=0, atol=1e-15)


def two_kind_fixture(seed=0):
    """Identical month coverage for both kinds, class-coded embeddings."""
    rng = np.random.default_rng(seed)
    months_text = [f"2021-{mm:02d}" for mm in range(1, 13)] + [
        f"2022-{mm:02d}" for mm in range(1, 7)
    ]
    states = {parse_month(m): i % 4 for i, m in enumerate(months_text)}
    ids, vectors = [], []
    digests = {"low_context": [], "high_context": []}
    for kind in digests:
        for m in months_text:
            idx = parse_month(m)
            aid = f"{kind}_{m}"
            center = np.zeros(6)
            center[states[idx]] = 3.0
            ids.append(aid)
            vectors.append(center + rng.normal(size=6) * 0.1)
            digests[kind].append(digest_of("d", m, [aid], kind=kind))
    matrix = EmbeddingMatrix(ids=ids, vectors=np.asarray(vectors, dtype=np.float32))
    labels = {"d": states}
    return digests, labels, matrix


class TestRunSteps:
    def test_model_count(self):
        digests, labels, matrix = two_kind_fixture()
        out = run_steps(
            {"low_context": digests["low_context"]},
            labels,
            labels,
            matrix,
            parse_month("2021-12"),
            parse_month("2022-01"),
            parse_month("2022-06"),
            steps=(0, 1),
            config=TrainConfig(epochs=50),
        )
        assert set(out) == {(0, "low_context"), (1, "low_context")}

    def test_deterministic(self):
        digests, labels, matrix = two_kind_fixture()
        kwargs = dict(
            labels_train=labels,
            labels_val=labels,
            embeddings=matrix,
            train_end=parse_month("2021-12"),
            test_start=parse_month("2022-01"),
            val_end=parse_month("2022-06"),
            steps=(1,),
            config=TrainConfig(epochs=50),
        )
        a = run_steps(digests, **kwargs)
        b = run_steps(digests, **kwargs)
        for key in a:
            assert a[key][1] == b[key][1]

    def test_records_equal_hand_built_ones(self):
        digests, labels, matrix = two_kind_fixture()
        window = (parse_month("2021-12"), parse_month("2022-01"), parse_month("2022-06"))
        config = TrainConfig(epochs=50)
        out = run_steps(digests, labels, labels, matrix, *window, steps=(0, 1), config=config)
        assert set(out) == {(s, k) for s in (0, 1) for k in ("high_context", "low_context")}
        for (step, kind), (model, records) in out.items():
            pooled = {(d.dyad_id, d.month): pool_embedding(d, matrix) for d in digests[kind]}
            train, test, _ = build_dataset(pooled, labels, labels, step, *window)
            expected = train_softmax(train, config)
            probs = predict(expected, np.stack([p.features for p in test]))
            assert (model.step, model.kind) == (step, kind)
            assert np.array_equal(model.weights, expected.weights)
            assert test and records == [
                ForecastRecord(dyad_id=p.dyad_id, month=p.target_month, step=step,
                               probabilities=tuple(row.tolist()), actual=p.target,
                               source="model", kind=kind)
                for p, row in zip(test, probs)
            ]
            assert all(r.month == r.step + p.digest_month for r, p in zip(records, test))

    # Step 3 pairs 2021-01..09 and 2022-01..03 only; every digest is pooled all the same.
    @pytest.mark.parametrize("steps", [(0, 1, 3), (3,)])
    def test_pools_every_digest_once_per_call(self, monkeypatch, steps):
        digests, labels, matrix = two_kind_fixture()
        pooled, pool = [], stepshift.pool_embedding

        def counted(digest, embeddings):
            pooled.append(digest)
            return pool(digest, embeddings)

        monkeypatch.setattr(stepshift, "pool_embedding", counted)
        window = (parse_month("2021-12"), parse_month("2022-01"), parse_month("2022-06"))
        run_steps(digests, labels, labels, matrix, *window, steps=steps,
                  config=TrainConfig(epochs=50))
        assert sorted((d.kind, d.month) for d in pooled) == sorted(
            (d.kind, d.month) for kind in digests for d in digests[kind])

    def test_unpaired_digest_without_embeddings_raises(self):
        digests, labels, matrix = two_kind_fixture()
        june = parse_month("2022-06")  # step 3 pairs it with nothing
        digests["low_context"] = [digest_of("d", "2022-06", ["missing"]) if d.month == june else d
                                  for d in digests["low_context"]]
        window = (parse_month("2021-12"), parse_month("2022-01"), parse_month("2022-06"))
        with pytest.raises(ValueError, match="^digest d/2022-06 has no member embeddings$"):
            run_steps(digests, labels, labels, matrix, *window, steps=(3,),
                      config=TrainConfig(epochs=50))

    def test_repeated_dyad_month_raises(self):
        digests, labels, matrix = two_kind_fixture()
        digests["low_context"].append(digest_of("d", "2021-03", ["low_context_2021-04"]))
        window = (parse_month("2021-12"), parse_month("2022-01"), parse_month("2022-06"))
        with pytest.raises(ValueError, match="^two low_context digests for d/2021-03$"):
            run_steps(digests, labels, labels, matrix, *window, steps=(0,),
                      config=TrainConfig(epochs=50))

    def test_unequal_test_keys_across_kinds_raise(self):
        digests, labels, matrix = two_kind_fixture()
        # one kind lacks a test month the other kind has
        digests["high_context"] = [
            d for d in digests["high_context"] if d.month != parse_month("2022-03")
        ]
        with pytest.raises(ValueError, match="step 0: the digest kinds' test"):
            run_steps(
                digests,
                labels,
                labels,
                matrix,
                parse_month("2021-12"),
                parse_month("2022-01"),
                parse_month("2022-06"),
                steps=(0,),
                config=TrainConfig(epochs=50),
            )


class TestModelRoundTrip:
    def test_save_load(self, tmp_path):
        pairs = separable_pairs()
        model = train_softmax(pairs, TrainConfig(epochs=100))
        model.step, model.kind = 1, "low_context"
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.allclose(loaded.weights, model.weights)
        assert np.allclose(loaded.class_weights, model.class_weights)
        assert loaded.config == model.config
        assert loaded.final_loss == model.final_loss
        assert loaded.n_iter == model.n_iter > 0
        assert loaded.converged is model.converged is True
        assert loaded.step == 1 and loaded.kind == "low_context"

    @pytest.mark.parametrize("field,value,error", [
        ("weights", [[0.0, 0.0, 0.0]] * 3, "weights must be shaped (4, D + 1)"),
        ("weights", [[0.0]] * 4, "weights must be shaped (4, D + 1)"),
        ("weights", [[0.0, 0.0, math.nan]] * 4, "weights must be finite"),
        ("class_weights", [1.0, 1.0, 1.0], "class_weights must have 4 entries"),
        ("converged", "false", "converged is not a bool: 'false'"),
        ("converged", 1, "converged is not a bool: 1"),
        ("step", "1", "step is not an int: '1'"),
        ("kind", 3, "kind is not a str: 3"),
        ("kind", "mid_context", "kind is not low_context, high_context or None: 'mid_context'"),
        ("kind", "", "kind is not low_context, high_context or None: ''"),
        ("config", {"epochs": True}, "epochs is not an int: True"),
        ("n_iter", 2.5, "n_iter is not an int: 2.5"),
        ("weights", [[0.0, 0.0, "0.1"]] * 4, "weights is not a float: '0.1'"),
        ("weights", [[0.0, 0.0, True]] * 4, "weights is not a float: True"),
        ("weights", [0.0] * 4, "weights is not a list of lists"),
        ("class_weights", [1.0, 1.0, 1.0, True], "class_weights is not a float: True"),
        ("config", [5], "config is not a dict: [5]"),
        ("n_iter", -5, "n_iter must be non-negative: -5"),
        ("step", -1, "step must be non-negative: -1"),
    ])
    def test_malformed_model_file_names_it(self, tmp_path, field, value, error):
        path = tmp_path / "model.json"
        save_model(SoftmaxModel(np.zeros((4, 3)), np.ones(4), TrainConfig()), path)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {error}")):
            load_model(path)
