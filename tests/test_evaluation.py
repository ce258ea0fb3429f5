import csv
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from nexus.evaluation import (
    ForecastRecord,
    ap_ovr_micro,
    auroc,
    auroc_ovr_micro,
    average_precision,
    binarize,
    bootstrap_ci,
    collapse_to_dyad_month,
    confusion,
    conflictology,
    emit_report,
    load_forecasts_csv,
    micro_metrics,
    per_class_binary_report,
    save_forecasts_csv,
)
from nexus.months import parse_month


def record(actual, probs, dyad="d", month="2022-01", step=1, source="model", kind="low_context"):
    return ForecastRecord(
        dyad_id=dyad,
        month=parse_month(month) if isinstance(month, str) else month,
        step=step,
        probabilities=tuple(probs),
        actual=actual,
        source=source,
        kind=kind,
    )


def onehotish(cls, p=0.85):
    rest = (1.0 - p) / 3.0
    return tuple(p if c == cls else rest for c in range(4))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def auroc_pair_enumeration(scores, labels):
    """Exhaustive positive/negative pair comparison with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p, q in itertools.product(pos, neg):
        if p > q:
            total += 1.0
        elif p == q:
            total += 0.5
    return total / (len(pos) * len(neg))


def auroc_rankdata(scores, labels):
    """`auroc` as it was computed with scipy's tie-averaged ranks, its reference."""
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    rank_sum = float(rankdata(scores)[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def confusion_loop(records):
    """Per-record loop version of `confusion`, the reference for the array version."""
    matrix = np.zeros((4, 4), dtype=int)
    for r in records:
        matrix[r.actual, int(np.argmax(r.probabilities))] += 1
    return matrix


def binarize_loop(records):
    """Per-record loop version of `binarize`."""
    scores = np.array([p for r in records for p in r.probabilities], dtype=float)
    labels = np.array([1 if r.actual == c else 0 for r in records for c in range(4)], dtype=int)
    return scores, labels


def average_precision_loop(scores, labels):
    """Tie-group walk with a running total, the reference for `average_precision`."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    ap, seen, tp, i = 0.0, 0, 0, 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        group_pos = int(y[i:j].sum())
        seen += j - i
        tp += group_pos
        if group_pos:
            ap += group_pos * (tp / seen)
        i = j
    return ap / n_pos


# Probabilities on a grid of eighths (exact in binary, summing exactly to 1),
# so scores tie heavily within and across records.
eighths = st.lists(st.integers(0, 8), min_size=3, max_size=3).map(sorted).map(
    lambda cuts: tuple((b - a) / 8 for a, b in zip([0, *cuts], [*cuts, 8]))
)
tied_records = st.lists(st.tuples(st.integers(0, 3), eighths), min_size=1, max_size=60).map(
    lambda rows: [record(actual, probs, month=24000 + i) for i, (actual, probs) in enumerate(rows)]
)


class TestForecastRecord:
    def test_rejects_bad_probability_sum(self):
        with pytest.raises(ValueError):
            record(1, (0.5, 0.5, 0.5, 0.5))

    def test_rejects_bad_actual(self):
        with pytest.raises(ValueError):
            record(7, (0.25, 0.25, 0.25, 0.25))

    def test_rejects_nan_probability(self):
        # every comparison with nan is False, so the sum and range checks pass it
        with pytest.raises(ValueError, match="finite"):
            record(1, (math.nan, 0.5, 0.25, 0.25))


class TestConflictology:
    def _history(self, states, end="2021-12"):
        end_idx = parse_month(end)
        return {end_idx - len(states) + 1 + i: s for i, s in enumerate(states)}

    def test_degenerate_window(self):
        history = self._history([1] * 12)
        probs = conflictology(history, step=0, horizon=parse_month("2022-01"))
        assert np.allclose(probs, [0.0, 1.0, 0.0, 0.0])

    def test_half_and_half_converges(self):
        history = self._history([1] * 6 + [2] * 6)
        n_boot = 4000
        probs = conflictology(
            history, step=0, horizon=parse_month("2022-01"), n_boot=n_boot, seed=3
        )
        bound = 3.0 / np.sqrt(12 * n_boot)
        assert abs(probs[1] - 0.5) <= bound
        assert abs(probs[2] - 0.5) <= bound

    def test_contamination_shift(self):
        # horizon 2022-03 with step 3: window must end 2021-11
        history = {parse_month("2021-11"): 3}
        probs = conflictology(
            history, step=3, horizon=parse_month("2022-03"), window=1, n_boot=10
        )
        assert probs[3] == 1.0
        with pytest.raises(ValueError):
            conflictology(
                {parse_month("2021-12"): 1},
                step=3,
                horizon=parse_month("2022-03"),
                window=1,
            )

    def test_short_history_degrades(self, caplog):
        history = self._history([2, 2])
        with caplog.at_level("WARNING"):
            probs = conflictology(history, step=0, horizon=parse_month("2022-01"))
        assert probs[2] == 1.0

    def test_convergence_bound_on_random_histories(self):
        rng = np.random.default_rng(7)
        n_boot, window = 1000, 12
        for trial in range(100):
            states = rng.integers(0, 4, size=window)
            history = self._history(list(states))
            probs = conflictology(
                history,
                step=0,
                horizon=parse_month("2022-01"),
                n_boot=n_boot,
                seed=trial,
            )
            freqs = np.bincount(states, minlength=4) / window
            for c in range(4):
                bound = 3.0 * np.sqrt(freqs[c] * (1 - freqs[c]) / (window * n_boot))
                assert abs(probs[c] - freqs[c]) <= max(bound, 1e-12)

    def test_exact_frequencies_for_any_n_boot_and_seed(self):
        states = [0, 3, 3, 1, 0, 3, 2, 3, 1, 3, 0, 3]
        history = self._history(states)
        freqs = np.bincount(states, minlength=4) / len(states)
        for n_boot, seed in ((1, 0), (7, 5), (1000, 123)):
            probs = conflictology(
                history, step=0, horizon=parse_month("2022-01"), n_boot=n_boot, seed=seed
            )
            assert np.array_equal(probs, freqs)


class TestConfusion:
    def test_perfect_is_diagonal(self):
        records = [record(c, onehotish(c)) for c in range(4)]
        assert np.array_equal(confusion(records), np.eye(4, dtype=int))

    def test_hand_fixture(self):
        truths = [1, 1, 2, 3]
        preds = [1, 2, 2, 3]
        records = [record(t, onehotish(p)) for t, p in zip(truths, preds)]
        matrix = confusion(records)
        assert int(np.trace(matrix)) == 3
        assert matrix[1, 2] == 1

    def test_tie_goes_to_lowest_class(self):
        records = [record(3, (0.25, 0.25, 0.25, 0.25))]
        matrix = confusion(records)
        assert matrix[3, 0] == 1


class TestMicroMetrics:
    def test_diagonal_is_perfect(self):
        assert micro_metrics(np.diag([5, 2, 9, 1]))["f1"] == 1.0

    def test_hand_fixture_is_075(self):
        truths = [1, 1, 2, 3]
        preds = [1, 2, 2, 3]
        records = [record(t, onehotish(p)) for t, p in zip(truths, preds)]
        metrics = micro_metrics(confusion(records))
        assert metrics == {"recall": 0.75, "precision": 0.75, "f1": 0.75}

    def test_all_wrong_is_zero(self):
        records = [record(0, onehotish(1)), record(1, onehotish(2))]
        metrics = micro_metrics(confusion(records))
        assert metrics["recall"] == 0.0

    def test_accuracy_identity_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            matrix = rng.integers(0, 30, size=(4, 4))
            if matrix.sum() == 0:
                continue
            metrics = micro_metrics(matrix)
            accuracy = np.trace(matrix) / matrix.sum()
            assert metrics["recall"] == pytest.approx(accuracy, abs=1e-15)
            assert metrics["precision"] == pytest.approx(accuracy, abs=1e-15)
            assert metrics["f1"] == pytest.approx(accuracy, abs=1e-12)


class TestAveragePrecision:
    def test_spec_fixture(self):
        ap = average_precision(np.array([0.9, 0.8, 0.7]), np.array([1, 0, 1]))
        assert ap == pytest.approx(0.8333333333333333, abs=1e-9)

    def test_perfect_ranking(self):
        assert average_precision(np.array([0.9, 0.8, 0.1]), np.array([1, 1, 0])) == 1.0

    def test_all_tied_scores_equal_prevalence(self):
        labels = np.array([1, 0, 0, 1, 0])
        assert average_precision(np.full(5, 0.5), labels) == pytest.approx(0.4)

    def test_random_scores_converge_to_prevalence(self):
        rng = np.random.default_rng(13)
        n, prevalence = 30_000, 0.3
        labels = (rng.random(n) < prevalence).astype(int)
        scores = rng.random(n)
        ap = average_precision(scores, labels)
        assert abs(ap - labels.mean()) < 0.015

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            average_precision(np.array([0.5]), np.array([0]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(17)
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        if labels.sum() == 0:
            labels[0] = 1
        base = average_precision(scores, labels)
        assert average_precision(np.exp(4 * scores), labels) == pytest.approx(base, abs=1e-12)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0

    def test_all_ties_half(self):
        assert auroc(np.full(6, 0.4), np.array([1, 0, 1, 0, 0, 1])) == 0.5

    def test_matches_pair_enumeration_on_small_fixtures(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            scores = np.round(rng.random(n), 1)  # coarse grid forces ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            assert auroc(scores, labels) == pytest.approx(
                auroc_pair_enumeration(scores, labels), abs=1e-12
            )

    def test_single_label_rejected(self):
        with pytest.raises(ValueError):
            auroc(np.array([0.5, 0.7]), np.array([1, 1]))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([-1.5, -0.0, 0.0, 0.125, 0.5, 2.0]), st.integers(0, 1)),
            min_size=2,
            max_size=80,
        )
    )
    def test_equals_rankdata_reference_on_ties(self, rows):
        scores = np.array([s for s, _ in rows])
        labels = np.array([y for _, y in rows])
        assume(0 < labels.sum() < len(labels))
        assert auroc(scores, labels) == auroc_rankdata(scores, labels)

    @settings(max_examples=200, deadline=None)
    @given(tied_records)
    def test_micro_equals_rankdata_reference(self, records):
        assume(len({r.actual for r in records}) > 1)
        assert auroc_ovr_micro(records) == auroc_rankdata(*binarize_loop(records))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(23)
        scores = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        base = auroc(scores, labels)
        assert auroc(10 + 3 * scores, labels) == pytest.approx(base, abs=1e-12)


class TestMicroPooling:
    def test_binarize_shape(self):
        records = [record(1, onehotish(1)), record(2, onehotish(0))]
        scores, labels = binarize(records)
        assert len(scores) == 8
        assert labels.sum() == 2

    def test_per_class_equals_pooled_on_single_class_slice(self):
        rng = np.random.default_rng(29)
        records = []
        for _ in range(30):
            actual = int(rng.integers(0, 2))
            records.append(record(actual, onehotish(int(rng.integers(0, 4)))))
        report = per_class_binary_report(records, 1)
        scores = np.array([r.probabilities[1] for r in records])
        labels = np.array([int(r.actual == 1) for r in records])
        assert report["ap"] == pytest.approx(average_precision(scores, labels))
        assert report["auroc"] == pytest.approx(auroc(scores, labels))

    def test_planted_signal_beats_permuted_labels(self):
        rng = np.random.default_rng(31)
        records, permuted = [], []
        actuals = rng.integers(0, 2, size=200)
        shuffled = rng.permutation(actuals)
        for actual, fake in zip(actuals, shuffled):
            probs = np.full(4, 0.1)
            probs[int(actual)] += 0.5 + rng.normal() * 0.05
            probs = np.abs(probs)
            probs /= probs.sum()
            records.append(record(int(actual), tuple(probs)))
            permuted.append(record(int(fake), tuple(probs)))
        assert (
            per_class_binary_report(records, 1)["ap"]
            > per_class_binary_report(permuted, 1)["ap"]
        )


class TestBootstrapCI:
    def test_constant_metric_zero_width(self):
        records = [record(1, onehotish(1))] * 10
        value = bootstrap_ci(records, lambda rs: 42.0, n=100, seed=1)
        assert value.lower == value.upper == value.point == 42.0

    def test_point_within_interval(self):
        rng = np.random.default_rng(37)
        records = [
            record(int(rng.integers(0, 4)), onehotish(int(rng.integers(0, 4))))
            for _ in range(60)
        ]
        value = bootstrap_ci(records, ap_ovr_micro, n=200, seed=2)
        assert value.lower <= value.point <= value.upper

    def test_duplication_leaves_point_unchanged(self):
        rng = np.random.default_rng(41)
        records = [
            record(int(rng.integers(0, 4)), onehotish(int(rng.integers(0, 4))))
            for _ in range(40)
        ]
        acc = lambda rs: micro_metrics(confusion(rs))["recall"]
        single = bootstrap_ci(records, acc, n=50, seed=3)
        doubled = bootstrap_ci(records * 2, acc, n=50, seed=3)
        assert single.point == pytest.approx(doubled.point, abs=1e-15)

    def test_undefined_metric_fraction_errors(self):
        records = [record(0, onehotish(0))] * 5  # single-class pool: AUROC undefined

        with pytest.raises(ValueError):
            bootstrap_ci(records, auroc_ovr_micro, n=50, seed=4)

    def test_undefined_resample_fraction_errors(self):
        # defined on the pool, undefined on the ~1/3 of resamples that miss state 1
        records = [record(0, onehotish(0))] * 4 + [record(1, onehotish(1))]
        assert auroc_ovr_micro(records) == 1.0
        with pytest.raises(ValueError, match="bootstrap resamples"):
            bootstrap_ci(records, auroc_ovr_micro, n=50, seed=4)

    def test_intervals_widen_with_fewer_records(self):
        rng = np.random.default_rng(43)
        big = [
            record(int(rng.integers(0, 4)), onehotish(int(rng.integers(0, 4))))
            for _ in range(1000)
        ]
        widths_big, widths_small = [], []
        acc = lambda rs: micro_metrics(confusion(rs))["recall"]
        for seed in range(5):
            wb = bootstrap_ci(big, acc, n=200, seed=seed)
            ws = bootstrap_ci(big[:100], acc, n=200, seed=seed)
            widths_big.append(wb.upper - wb.lower)
            widths_small.append(ws.upper - ws.lower)
        assert np.mean(widths_small) > np.mean(widths_big)


class TestArrayKernelsMatchLoops:
    """The array kernels give exactly the loop references' results, ties included."""

    @settings(max_examples=300, deadline=None)
    @given(tied_records)
    def test_kernels_equal_references(self, records):
        assert np.array_equal(confusion(records), confusion_loop(records))
        scores, labels = binarize(records)
        ref_scores, ref_labels = binarize_loop(records)
        assert np.array_equal(scores, ref_scores) and scores.dtype == ref_scores.dtype
        assert np.array_equal(labels, ref_labels) and labels.dtype == ref_labels.dtype
        assert average_precision(scores, labels) == average_precision_loop(ref_scores, ref_labels)
        for cls in {r.actual for r in records}:
            cls_scores = np.array([r.probabilities[cls] for r in records])
            cls_labels = np.array([int(r.actual == cls) for r in records])
            if cls_labels.all():
                continue  # binary AUROC undefined
            report = per_class_binary_report(records, cls)
            assert report["ap"] == average_precision_loop(cls_scores, cls_labels)

    def test_bootstrap_equals_reference_bootstrap(self):
        rng = np.random.default_rng(37)
        records = [
            record(int(rng.integers(0, 4)), onehotish(int(rng.integers(0, 4))))
            for _ in range(60)
        ]
        reference = bootstrap_ci(
            records, lambda rs: average_precision_loop(*binarize_loop(rs)), n=200, seed=2
        )
        assert bootstrap_ci(records, ap_ovr_micro, n=200, seed=2) == reference


class TestEmitReport:
    def _records(self, source, kind="low_context", n=24, seed=5):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n):
            dyad = "d1" if i % 2 == 0 else "d2"
            month = parse_month("2022-01") + (i // 2)
            actual = int(rng.integers(0, 4))
            out.append(
                record(actual, onehotish(actual, p=0.7), dyad=dyad, month=month, source=source, kind=kind)
            )
        return out

    def test_identical_sets_identical_metric_rows(self, tmp_path):
        model = self._records("model")
        baseline = [
            ForecastRecord(
                r.dyad_id, r.month, r.step, r.probabilities, r.actual, "baseline", r.kind
            )
            for r in model
        ]
        emit_report(model, baseline, tmp_path, n_boot=50, seed=6)
        with open(tmp_path / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_source = {}
        for row in rows:
            by_source.setdefault(row["source"], []).append(
                (row["metric"], row["point"], row["lo"], row["hi"])
            )
        assert by_source["model"] == by_source["baseline"]

    def test_grid_shape(self, tmp_path):
        model = self._records("model")
        baseline = [
            ForecastRecord(
                r.dyad_id, r.month, r.step, r.probabilities, r.actual, "baseline", r.kind
            )
            for r in model
        ]
        emit_report(model, baseline, tmp_path, n_boot=20, seed=7)
        grids = sorted((tmp_path / "grids").glob("dyad_grid_*.csv"))
        assert len(grids) == 2
        with open(grids[0], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["month", "p0", "p1", "p2", "p3", "actual"]
        assert len(rows) - 1 == 12  # one row per month

    def test_structure_mismatch_rejected(self, tmp_path):
        model = self._records("model")
        baseline = [
            ForecastRecord(
                r.dyad_id, r.month, r.step, r.probabilities, r.actual, "baseline", r.kind
            )
            for r in model[:-1]
        ]
        with pytest.raises(ValueError):
            emit_report(model, baseline, tmp_path)

    def test_probability_rows_sum_to_one(self, tmp_path):
        model = self._records("model")
        baseline = [
            ForecastRecord(
                r.dyad_id, r.month, r.step, r.probabilities, r.actual, "baseline", r.kind
            )
            for r in model
        ]
        emit_report(model, baseline, tmp_path, n_boot=20, seed=8)
        for grid in (tmp_path / "grids").glob("*.csv"):
            with open(grid, newline="") as fh:
                for row in csv.DictReader(fh):
                    total = sum(float(row[f"p{c}"]) for c in range(4))
                    assert abs(total - 1.0) < 1e-6

    def test_single_state_slice_reports_nan(self, tmp_path, caplog):
        mixed = self._records("model", kind="high_context")
        single = [
            record(0, onehotish(0, p=0.7), dyad=r.dyad_id, month=r.month, kind="low_context")
            for r in mixed
        ]
        model = mixed + single
        baseline = [replace(r, source="baseline") for r in model]
        with caplog.at_level("WARNING"):
            emit_report(model, baseline, tmp_path, n_boot=50, seed=9)
        with open(tmp_path / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 4 * 5  # kinds x (row, monthly) x sources x metrics
        for row in rows:
            values = [float(row[k]) for k in ("point", "lo", "hi")]
            if row["kind"] == "low_context" and row["metric"] == "auroc":
                assert all(math.isnan(v) for v in values)
                assert int(row["n"]) == len(single)
            else:
                assert all(math.isfinite(v) for v in values)
        assert "low_context" in caplog.text
        assert (tmp_path / "per_class.csv").exists()
        assert len(list((tmp_path / "grids").glob("dyad_grid_*.csv"))) == 4


class TestCollapse:
    def test_mean_over_digest_rows(self):
        rows = [
            record(1, (0.7, 0.1, 0.1, 0.1)),
            record(1, (0.1, 0.7, 0.1, 0.1)),
        ]
        collapsed = collapse_to_dyad_month(rows)
        assert len(collapsed) == 1
        assert collapsed[0].probabilities == pytest.approx((0.4, 0.4, 0.1, 0.1))
        assert collapsed[0].source == "model_monthly"


class TestForecastCsvRoundTrip:
    def test_save_load(self, tmp_path):
        records = [
            record(2, onehotish(2), dyad="dx", month="2022-05", step=3, kind="high_context")
        ]
        path = tmp_path / "forecasts.csv"
        save_forecasts_csv(records, path)
        loaded = load_forecasts_csv(path, step=3, kind="high_context")
        assert loaded == records
