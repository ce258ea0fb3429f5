import csv
import hashlib
import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from nexus import evaluation
from nexus.evaluation import (
    CI_LEVEL,
    METRIC_FUNCS,
    ForecastRecord,
    MetricValue,
    binarize,
    bootstrap_ci,
    conflictology,
    emit_report,
    load_forecasts_csv,
    per_class_binary_report,
    save_forecasts_csv,
)
from nexus.months import parse_month
from report_fixture import report_records


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


def arrays(records):
    """(probs (N, 4), actual (N,)) of a record list: what the metrics and the bootstrap take."""
    probs = np.array([r.probabilities for r in records], dtype=float).reshape(-1, 4)
    return probs, np.array([r.actual for r in records], dtype=int)


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
    """Binary AUROC from scipy's tie-averaged ranks, the reference for `one_row`."""
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
    """Tie-group walk with a running total, the reference for the AP of `one_row`."""
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


def accuracy_loop(records):
    """Accuracy of a record list from `confusion_loop`, as a 1-tuple."""
    matrix = confusion_loop(records)
    return (float(np.trace(matrix)) / matrix.sum(),)


def micro_counts_loop(records):
    """Micro recall, precision and F1 of a record list, from the TP, FN and FP of
    `confusion_loop` pooled over the classes."""
    matrix = confusion_loop(records)
    tp = float(np.trace(matrix))
    fn = float((matrix.sum(axis=1) - np.diag(matrix)).sum())
    fp = float((matrix.sum(axis=0) - np.diag(matrix)).sum())
    recall, precision = tp / (tp + fn), tp / (tp + fp)
    f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
    return recall, precision, f1


def micro_auroc_loop(records):
    """Micro AUROC of a record list, NaN below two actual states."""
    if len({r.actual for r in records}) < 2:
        return math.nan
    return auroc_rankdata(*binarize_loop(records))


# The record-list references of the METRIC_FUNCS entries, under the same keys.
REFERENCE_METRICS = {
    ("accuracy",): accuracy_loop,
    ("auroc", "ap"): lambda rs: (micro_auroc_loop(rs), average_precision_loop(*binarize_loop(rs))),
}


def bootstrap_ci_loop(records, metric, n, seed):
    """The record-list bootstrap, the reference for `bootstrap_ci`: each resample
    is a new list of records, and `metric` takes a record list and returns a
    tuple, NaN where a column is undefined. Each column is scored on its own:
    its undefined resamples are counted and left out, and it is NaN if it is
    undefined on the full list (counting 0) or on more than 10% of resamples."""
    if not records:
        raise ValueError("no records")
    point = np.array(metric(records), dtype=float)
    rng = np.random.Generator(np.random.PCG64(seed))
    values = []
    for _ in range(n):
        idx = rng.integers(0, len(records), size=len(records))
        values.append(metric([records[i] for i in idx]))
    values = np.array(values, dtype=float).reshape(n, len(point))
    alpha = (1.0 - CI_LEVEL) / 2.0
    points, lowers, uppers, failures = [], [], [], []
    for full, column in zip(point.tolist(), values.T):
        defined = column[~np.isnan(column)]
        missing = 0 if math.isnan(full) else n - len(defined)
        if math.isnan(full) or missing > 0.1 * n:
            full, lower, upper = math.nan, math.nan, math.nan
        else:
            lower, upper = np.percentile(defined, [100 * alpha, 100 * (1 - alpha)]).tolist()
        points.append(full)
        lowers.append(lower)
        uppers.append(upper)
        failures.append(missing)
    return MetricValue(tuple(points), tuple(lowers), tuple(uppers), n, tuple(failures))


def assert_same(value, expected):
    """`MetricValue` equality with NaN equal to NaN."""
    assert (value.n_bootstraps, value.n_undefined) == (expected.n_bootstraps, expected.n_undefined)
    for field in ("point", "lower", "upper"):
        assert np.array_equal(getattr(value, field), getattr(expected, field), equal_nan=True), field


# The weights-contract form of each metric: (probs, actual, weights) -> (B, k).
ACCURACY = METRIC_FUNCS[("accuracy",)]
SCORES = METRIC_FUNCS[("auroc", "ap")]


def micro_auroc(p, a, w):
    """Micro AUROC alone, (B, 1)."""
    return SCORES(p, a, w)[:, :1]


def micro_ap(p, a, w):
    """Micro AP alone, (B, 1)."""
    return SCORES(p, a, w)[:, 1:]


def one_row(scores, labels):
    """(AUROC, AP) of the unweighted pairs, at least one positive: `_score_rows` on one
    all-ones weight row."""
    rows = np.arange(len(scores))
    return evaluation._score_rows(np.asarray(scores, dtype=float), np.asarray(labels), rows,
                                  np.ones((1, len(rows)), dtype=int))[0]


def one_row_auroc(scores, labels):
    """Binary AUROC of the unweighted pairs: the AUROC column of `one_row`."""
    return float(one_row(scores, labels)[0])


def one_row_ap(scores, labels):
    """Binary AP of the unweighted pairs: the AP column of `one_row`."""
    return float(one_row(scores, labels)[1])


def ones_row(kernel, records):
    """A `METRIC_FUNCS` kernel on one all-ones weight row: its columns on the record list."""
    probs, actual = arrays(records)
    return kernel(probs, actual, np.ones((1, len(actual)), dtype=int))[0]


# Probabilities on a grid of eighths (exact in binary, summing exactly to 1),
# so scores tie heavily within and across records.
eighths = st.lists(st.integers(0, 8), min_size=3, max_size=3).map(sorted).map(
    lambda cuts: tuple((b - a) / 8 for a, b in zip([0, *cuts], [*cuts, 8]))
)
tied_records = st.lists(st.tuples(st.integers(0, 3), eighths), min_size=1, max_size=60).map(
    lambda rows: [record(actual, probs, month=24000 + i) for i, (actual, probs) in enumerate(rows)]
)
# Pools of one state (micro AUROC undefined), and pools of one state but for
# the first record (micro AUROC undefined on every resample that misses it).
single_state_records = tied_records.map(lambda rs: [replace(r, actual=rs[0].actual) for r in rs])
one_odd_record = tied_records.map(
    lambda rs: rs[:1] + [replace(r, actual=(rs[0].actual + 1) % 4) for r in rs[1:]]
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

    @pytest.mark.parametrize(
        "actual", [2.0, np.float64(2.0), True, False, np.bool_(True), "2", None, -1, 4, np.int64(4)]
    )
    def test_rejects_non_integer_or_out_of_range_actual(self, actual):
        with pytest.raises(ValueError, match="actual state"):
            record(actual, (0.25, 0.25, 0.25, 0.25))

    def test_integer_actuals_round_trip(self, tmp_path):
        records = [
            record(actual, onehotish(c), month=24000 + c, step=1)
            for c, actual in enumerate([0, 3, np.int64(2), np.int8(1)])
        ]
        path = tmp_path / "forecasts.csv"
        save_forecasts_csv(records, path)
        assert load_forecasts_csv(path, step=1, kind="low_context") == records


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
        probs = conflictology(history, step=3, horizon=parse_month("2022-03"), n_boot=10)
        assert probs[3] == 1.0
        with pytest.raises(ValueError):
            conflictology(
                {parse_month("2021-12"): 1},
                step=3,
                horizon=parse_month("2022-03"),
            )

    def test_negative_step_rejected(self):
        # step -1 would put the horizon month's own state in the window
        history = self._history([2, 1], end="2022-01")
        assert np.array_equal(
            conflictology(history, step=0, horizon=parse_month("2022-01")), [0, 0, 1, 0]
        )
        for step in (-1, -6):
            with pytest.raises(ValueError, match=f"step must be non-negative: {step}$"):
                conflictology(history, step=step, horizon=parse_month("2022-01"))

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
    """The argmax hits behind `_accuracy`, at one all-ones weight row,
    against `confusion_loop`."""

    def test_perfect_is_diagonal(self):
        records = [record(c, onehotish(c)) for c in range(4)]
        assert np.array_equal(confusion_loop(records), np.eye(4, dtype=int))
        assert ones_row(ACCURACY, records).tolist() == [1.0]

    def test_hand_fixture(self):
        truths = [1, 1, 2, 3]
        preds = [1, 2, 2, 3]
        records = [record(t, onehotish(p)) for t, p in zip(truths, preds)]
        matrix = confusion_loop(records)
        assert int(np.trace(matrix)) == 3
        assert matrix[1, 2] == 1
        assert ones_row(ACCURACY, records)[0] == np.trace(matrix) / matrix.sum()

    def test_tie_goes_to_lowest_class(self):
        uniform = (0.25, 0.25, 0.25, 0.25)
        assert confusion_loop([record(3, uniform)])[3, 0] == 1
        assert ones_row(ACCURACY, [record(3, uniform)]).tolist() == [0.0]
        assert ones_row(ACCURACY, [record(0, uniform)]).tolist() == [1.0]


class TestMicroMetrics:
    """`_accuracy` against the micro recall, precision and F1 of `micro_counts_loop`,
    at all-ones and at random weight rows: it is all three."""

    def test_diagonal_is_perfect(self):
        records = [record(c, onehotish(c)) for c, k in enumerate([5, 2, 9, 1]) for _ in range(k)]
        assert ones_row(ACCURACY, records)[0] == 1.0

    def test_hand_fixture_is_075(self):
        truths = [1, 1, 2, 3]
        preds = [1, 2, 2, 3]
        records = [record(t, onehotish(p)) for t, p in zip(truths, preds)]
        assert ones_row(ACCURACY, records).tolist() == [0.75]
        assert micro_counts_loop(records) == (0.75, 0.75, 0.75)

    def test_all_wrong_is_zero(self):
        records = [record(0, onehotish(1)), record(1, onehotish(2))]
        assert ones_row(ACCURACY, records).tolist() == [0.0]
        assert micro_counts_loop(records) == (0.0, 0.0, 0.0)

    def test_accuracy_identity_on_random_matrices(self):
        # a weight row counts each record that many times: the loop sees the repeated list
        rng = np.random.default_rng(11)
        for _ in range(50):
            records = [
                record(int(rng.integers(0, 4)), onehotish(int(rng.integers(0, 4))))
                for _ in range(int(rng.integers(1, 30)))
            ]
            weights = rng.integers(0, 4, size=(5, len(records)))
            weights[:, 0] += 1  # every row holds a record
            values = ACCURACY(*arrays(records), weights)
            for row, value in zip(weights, values):
                repeated = [r for r, k in zip(records, row) for _ in range(k)]
                assert value.tolist() == list(accuracy_loop(repeated))
                assert micro_counts_loop(repeated) == pytest.approx((value[0],) * 3, abs=1e-12)


class TestAveragePrecision:
    def test_spec_fixture(self):
        ap = one_row_ap(np.array([0.9, 0.8, 0.7]), np.array([1, 0, 1]))
        assert ap == pytest.approx(0.8333333333333333, abs=1e-9)

    def test_perfect_ranking(self):
        assert one_row_ap(np.array([0.9, 0.8, 0.1]), np.array([1, 1, 0])) == 1.0

    def test_all_tied_scores_equal_prevalence(self):
        labels = np.array([1, 0, 0, 1, 0])
        assert one_row_ap(np.full(5, 0.5), labels) == pytest.approx(0.4)

    def test_random_scores_converge_to_prevalence(self):
        rng = np.random.default_rng(13)
        n, prevalence = 30_000, 0.3
        labels = (rng.random(n) < prevalence).astype(int)
        scores = rng.random(n)
        ap = one_row_ap(scores, labels)
        assert abs(ap - labels.mean()) < 0.015

    def test_no_positives_rejected(self):
        # undefined: NaN, which keeps the class out of per_class.csv (see TestEmitReport)
        reports = per_class_binary_report(np.array([[0.5, 0.5, 0.0, 0.0]]), np.array([0]))
        for report in reports[1:]:
            assert math.isnan(report["ap"]) and math.isnan(report["auroc"])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(17)
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        if labels.sum() == 0:
            labels[0] = 1
        base = one_row_ap(scores, labels)
        assert one_row_ap(np.exp(4 * scores), labels) == pytest.approx(base, abs=1e-12)


class TestAuroc:
    def test_perfect_separation(self):
        assert one_row_auroc(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0

    def test_all_ties_half(self):
        assert one_row_auroc(np.full(6, 0.4), np.array([1, 0, 1, 0, 0, 1])) == 0.5

    def test_matches_pair_enumeration_on_small_fixtures(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            scores = np.round(rng.random(n), 1)  # coarse grid forces ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            assert one_row_auroc(scores, labels) == pytest.approx(
                auroc_pair_enumeration(scores, labels), abs=1e-12
            )

    def test_single_label_rejected(self):
        # undefined: NaN, which keeps the class out of per_class.csv (see TestEmitReport)
        assert math.isnan(one_row_auroc(np.array([0.5, 0.7]), np.array([1, 1])))
        probs = np.array([[0.5, 0.5, 0.0, 0.0], [0.3, 0.7, 0.0, 0.0]])
        assert math.isnan(per_class_binary_report(probs, np.array([0, 0]))[1]["auroc"])
        assert one_row_ap(np.array([0.5, 0.7]), np.array([1, 1])) == 1.0

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
        assert one_row_auroc(scores, labels) == auroc_rankdata(scores, labels)

    @settings(max_examples=200, deadline=None)
    @given(tied_records)
    def test_micro_equals_rankdata_reference(self, records):
        assume(len({r.actual for r in records}) > 1)
        assert ones_row(SCORES, records)[0] == auroc_rankdata(*binarize_loop(records))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(23)
        scores = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        base = one_row_auroc(scores, labels)
        assert one_row_auroc(10 + 3 * scores, labels) == pytest.approx(base, abs=1e-12)


class TestMicroPooling:
    def test_binarize_shape(self):
        records = [record(1, onehotish(1)), record(2, onehotish(0))]
        scores, labels = binarize(*arrays(records))
        assert len(scores) == 8
        assert labels.sum() == 2

    def test_per_class_equals_pooled_on_single_class_slice(self):
        rng = np.random.default_rng(29)
        records = []
        for _ in range(30):
            actual = int(rng.integers(0, 2))
            records.append(record(actual, onehotish(int(rng.integers(0, 4)))))
        report = per_class_binary_report(*arrays(records))[1]
        scores = np.array([r.probabilities[1] for r in records])
        labels = np.array([int(r.actual == 1) for r in records])
        assert report["ap"] == pytest.approx(one_row_ap(scores, labels))
        assert report["auroc"] == pytest.approx(one_row_auroc(scores, labels))

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
            per_class_binary_report(*arrays(records))[1]["ap"]
            > per_class_binary_report(*arrays(permuted))[1]["ap"]
        )


class TestBootstrapCI:
    def test_constant_metric_zero_width(self):
        records = [record(1, onehotish(1))] * 10
        value = bootstrap_ci(*arrays(records), lambda p, a, w: np.full((len(w), 1), 42.0), n=100, seed=1)
        assert value.lower == value.upper == value.point == (42.0,)

    def test_point_within_interval(self):
        rng = np.random.default_rng(37)
        records = [
            record(int(rng.integers(0, 4)), onehotish(int(rng.integers(0, 4))))
            for _ in range(60)
        ]
        value = bootstrap_ci(*arrays(records), micro_ap, n=200, seed=2)
        assert value.lower <= value.point <= value.upper

    def test_duplication_leaves_point_unchanged(self):
        rng = np.random.default_rng(41)
        records = [
            record(int(rng.integers(0, 4)), onehotish(int(rng.integers(0, 4))))
            for _ in range(40)
        ]
        single = bootstrap_ci(*arrays(records), ACCURACY, n=50, seed=3)
        doubled = bootstrap_ci(*arrays(records * 2), ACCURACY, n=50, seed=3)
        assert single.point[0] == pytest.approx(doubled.point[0], abs=1e-15)

    def test_column_undefined_on_the_full_set_is_nan(self):
        records = [record(0, onehotish(0))] * 5  # single-class pool: AUROC undefined
        value = bootstrap_ci(*arrays(records), SCORES, n=50, seed=4)
        assert all(math.isnan(v[0]) for v in (value.point, value.lower, value.upper))
        assert value.point[1] == 1.0 and value.lower[1] <= value.upper[1]
        assert value.n_undefined == (0, 0)

    def test_column_undefined_on_many_resamples_is_nan(self):
        # defined on the pool, undefined on the ~1/3 of resamples that miss state 1
        records = [record(0, onehotish(0))] * 4 + [record(1, onehotish(1))]
        assert ones_row(SCORES, records)[0] == 1.0
        value = bootstrap_ci(*arrays(records), SCORES, n=50, seed=4)
        assert all(math.isnan(v[0]) for v in (value.point, value.lower, value.upper))
        assert all(math.isfinite(v[1]) for v in (value.point, value.lower, value.upper))
        assert value.n_undefined[0] > 5 and value.n_undefined[1] == 0

    def test_intervals_widen_with_fewer_records(self):
        rng = np.random.default_rng(43)
        big = [
            record(int(rng.integers(0, 4)), onehotish(int(rng.integers(0, 4))))
            for _ in range(1000)
        ]
        widths_big, widths_small = [], []
        for seed in range(5):
            wb = bootstrap_ci(*arrays(big), ACCURACY, n=200, seed=seed)
            ws = bootstrap_ci(*arrays(big[:100]), ACCURACY, n=200, seed=seed)
            widths_big.append(wb.upper[0] - wb.lower[0])
            widths_small.append(ws.upper[0] - ws.lower[0])
        assert np.mean(widths_small) > np.mean(widths_big)

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(tied_records, single_state_records, one_odd_record),
        st.integers(1, 30),
        st.integers(0, 2**32 - 1),
    )
    def test_tuple_metric_equals_one_bootstrap_per_component(self, records, n, seed):
        # each column of a joint call equals a call on that column alone, NaN included
        probs, actual = arrays(records)
        for kernel in METRIC_FUNCS.values():
            joint = bootstrap_ci(probs, actual, kernel, n=n, seed=seed)
            for i in range(len(joint.point)):
                alone = bootstrap_ci(
                    probs, actual, lambda p, a, w: kernel(p, a, w)[:, [i]], n=n, seed=seed
                )
                assert_same(
                    MetricValue(
                        joint.point[i:i + 1], joint.lower[i:i + 1], joint.upper[i:i + 1],
                        n, joint.n_undefined[i:i + 1],
                    ),
                    alone,
                )

    def test_zero_resamples_rejected(self):
        records = [record(c % 4, onehotish(c % 4)) for c in range(8)]
        with pytest.raises(ValueError, match="at least one resample"):
            bootstrap_ci(*arrays(records), SCORES, n=0, seed=1)

    def test_no_records_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            bootstrap_ci(np.zeros((0, 4)), np.zeros(0, dtype=int), SCORES, n=5, seed=1)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(tied_records, single_state_records, one_odd_record),
        st.integers(1, 30),
        st.integers(0, 2**32 - 1),
    )
    def test_every_metric_equals_the_record_loop(self, records, n, seed):
        assert set(REFERENCE_METRICS) == set(METRIC_FUNCS)
        probs, actual = arrays(records)
        for names, metric in METRIC_FUNCS.items():
            expected = bootstrap_ci_loop(records, REFERENCE_METRICS[names], n, seed)
            assert_same(bootstrap_ci(probs, actual, metric, n=n, seed=seed), expected)


class TestArrayKernelsMatchLoops:
    """The array kernels give exactly the loop references' results, ties included."""

    @settings(max_examples=300, deadline=None)
    @given(tied_records)
    def test_kernels_equal_references(self, records):
        probs, actual = arrays(records)
        assert ones_row(ACCURACY, records).tolist() == list(accuracy_loop(records))
        scores, labels = binarize(probs, actual)
        ref_scores, ref_labels = binarize_loop(records)
        assert np.array_equal(scores, ref_scores) and scores.dtype == ref_scores.dtype
        assert np.array_equal(labels, ref_labels) and labels.dtype == ref_labels.dtype
        assert one_row_ap(scores, labels) == average_precision_loop(ref_scores, ref_labels)
        assert ones_row(SCORES, records)[1] == average_precision_loop(ref_scores, ref_labels)
        reports = per_class_binary_report(probs, actual)
        for cls in {r.actual for r in records}:
            cls_scores = np.array([r.probabilities[cls] for r in records])
            cls_labels = np.array([int(r.actual == cls) for r in records])
            report = reports[cls]
            assert report["ap"] == average_precision_loop(cls_scores, cls_labels)
            if cls_labels.all():  # binary AUROC undefined
                assert math.isnan(report["auroc"])
            else:
                assert report["auroc"] == auroc_rankdata(cls_scores, cls_labels)

    def test_bootstrap_equals_reference_bootstrap(self):
        rng = np.random.default_rng(37)
        records = [
            record(int(rng.integers(0, 4)), onehotish(int(rng.integers(0, 4))))
            for _ in range(60)
        ]
        reference = bootstrap_ci_loop(
            records, lambda rs: (average_precision_loop(*binarize_loop(rs)),), n=200, seed=2
        )
        assert bootstrap_ci(*arrays(records), micro_ap, n=200, seed=2) == reference


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

    def test_zero_resamples_rejected_before_any_work(self, tmp_path):
        model = self._records("model")
        baseline = [replace(r, source="baseline") for r in model]
        with pytest.raises(ValueError, match="n_boot"):
            emit_report(model, baseline, tmp_path / "report", n_boot=0, seed=1)
        assert not (tmp_path / "report").exists()

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
        assert len(rows) == 2 * 2 * 3  # kinds x sources x metrics
        for row in rows:
            values = [float(row[k]) for k in ("point", "lo", "hi")]
            if row["kind"] == "low_context" and row["metric"] == "auroc":
                assert all(math.isnan(v) for v in values)
                assert int(row["n"]) == len(single)
            else:
                assert all(math.isfinite(v) for v in values)
        assert (
            "auroc undefined for step 1, kind 'low_context', source model (24 records): "
            "metric undefined on the full record set"
        ) in caplog.text
        with open(tmp_path / "per_class.csv", newline="") as fh:
            per_class = list(csv.DictReader(fh))
        # every class of the single-state kind is in no record or in all of them
        assert per_class and all(row["kind"] == "high_context" for row in per_class)

    def test_undefined_resamples_are_counted_and_logged(self, tmp_path, caplog):
        # micro AUROC is undefined on the 2 of 50 resamples (seed 0) that miss state 1
        model = [record(int(i >= 7), onehotish(0), dyad=f"d{i}") for i in range(10)]
        baseline = [replace(r, source="baseline") for r in model]
        value = bootstrap_ci(*arrays(model), SCORES, n=50, seed=0)
        assert value.n_undefined == (2, 0)
        with caplog.at_level("WARNING"):
            emit_report(model, baseline, tmp_path, n_boot=50, seed=0)
        assert "auroc undefined on 2 of 50 resamples for step 1, kind 'low_context', source model " in caplog.text

    def test_many_undefined_resamples_report_nan(self, tmp_path, caplog):
        # micro AUROC is defined on the group, undefined on the ~1/3 of resamples that miss state 1
        model = [record(int(i == 4), onehotish(0), dyad=f"d{i}") for i in range(5)]
        baseline = [replace(r, source="baseline") for r in model]
        with caplog.at_level("WARNING"):
            emit_report(model, baseline, tmp_path, n_boot=50, seed=4)
        with open(tmp_path / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            values = [float(row[k]) for k in ("point", "lo", "hi")]
            assert all(map(math.isnan, values)) == (row["metric"] == "auroc")
        assert re.search(
            r"auroc undefined for step 1, kind 'low_context', source model \(5 records\): "
            r"metric undefined on \d+/50 bootstrap resamples",
            caplog.text,
        )

    def test_one_bootstrap_and_one_pair_sort_per_report_group(self, tmp_path, monkeypatch):
        model, baseline = report_records()
        boots, sorts = [], []
        bootstrap, tie_groups = evaluation.bootstrap_ci, evaluation._positive_tie_groups

        def counted_bootstrap(probs, actual, metric, n, seed):
            boots.append(len(actual))
            return bootstrap(probs, actual, metric, n, seed)

        def counted_tie_groups(scores, labels, rows, weights):
            sorts.append(len(weights))
            return tie_groups(scores, labels, rows, weights)

        monkeypatch.setattr(evaluation, "bootstrap_ci", counted_bootstrap)
        monkeypatch.setattr(evaluation, "_positive_tie_groups", counted_tie_groups)
        emit_report(model, baseline, tmp_path, n_boot=4, seed=1)
        assert boots == [504] * 16  # one per (step, kind, source) group
        # per group, one sort for its 5 bootstrap weight rows and one for its 4 class rows
        assert sorts.count(5) == 16 and sorts.count(4) == 16 and set(sorts) == {4, 5}
        with open(tmp_path / "metrics.csv", newline="") as fh:
            assert sum(1 for _ in csv.DictReader(fh)) == 16 * 3

    def test_two_records_for_one_dyad_month_rejected(self, tmp_path):
        low = self._records("model")
        model = low + [replace(r, kind="high_context") for r in low]  # each key once per kind
        emit_report(model, [replace(r, source="conflictology") for r in model], tmp_path, n_boot=5)
        with open(tmp_path / "metrics.csv", newline="") as fh:
            assert {row["n"] for row in csv.DictReader(fh)} == {"24"}
        model.append(replace(low[3], probabilities=onehotish(0)))
        baseline = [replace(r, source="conflictology") for r in model]
        with pytest.raises(ValueError, match=re.escape(
            "step 1, kind 'low_context', source model holds two records for dyad d2, month 2022-02"
        )):
            emit_report(model, baseline, tmp_path / "report", n_boot=5, seed=1)
        assert not (tmp_path / "report").exists()


def pinned_report_records(seed=12):
    """Model and conflictology records over 5 dyads x 16 months, steps 0 and 3, two
    kinds, one record per dyad-month. Low-context model scores lie on a grid of
    eighths, so they tie; high-context ones are uneven integer ratios, not exact
    in binary; every step-3 low-context record has actual state 2."""
    rng = np.random.default_rng(seed)
    model, baseline = [], []
    for step in (0, 3):
        for kind in ("low_context", "high_context"):
            for d in range(5):
                for m in range(16):
                    single_state = (step, kind) == (3, "low_context")
                    actual = 2 if single_state else int(rng.integers(0, 4))
                    if kind == "low_context":
                        cuts = np.sort(rng.integers(0, 9, size=3))
                        probs = np.diff(np.concatenate(([0], cuts, [8]))) / 8
                    else:
                        weights = rng.integers(1, 30, size=4)
                        probs = weights / weights.sum()
                    shares = np.bincount(rng.integers(0, 4, size=12), minlength=4) / 12
                    for records, source, p in ((model, "model", probs), (baseline, "conflictology", shares)):
                        records.append(
                            ForecastRecord(
                                f"d{d}", 24_000 + m, step, tuple(float(x) for x in p), actual, source, kind
                            )
                        )
    return model, baseline


class TestPinnedReport:
    """emit_report's files, byte for byte. per_class.csv was pinned when the fixture
    became one record per dyad-month. metrics.csv was re-pinned when its recall,
    precision and F1 rows became one accuracy row: it is the earlier file with the
    precision and f1 rows dropped and recall renamed accuracy."""

    METRICS_SHA256 = "b3f0d179677161217e46bff802593cb70506b35f5000ff5ec1ea492853c39925"
    PER_CLASS_SHA256 = "8675901a5d102e7e938ed5b521119cf36756e27254e07a3de7176d54eae77060"

    def test_outputs_hash_to_pinned_values(self, tmp_path):
        model, baseline = pinned_report_records()
        emit_report(model, baseline, tmp_path, n_boot=20, seed=3)

        def sha256(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv", "per_class.csv"]
        assert sha256(tmp_path / "metrics.csv") == self.METRICS_SHA256
        assert sha256(tmp_path / "per_class.csv") == self.PER_CLASS_SHA256


class TestForecastCsvRoundTrip:
    def test_save_load(self, tmp_path):
        records = [
            record(2, onehotish(2), dyad="dx", month="2022-05", step=3, kind="high_context")
        ]
        path = tmp_path / "forecasts.csv"
        save_forecasts_csv(records, path)
        loaded = load_forecasts_csv(path, step=3, kind="high_context")
        assert loaded == records

    def test_second_row_for_a_dyad_month_names_path_and_lines(self, tmp_path):
        records = [record(c, onehotish(c), month=24000 + c) for c in range(3)]
        path = tmp_path / "forecasts.csv"
        save_forecasts_csv(records + [record(1, onehotish(1), dyad="e", month=24001)], path)
        assert len(load_forecasts_csv(path, step=1, kind="low_context")) == 4
        save_forecasts_csv(records, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + [lines[2]]))
        with pytest.raises(ValueError, match=re.escape(
            f"{path}, line 5: second row for dyad d, month 2000-02 (first at line 3)"
        )):
            load_forecasts_csv(path, step=1, kind="low_context")

    def test_saving_a_second_record_for_a_dyad_month_raises_and_keeps_the_file(self, tmp_path):
        records = [record(c, onehotish(c), month=24000 + c) for c in range(3)]
        path = tmp_path / "forecasts.csv"
        save_forecasts_csv(records, path)
        old = path.read_bytes()
        with pytest.raises(ValueError, match=re.escape(
            f"{path}: two records for dyad d, month 2000-02"
        )):
            save_forecasts_csv(records + [record(3, onehotish(3), month=24001)], path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["forecasts.csv"]

    def test_cut_off_file_names_path_and_line(self, tmp_path):
        records = [record(c, onehotish(c), month=24000 + c) for c in range(3)]
        path = tmp_path / "forecasts.csv"
        save_forecasts_csv(records, path)
        data = path.read_bytes()
        last_row = data.rindex(b"\n", 0, len(data) - 1) + 1
        # every cut that leaves the last row short of a field, the actual state included
        for cut in range(last_row + 1, data.rindex(b",") + 1):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match=re.escape(f"{path}, line 4: ")):
                load_forecasts_csv(path, step=3, kind="high_context")

    @pytest.mark.parametrize("column, text, message", [
        ("actual_state", "\u0662", "actual_state is not an int as saved: '\u0662'"),  # Arabic-Indic 2
        ("actual_state", " 2", "actual_state is not an int as saved: ' 2'"),
        ("p_peace", "\u0660.25", "p_peace is not a float as saved: '\u0660.25'"),
        ("p_peace", " 0.25", "p_peace is not a float as saved: ' 0.25'"),
        ("p_peace", "0.25_0", "p_peace is not a float as saved: '0.25_0'"),
        ("dyad_id", "", "empty dyad_id"),
        ("dyad_id", " ", "empty dyad_id"),
    ])
    def test_field_other_than_the_savers_text_names_path_and_line(
        self, tmp_path, column, text, message
    ):
        path = tmp_path / "forecasts.csv"
        save_forecasts_csv([record(2, (0.25, 0.25, 0.25, 0.25))], path)
        header, row = path.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields[column] in ("2", "0.25", "d")  # what the saver wrote
        fields[column] = text
        path.write_text(f"{header}\n{','.join(fields.values())}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 2: {message}")):
            load_forecasts_csv(path, step=1, kind="low_context")
