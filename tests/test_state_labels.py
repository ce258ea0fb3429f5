import logging
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nexus
from nexus.gp_trend import PriorSpec, fit_map, fit_trend
from nexus.months import parse_month
from nexus.state_labels import (
    EscalationState,
    LabeledSeries,
    LabelerConfig,
    discretize,
    label_windows,
    load_labels_csv,
    save_labels_csv,
)

from conftest import make_series


class TestDiscretize:
    def test_peace_dominates_derivative(self):
        assert discretize([0.9], [0], 0.25)[0] == EscalationState.PEACE

    def test_escalation_above_threshold(self):
        assert discretize([0.30], [12], 0.25)[0] == EscalationState.ESCALATION

    def test_boundary_is_plateau(self):
        assert discretize([-0.25], [12], 0.25)[0] == EscalationState.PLATEAU

    @pytest.mark.parametrize(
        "deriv,expected_nonzero",
        [
            (-1.0, EscalationState.DEESCALATION),
            (-0.26, EscalationState.DEESCALATION),
            (-0.25, EscalationState.PLATEAU),
            (0.0, EscalationState.PLATEAU),
            (0.25, EscalationState.PLATEAU),
            (0.26, EscalationState.ESCALATION),
            (1.0, EscalationState.ESCALATION),
        ],
    )
    def test_exhaustive_case_grid(self, deriv, expected_nonzero):
        assert discretize([deriv], [0], 0.25)[0] == EscalationState.PEACE
        assert discretize([deriv], [5], 0.25)[0] == expected_nonzero

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            discretize([0.1, 0.2], [1], 0.25)

    @given(
        derivs=st.lists(st.floats(-5, 5), min_size=1, max_size=50),
        tau=st.floats(0.01, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_exactly_one_state_per_month(self, derivs, tau, seed):
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 10, size=len(derivs))
        states = discretize(derivs, raw, tau)
        assert set(np.unique(states)) <= {0, 1, 2, 3}
        assert len(states) == len(derivs)

    def test_huge_tau_gives_only_peace_or_plateau(self):
        states = discretize([-4.0, -0.1, 0.0, 2.0], [3, 0, 1, 9], tau=1e9)
        assert set(states) <= {int(EscalationState.PEACE), int(EscalationState.PLATEAU)}

    def test_tiny_tau_plateau_only_at_exact_zero(self):
        states = discretize([-0.1, 0.0, 0.1], [3, 3, 3], tau=1e-300)
        assert list(states) == [
            int(EscalationState.DEESCALATION),
            int(EscalationState.PLATEAU),
            int(EscalationState.ESCALATION),
        ]

    @pytest.mark.parametrize("tau", [0.0, -0.25, math.nan, math.inf])
    def test_non_positive_or_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            discretize([0.1], [3], tau)
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            LabelerConfig(tau=tau, train_end=24000, val_end=24012)

    def test_pure_function_repeatable(self):
        d = np.array([0.3, -0.3, 0.0])
        raw = np.array([1, 2, 0])
        assert np.array_equal(discretize(d, raw), discretize(d, raw))


PRIOR = PriorSpec(np.log(122.38), 0.5)


def map_trend(series):
    """The trend at the series' own MAP parameters."""
    return fit_trend(series, PRIOR, fit_map(series, PRIOR))


def _fit_pair(series, train_end):
    """Dual fits: train on the truncated series, validation on the full one."""
    fit_train = map_trend(series.month_slice(int(series.months[0]), train_end))
    fit_val = map_trend(series)
    return fit_train, fit_val


class TestLabelWindows:
    def _setup(self, raw, train_offset=11):
        series = make_series(raw)
        train_end = int(series.months[0]) + train_offset
        val_end = int(series.months[-1])
        fit_t, fit_v = _fit_pair(series, train_end)
        config = LabelerConfig(tau=0.25, train_end=train_end, val_end=val_end)
        return series, fit_t, fit_v, config

    def test_windows_partition_cleanly(self):
        raw = [0, 1, 4, 9, 25, 60, 80, 40, 12, 3, 1, 0, 2, 9, 30, 55, 70, 20]
        series, fit_t, fit_v, config = self._setup(raw)
        train, val = label_windows({"d1": series}, {"d1": fit_t}, {"d1": fit_v}, config)
        assert train["d1"].months.max() <= config.train_end
        assert val["d1"].months.min() > config.train_end
        assert len(train["d1"].months) + len(val["d1"].months) == len(raw)

    def test_train_labels_immune_to_future_perturbation(self, tmp_path):
        raw = [0, 1, 4, 9, 25, 60, 80, 40, 12, 3, 1, 0, 2, 9, 30, 55, 70, 20]
        series, fit_t, fit_v, config = self._setup(raw)
        perturbed_raw = list(raw)
        for i in range(12, len(raw)):
            perturbed_raw[i] = raw[i] * 7 + 13
        perturbed = make_series(perturbed_raw)
        fit_t2, fit_v2 = _fit_pair(perturbed, config.train_end)

        train_a, _ = label_windows({"d1": series}, {"d1": fit_t}, {"d1": fit_v}, config)
        train_b, _ = label_windows(
            {"d1": perturbed}, {"d1": fit_t2}, {"d1": fit_v2}, config
        )
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_labels_csv(train_a, path_a)
        save_labels_csv(train_b, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_equal_ends_give_empty_validation(self):
        raw = [0, 1, 4, 9, 25, 60, 80, 40, 12, 3, 1, 0]
        series = make_series(raw)
        end = int(series.months[-1])
        fit = map_trend(series)
        config = LabelerConfig(tau=0.25, train_end=end, val_end=end)
        train, val = label_windows({"d1": series}, {"d1": fit}, {"d1": fit}, config)
        assert len(train["d1"].months) == len(raw)
        assert len(val["d1"].months) == 0

    def test_missing_fit_skips_dyad(self):
        raw = [0, 1, 4, 9, 25, 60, 80, 40, 12, 3, 1, 0]
        series = make_series(raw)
        config = LabelerConfig(0.25, int(series.months[5]), int(series.months[-1]))
        train, val = label_windows({"d1": series}, {}, {}, config)
        assert train == {} and val == {}

    @pytest.mark.parametrize("case", ["val-fit-ends-early", "train-fit-starts-late"])
    def test_fit_not_covering_its_window_skips_and_logs_the_dyad(self, caplog, case):
        raw = [0, 1, 4, 9, 25, 60, 80, 40, 12, 3, 1, 0, 2, 9, 30, 55, 70, 20]
        series, fit_t, fit_v, config = self._setup(raw)
        other = make_series(raw, dyad_id="d2")
        other_t, other_v = _fit_pair(other, config.train_end)
        if case == "val-fit-ends-early":
            fit_v = fit_t
        else:
            fit_t = replace(fit_t, start=fit_t.start + 1)
        with caplog.at_level(logging.WARNING, logger="nexus.state_labels"):
            train, val = label_windows({"d1": series, "d2": other}, {"d1": fit_t, "d2": other_t},
                                       {"d1": fit_v, "d2": other_v}, config)
        assert sorted(train) == sorted(val) == ["d2"]
        assert "dyad d1 fit does not cover its window, skipped" in caplog.text

    def test_three_dyad_counts_match_reapplication(self):
        rng = np.random.default_rng(4)
        series_by_dyad = {}
        fits_t, fits_v = {}, {}
        train_end = None
        for name in ("a", "b", "c"):
            raw = rng.integers(0, 60, size=20)
            raw[rng.integers(0, 20, size=5)] = 0
            series = make_series(raw, dyad_id=name)
            series_by_dyad[name] = series
            train_end = int(series.months[0]) + 13
            fits_t[name], fits_v[name] = _fit_pair(series, train_end)
        config = LabelerConfig(0.25, train_end, int(series.months[-1]))
        train, val = label_windows(series_by_dyad, fits_t, fits_v, config)
        for name, series in series_by_dyad.items():
            for part, fit in ((train[name], fits_t[name]), (val[name], fits_v[name])):
                for m, state in zip(part.months, part.states):
                    d = fit.derivative[int(m) - fit.start]
                    raw_m = series.raw_fatalities[list(series.months).index(m)]
                    if raw_m == 0:
                        expected = 0
                    elif d > 0.25:
                        expected = 1
                    elif d < -0.25:
                        expected = 3
                    else:
                        expected = 2
                    assert state == expected

    def test_csv_round_trip(self, tmp_path):
        raw = [0, 1, 4, 9, 25, 60, 80, 40, 12, 3, 1, 0]
        series = make_series(raw)
        fit = map_trend(series)
        config = LabelerConfig(0.25, int(series.months[-1]), int(series.months[-1]))
        train, _ = label_windows({"d1": series}, {"d1": fit}, {"d1": fit}, config)
        path = tmp_path / "labels.csv"
        save_labels_csv(train, path)
        loaded = load_labels_csv(path)
        assert set(loaded["d1"].values()) == set(int(s) for s in train["d1"].states)
        assert len(loaded["d1"]) == len(raw)

    def test_cut_off_file_names_path_and_line(self, tmp_path):
        labels = {
            "d1": LabeledSeries("d1", np.arange(24000, 24003), np.array([0, 1, 3]))
        }
        path = tmp_path / "labels.csv"
        save_labels_csv(labels, path)
        data = path.read_bytes()
        last_row = data.rindex(b"\n", 0, len(data) - 1) + 1
        # every cut that leaves the last row short of a field or inside its state name
        for cut in range(last_row + 1, len(data) - 2):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match=re.escape(f"{path}, line 4: ")):
                load_labels_csv(path)

    def test_non_ascii_month_names_path_and_line(self, tmp_path):
        labels = {
            "d1": LabeledSeries("d1", np.arange(24000, 24003), np.array([0, 1, 3]))
        }
        path = tmp_path / "labels.csv"
        save_labels_csv(labels, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].replace("2000-02", "\uff12\uff10\uff10\uff10-\uff10\uff12")  # full-width digits
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: not a YYYY-MM month")):
            load_labels_csv(path)

    def test_month_with_surrounding_spaces_names_path_and_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("dyad_id,month,state_code,state_name\nd1, 2020-01 ,1,Escalation\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}, line 2: not a YYYY-MM month: ' 2020-01 '")):
            load_labels_csv(path)

    @pytest.mark.parametrize(
        "rows,line,message",
        [
            (["d1,2020-01,7,x", "d1,2020-02,-1,x"], 2, "state code 7 is not 0-3"),
            (["d1,2020-01,1,Escalation", "d1,2020-02,-1,x"], 3, "state code -1 is not 0-3"),
        ],
    )
    def test_code_outside_0_to_3_names_path_and_line(self, tmp_path, rows, line, message):
        path = tmp_path / "labels.csv"
        path.write_text("\n".join(["dyad_id,month,state_code,state_name", *rows, ""]))
        with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: {message}")):
            load_labels_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("d1,2020-02,2,Escalation", "state name 'Escalation' does not match state code 2 ('Plateau')"),
            ("d1,2020-02,3,De", "state name 'De' does not match state code 3 ('De-escalation')"),
            ("d1,2020-02,0,peace", "state name 'peace' does not match state code 0 ('Peace')"),
        ],
    )
    def test_name_other_than_the_codes_names_path_and_line(self, tmp_path, row, message):
        path = tmp_path / "labels.csv"
        path.write_text(f"dyad_id,month,state_code,state_name\nd1,2020-01,1,Escalation\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: {message}")):
            load_labels_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("d1,2020-02,\u0663,De-escalation", "state_code is not an int as saved: '\u0663'"),  # Arabic-Indic 3
            ("d1,2020-02, 3,De-escalation", "state_code is not an int as saved: ' 3'"),
            ("d1,2020-02,+3,De-escalation", "state_code is not an int as saved: '+3'"),
            ("d1,2020-02,03,De-escalation", "state_code is not an int as saved: '03'"),
            ("d1,2020-02,3.0,De-escalation", "state_code is not an int as saved: '3.0'"),
            (",2020-02,3,De-escalation", "empty dyad_id"),
            ("  ,2020-02,3,De-escalation", "empty dyad_id"),
        ],
    )
    def test_field_other_than_the_savers_text_names_path_and_line(self, tmp_path, row, message):
        path = tmp_path / "labels.csv"
        path.write_text(f"dyad_id,month,state_code,state_name\nd1,2020-01,1,Escalation\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: {message}")):
            load_labels_csv(path)

    def test_second_row_for_a_dyad_month_names_path_and_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(
            "dyad_id,month,state_code,state_name\n"
            "d1,2020-01,1,Escalation\nd2,2020-01,1,Escalation\nd1,2020-01,2,Plateau\n"
        )
        with pytest.raises(ValueError, match=re.escape(
            f"{path}, line 4: second row for dyad d1, month 2020-01 (first at line 2)"
        )):
            load_labels_csv(path)


# fit_hierarchical -> fit_trend -> label_windows -> save_labels_csv on three
# seeded 48-month series of one country, writing both label files to argv[1]
THREAD_JOB = """
import sys
import numpy as np
from nexus.gp_trend import PriorSpec, fit_hierarchical, fit_trend
from nexus.ingest import DyadMonthSeries
from nexus.state_labels import LabelerConfig, label_windows, save_labels_csv

rng = np.random.default_rng(1)
grid = np.arange(24000, 24048)
series = {}
for i in range(3):
    raw = rng.poisson(np.exp(2 + 1.5 * np.sin(np.arange(48) / 5 + i)))
    series[f"d{i}"] = DyadMonthSeries(f"d{i}", "c1", grid, np.log1p(raw), raw)
prior = PriorSpec(np.log(12.0), 0.5)
fits = []
for part in ({d: s.month_slice(24000, 24031) for d, s in series.items()}, series):
    params = fit_hierarchical(list(part.values()), prior)
    fits.append({d: fit_trend(s, prior, params[d]) for d, s in part.items()})
train, val = label_windows(series, *fits, LabelerConfig(0.25, 24031, 24047))
save_labels_csv(train, sys.argv[1] + "/labels_train.csv")
save_labels_csv(val, sys.argv[1] + "/labels_val.csv")
"""


def test_label_files_are_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # the fitted derivatives can differ in their last bits between the runs; the states must not
    path = os.pathsep.join(filter(None, [str(Path(nexus.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    runs = []
    try:
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            env = {**os.environ, "PYTHONPATH": path,
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            runs.append(subprocess.Popen(
                [sys.executable, "-c", THREAD_JOB, str(tmp_path / threads)], env=env
            ))
        assert [run.wait(timeout=120) for run in runs] == [0, 0]
    finally:
        for run in runs:
            run.kill()
            run.wait()
    for name in ("labels_train.csv", "labels_val.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


@pytest.mark.parametrize(
    "text", ["\uff12\uff10\uff12\uff11-\uff10\uff11", "\u0662\u0660\u0662\u0661-01", "2021-\U0001d7ce\U0001d7cf"]
)
def test_parse_month_takes_ascii_digits_only(text):
    with pytest.raises(ValueError, match="not a YYYY-MM month"):
        parse_month(text)


@pytest.mark.parametrize("text", ["2020-01\n", " 2020-01", "2020-01 ", "\t2020-01"])
def test_parse_month_takes_no_surrounding_whitespace(text):
    with pytest.raises(ValueError, match=re.escape(f"not a YYYY-MM month: {text!r}")):
        parse_month(text)


@pytest.mark.parametrize("value", [202001, None, b"2020-01", ["2020-01"]])
def test_parse_month_rejects_a_non_string(value):
    with pytest.raises(ValueError, match=re.escape(f"not a YYYY-MM month: {value!r}")):
        parse_month(value)
