"""Confusion metrics against a brute-force recount, plus closed-form cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scscreen.metrics import (
    DegenerateTargetError,
    EvalReport,
    Histogram,
    LengthMismatchError,
    baseline_precision,
    confusion_at_threshold,
    confusion_counts,
    positive_count_histogram,
    r_squared,
    report_table_text,
    write_reports_csv,
)


def brute_force_report(pred, true, thr):
    """Element-by-element recount; the independent oracle."""
    tp = fp = tn = fn = 0
    for p, t in zip(pred, true):
        pp, tt = p > thr, t > thr
        if pp and tt:
            tp += 1
        elif pp and not tt:
            fp += 1
        elif not pp and tt:
            fn += 1
        else:
            tn += 1
    return tp, fp, tn, fn


class TestConfusion:
    def test_all_positive_prediction_disease_analogy(self):
        # 10,000 samples, 100 truly positive, everything predicted positive
        true = np.zeros(10_000)
        true[:100] = 5.0
        pred = np.full(10_000, 1.0)
        r = confusion_at_threshold(pred, true, 0.0)
        assert r.recall == 1.0
        assert r.precision == 0.01
        assert r.accuracy == 0.01
        assert r.tp == 100 and r.fp == 9900 and r.fn == 0 and r.tn == 0

    def test_one_correct_positive_rest_negative(self):
        true = np.zeros(10_000)
        true[:100] = 5.0
        pred = np.zeros(10_000)
        pred[0] = 5.0
        r = confusion_at_threshold(pred, true, 0.0)
        assert r.precision == 1.0
        assert r.recall == 0.01
        assert r.tp == 1 and r.fp == 0 and r.fn == 99

    def test_perfect_prediction(self):
        true = np.array([0.0, 1.0, 12.0, 0.0, 30.0])
        r = confusion_at_threshold(true, true, 0.0)
        assert r.precision == r.recall == r.f1 == r.accuracy == 1.0

    def test_strict_threshold_on_both_sides(self):
        r = confusion_at_threshold([0.0, 0.1], [0.0, 0.0], 0.0)
        assert r.fp == 1 and r.tn == 1 and r.tp == 0 and r.fn == 0
        # exactly at the threshold is negative
        r10 = confusion_at_threshold([10.0], [10.0], 10.0)
        assert r10.tn == 1

    def test_undefined_markers(self):
        # nothing predicted positive -> precision undefined, recall 0
        r = confusion_at_threshold([0.0, 0.0], [5.0, 0.0], 0.0)
        assert r.precision is None
        assert r.recall == 0.0
        assert r.f1 is None
        # no true positives -> recall undefined
        r2 = confusion_at_threshold([5.0, 0.0], [0.0, 0.0], 0.0)
        assert r2.recall is None
        assert r2.precision == 0.0
        assert r2.f1 is None
        # table renders markers, never NaN
        text = report_table_text([r, r2])
        assert "--" in text and "nan" not in text.lower()

    def test_f1_zero_division_when_both_zero(self):
        # tp=0 with both fp>0 and fn>0: precision=recall=0 -> f1 undefined
        r = confusion_at_threshold([5.0, 0.0], [0.0, 5.0], 0.0)
        assert r.precision == 0.0 and r.recall == 0.0 and r.f1 is None

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            confusion_at_threshold([1.0], [1.0, 2.0], 0.0)
        with pytest.raises(LengthMismatchError):
            confusion_at_threshold([], [], 0.0)

    def test_known_tp_fp_fn_to_12_places(self):
        # tp=30, fp=20, fn=10, tn=940
        pred = np.concatenate([np.ones(30), np.ones(20), np.zeros(10), np.zeros(940)])
        true = np.concatenate([np.ones(30), np.zeros(20), np.ones(10), np.zeros(940)])
        r = confusion_at_threshold(pred, true, 0.0)
        assert r.tp == 30 and r.fp == 20 and r.fn == 10 and r.tn == 940
        assert r.precision == pytest.approx(30 / 50, abs=1e-12)
        assert r.recall == pytest.approx(30 / 40, abs=1e-12)
        harmonic = 2 * r.precision * r.recall / (r.precision + r.recall)
        assert r.f1 == pytest.approx(harmonic, abs=1e-12)
        assert r.f1 == pytest.approx(2 * 30 / (2 * 30 + 20 + 10), abs=1e-12)


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=0.0, max_value=12.0),
    st.integers(min_value=0, max_value=2**31),
)
def test_confusion_matches_brute_force(n, thr, seed):
    rng = np.random.default_rng(seed)
    pred = rng.random(n) * 15
    true = np.where(rng.random(n) < 0.4, rng.random(n) * 15, 0.0)
    r = confusion_at_threshold(pred, true, thr)
    assert (r.tp, r.fp, r.tn, r.fn) == brute_force_report(pred, true, thr)
    assert r.n == n
    if r.f1 is not None:
        assert min(r.precision, r.recall) - 1e-12 <= r.f1 <= max(r.precision, r.recall) + 1e-12
        assert abs(r.f1 - 2 * r.precision * r.recall / (r.precision + r.recall)) <= 1e-12


@given(st.integers(min_value=1, max_value=100), st.integers(min_value=0, max_value=2**31))
def test_threshold_monotonicity(n, seed):
    rng = np.random.default_rng(seed)
    pred = rng.random(n) * 15
    true = rng.random(n) * 15
    last_tp = None
    for thr in (0.0, 4.0, 10.0):
        r = confusion_at_threshold(pred, true, thr)
        if last_tp is not None:
            assert r.tp <= last_tp
        last_tp = r.tp


class TestBaseline:
    def test_fraction(self):
        true = np.concatenate([np.full(32, 5.0), np.zeros(68)])
        assert baseline_precision(true, 0.0) == pytest.approx(0.32, abs=1e-12)

    def test_extremes(self):
        assert baseline_precision([1.0, 2.0], 10.0) == 0.0
        assert baseline_precision([1.0, 2.0], 0.0) == 1.0

    def test_empty(self):
        with pytest.raises(LengthMismatchError):
            baseline_precision([], 0.0)


class TestRSquared:
    def test_perfect(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_predictor(self):
        true = np.array([0.0, 1.0, 2.0])
        assert r_squared(np.full(3, 1.0), true) == pytest.approx(0.0, abs=1e-12)

    def test_hand_case(self):
        assert r_squared([0.0, 1.0, 1.0], [0.0, 1.0, 2.0]) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateTargetError):
            r_squared([1.0, 2.0], [3.0, 3.0])
        with pytest.raises(LengthMismatchError):
            r_squared([1.0], [1.0])

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=40),
        st.floats(min_value=-100, max_value=100),
    )
    def test_shift_invariance(self, values, k):
        true = np.asarray(values)
        if np.ptp(true) < 1e-6:
            return
        rng = np.random.default_rng(0)
        pred = true + rng.normal(0, 1, true.size)
        a = r_squared(pred, true)
        b = r_squared(pred + k, true + k)
        assert a == pytest.approx(b, abs=1e-9 * max(1, abs(a)))


class TestHistogram:
    def test_unit_bins(self):
        h = positive_count_histogram([0, 0, 5])
        assert h.counts.sum() == 3
        # bin centered on 0 has two, bin centered on 5 has one
        assert h.counts[0] == 2
        assert h.counts[5] == 1
        assert len(h.edges) == len(h.counts) + 1

    def test_empty(self):
        h = positive_count_histogram([])
        assert h.counts.sum() == 0
        assert list(h.edges) == [0.0, 1.0]  # one empty bin

    def test_conservation(self):
        runs = [3, 1, 4, 1, 5, 9, 2, 6]
        h = positive_count_histogram(runs)
        assert h.counts.sum() == len(runs)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            positive_count_histogram([-1])


def test_reports_csv_round_trip(tmp_path):
    r = confusion_at_threshold([1.0, 0.0, 3.0], [2.0, 0.0, 0.0], 0.0)
    path = tmp_path / "reports.csv"
    write_reports_csv([r], path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("threshold_K,tp,fp,tn,fn")
    assert len(lines) == 2


def test_confusion_counts_bool_interface():
    r = confusion_counts([True, False, True], [True, True, False], 0.0)
    assert (r.tp, r.fn, r.fp, r.tn) == (1, 1, 1, 0)
    assert isinstance(r, EvalReport)
