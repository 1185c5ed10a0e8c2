import math

import numpy as np
import pytest

from jumppipe import dataio, evaluation as ev, features as feat
from jumppipe import regression, segmentation as seg, tcn
from jumppipe.evaluation import (bland_altman_points, limits_of_agreement,
                                 loso_split, mape, pearson_r,
                                 precision_recall_f1, r_squared, reg_metrics,
                                 rmse, run_pipeline_eval)
from jumppipe.segmentation import MatchResult


class TestLimitsOfAgreement:
    def test_identical_counts(self):
        stats = limits_of_agreement([3, 5, 7], [3, 5, 7])
        assert (stats.mean_diff, stats.std_diff) == (0.0, 0.0)
        assert (stats.loa_low, stats.loa_high) == (0.0, 0.0)

    def test_hand_example(self):
        truth = [1, -1, 2, -2, 0]
        stats = limits_of_agreement(truth, [0, 0, 0, 0, 0])
        assert stats.mean_diff == pytest.approx(0.0, abs=1e-9)
        assert stats.std_diff == pytest.approx(math.sqrt(2.5), abs=1e-9)
        assert stats.loa_high == pytest.approx(1.96 * math.sqrt(2.5), abs=1e-9)
        assert stats.loa_low == pytest.approx(-1.96 * math.sqrt(2.5), abs=1e-9)

    def test_overcounting_gives_negative_mean(self):
        # a model predicting one extra jump per subject: diff = truth - pred
        truth = [10, 12, 8]
        pred = [11, 13, 9]
        assert limits_of_agreement(truth, pred).mean_diff == pytest.approx(-1.0)

    def test_too_few_subjects(self):
        with pytest.raises(ValueError):
            limits_of_agreement([1], [1])

    def test_self_agreement_any_input(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 50, size=12)
        stats = limits_of_agreement(x, x)
        assert (stats.mean_diff, stats.std_diff, stats.loa_low,
                stats.loa_high) == (0, 0, 0, 0)


def match_from_counts(tp, fp, fn, class_id=1):
    return MatchResult([], [], [], 0.1, {class_id: tp}, {class_id: fp},
                       {class_id: fn})


class TestPrecisionRecallF1:
    def test_perfect(self):
        m = precision_recall_f1(match_from_counts(1, 0, 0))
        assert (m.overall.precision, m.overall.recall, m.overall.f1) == (1, 1, 1)

    def test_no_tp(self):
        m = precision_recall_f1(match_from_counts(0, 2, 1))
        assert m.overall.f1 == 0.0

    def test_hand_example(self):
        m = precision_recall_f1(match_from_counts(9, 1, 1))
        assert m.overall.precision == pytest.approx(0.9, abs=1e-9)
        assert m.overall.recall == pytest.approx(0.9, abs=1e-9)
        assert m.overall.f1 == pytest.approx(0.9, abs=1e-9)

    def test_micro_average_equals_summed_counts(self):
        match = MatchResult([], [], [], 0.1,
                            {1: 4, 2: 2}, {1: 1, 2: 0}, {1: 0, 2: 3})
        m = precision_recall_f1(match)
        assert m.overall.tp == 6
        assert m.overall.fp == 1
        assert m.overall.fn == 3
        assert m.overall.precision == pytest.approx(6 / 7)
        for cc in m.per_class.values():
            assert 0 <= cc.precision <= 1
            assert 0 <= cc.recall <= 1
            assert 0 <= cc.f1 <= 1

    def test_overall_covers_eligible_classes_only(self):
        v = seg.DEFAULT_VOCAB
        match = MatchResult([], [], [], 0.1,
                            {v.index("CMJ"): 3, v.index("Squat"): 1},
                            {v.index("Squat"): 5}, {})
        m = precision_recall_f1(match)
        assert m.overall.tp == 3
        assert m.overall.fp == 0


class TestRegressionMetrics:
    def test_r2_perfect(self):
        assert r_squared([1, 2, 3], [1, 2, 3]) == 1.0

    def test_r2_mean_predictor(self):
        assert r_squared([1, 2, 3], [2, 2, 2]) == pytest.approx(0.0, abs=1e-9)

    def test_r2_negative(self):
        assert r_squared([1, 2, 3], [3, 2, 1]) == pytest.approx(-3.0, abs=1e-9)

    def test_r2_constant_truth(self):
        with pytest.raises(ValueError):
            r_squared([2, 2, 2], [1, 2, 3])

    def test_rmse_examples(self):
        assert rmse([1, 2, 3], [1, 2, 3]) == 0.0
        assert rmse([1, 2, 3], [1, 2, 5]) == pytest.approx(math.sqrt(4 / 3),
                                                           abs=1e-9)

    def test_mape_examples(self):
        assert mape([1, 2, 3], [1, 2, 3]) == 0.0
        assert mape([100, 200], [110, 180]) == pytest.approx(0.1, abs=1e-9)
        with pytest.raises(ValueError):
            mape([0, 1], [1, 1])

    def test_pearson_examples(self):
        t = np.array([1.0, 2.0, 3.0, 5.0])
        assert pearson_r(t, t) == pytest.approx(1.0, abs=1e-9)
        assert pearson_r(t, 2 * t + 3) == pytest.approx(1.0, abs=1e-9)
        assert pearson_r(t, -t) == pytest.approx(-1.0, abs=1e-9)
        with pytest.raises(ValueError):
            pearson_r(t, np.ones(4))

    def test_pearson_affine_invariance(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=30)
        p = rng.normal(size=30)
        base = pearson_r(t, p)
        assert pearson_r(3 * t + 1, 0.5 * p - 2) == pytest.approx(base)

    def test_rmse_scales_linearly(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=20)
        p = rng.normal(size=20)
        assert rmse(4 * t, 4 * p) == pytest.approx(4 * rmse(t, p))


class TestBlandAltman:
    def test_identical(self):
        points, stats = bland_altman_points([1.0, 2.0], [1.0, 2.0])
        assert all(d == 0 for _, d in points)
        assert stats.loa_low == stats.loa_high == 0.0

    def test_constant_bias(self):
        points, stats = bland_altman_points([1.0, 2.0, 3.0], [0.9, 1.9, 2.9])
        assert all(d == pytest.approx(0.1) for _, d in points)
        assert stats.std_diff == pytest.approx(0.0, abs=1e-12)
        assert stats.mean_diff == pytest.approx(0.1)

    def test_consistent_with_loa(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=15)
        p = rng.normal(size=15)
        points, stats = bland_altman_points(t, p)
        assert np.mean([d for _, d in points]) == pytest.approx(stats.mean_diff)


class TestLoso:
    def test_ten_subjects(self):
        folds = loso_split([f"S{i}" for i in range(10)])
        assert len(folds) == 10
        for f in folds:
            assert len(f.train_subjects) == 9
            assert f.test_subject not in f.train_subjects

    def test_two_subjects(self):
        assert len(loso_split(["a", "b"])) == 2

    def test_partition_property(self):
        ids = [f"S{i}" for i in range(7)]
        folds = loso_split(ids)
        tests = [f.test_subject for f in folds]
        assert sorted(tests) == sorted(ids)
        assert len(set(tests)) == len(ids)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            loso_split(["a", "a", "b"])


@pytest.fixture(scope="module")
def tiny_dataset():
    cfg = dataio.SyntheticConfig(
        num_subjects=3,
        jumps_per_class={"CMJ": 2, "Block": 2},
        session_duration_s=20.0,
        seed=5,
    )
    return dataio.synth_generate(cfg)


class TestPipelinePlumbing:
    def test_perfect_oracle_stub(self, tiny_dataset, monkeypatch):
        """With truth-echoing stage stubs the report must be exact."""
        sessions, heights = tiny_dataset
        lookup = {}
        vocab = seg.DEFAULT_VOCAB
        for r in heights:
            sess = next(s for s in sessions if s.subject_id == r.subject_id)
            roi = seg.select_roi(r.segment, sess.samples.shape[0], 300)
            win = seg.roi_window(roi, sess.samples)
            vec = feat.extract_feature_vector(win, r.segment.class_id, vocab)
            lookup[vec.tobytes()] = r.height_m

        monkeypatch.setattr(ev.tcn, "train", lambda cfg, s: (None, []))
        monkeypatch.setattr(ev.tcn, "predict",
                            lambda w, s: (None, s.labels.copy()))
        monkeypatch.setattr(ev.regression, "fit", lambda k, X, y, c: "stub")
        monkeypatch.setattr(ev.regression, "predict",
                            lambda m, x: lookup[np.asarray(x).tobytes()])

        report = run_pipeline_eval(sessions, heights, tcn.MsTcnConfig(epochs=0))
        assert report.seg_metrics.overall.f1 == 1.0
        assert report.reg_metrics.r2 == pytest.approx(1.0)
        assert report.reg_metrics.rmse == pytest.approx(0.0, abs=1e-12)
        for stats in report.count_loa.values():
            assert stats.mean_diff == 0.0

    def test_report_echoes_config(self, tiny_dataset, monkeypatch):
        sessions, heights = tiny_dataset
        monkeypatch.setattr(ev.tcn, "train", lambda cfg, s: (None, []))
        monkeypatch.setattr(ev.tcn, "predict",
                            lambda w, s: (None, s.labels.copy()))
        config = tcn.MsTcnConfig(epochs=0, seed=11)
        report = run_pipeline_eval(sessions, heights, config,
                                   regressor_kind="gbt", width=250,
                                   threshold=0.2)
        echo = report.config_echo
        assert echo["iou_threshold"] == 0.2
        assert echo["roi_width"] == 250
        assert echo["regressor"] == "gbt"
        assert echo["tcn"]["seed"] == 11
        assert echo["catalog_version"] == feat.CATALOG_VERSION

    def test_missing_height_raises(self, tiny_dataset, monkeypatch):
        sessions, heights = tiny_dataset
        monkeypatch.setattr(ev.tcn, "train", lambda cfg, s: (None, []))
        monkeypatch.setattr(ev.tcn, "predict",
                            lambda w, s: (None, s.labels.copy()))
        with pytest.raises(ValueError, match="missing height"):
            run_pipeline_eval(sessions, heights[:-1], tcn.MsTcnConfig(epochs=0))

    @pytest.mark.parametrize("defect, message", [
        ("height", "missing height for segment .* of subject 'S00'"),
        ("labels", "session 'S02' has no labels"),
    ])
    def test_bad_input_fails_before_training(self, tiny_dataset, monkeypatch,
                                             defect, message):
        sessions, heights = tiny_dataset
        if defect == "height":
            heights = [r for r in heights if r.subject_id != "S00"]
        else:
            sessions = [*sessions[:2],
                        dataio.ImuSession("S02", sessions[2].samples)]

        def no_training(cfg, s):
            raise AssertionError("training started before input was checked")

        monkeypatch.setattr(ev.tcn, "train", no_training)
        with pytest.raises(ValueError, match=message):
            run_pipeline_eval(sessions, heights, tcn.MsTcnConfig(epochs=0))

    def test_report_serialization_schema(self, tiny_dataset, monkeypatch):
        sessions, heights = tiny_dataset
        monkeypatch.setattr(ev.tcn, "train", lambda cfg, s: (None, []))
        monkeypatch.setattr(ev.tcn, "predict",
                            lambda w, s: (None, s.labels.copy()))
        report = run_pipeline_eval(sessions, heights, tcn.MsTcnConfig(epochs=0))
        doc = ev.report_to_dict(report)
        assert set(doc) == {"seg_metrics", "count_loa", "reg_metrics",
                            "bland_altman_points", "config_echo"}
        assert "overall" in doc["seg_metrics"]
        assert "total" in doc["count_loa"]
