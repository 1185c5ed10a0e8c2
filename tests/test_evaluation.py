import math

import numpy as np
import pytest

from jumppipe import dataio, evaluation as ev, features as feat
from jumppipe import segmentation as seg, tcn
from jumppipe.evaluation import (bland_altman_points, limits_of_agreement,
                                 mape, pearson_r,
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

    def test_constant_truth_with_rounded_mean_rejected(self):
        # twenty heights of 0.3 have a mean of 0.29999999999999993, so the
        # sum of squares about it is not 0
        truth = np.full(20, 0.3)
        with pytest.raises(ValueError, match="constant truth"):
            r_squared(truth, np.full(20, 0.30000000000000004))
        with pytest.raises(ValueError, match="constant series"):
            pearson_r(truth, np.arange(20.0))
        with pytest.raises(ValueError, match="constant series"):
            pearson_r(np.arange(20.0), truth)

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

    @pytest.mark.parametrize("metric", [rmse, r_squared, mape, pearson_r,
                                        reg_metrics])
    @pytest.mark.parametrize("pred", [[0.35], [0.35, 0.45]])
    def test_lengths_must_match(self, metric, pred):
        """One prediction is not broadcast against three truths."""
        with pytest.raises(ValueError, match=f"differ in length: truth has "
                                             f"shape \\(3,\\), predictions "
                                             f"\\({len(pred)},\\)"):
            metric([0.3, 0.4, 0.5], pred)

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


def loso_folds(num_subjects, monkeypatch, ids=None):
    """(training subject ids, predicted subject id) of each fold of a
    stubbed `run_pipeline_eval` over `num_subjects` sessions, renamed to
    `ids` if given."""
    sessions, heights = dataio.synth_generate(dataio.SyntheticConfig(
        num_subjects=num_subjects, jumps_per_class={"CMJ": 1},
        session_duration_s=6.0, seed=2))
    if ids is not None:
        rename = dict(zip((s.subject_id for s in sessions), ids))
        sessions = [dataio.ImuSession(rename[s.subject_id], s.samples,
                                      s.labels) for s in sessions]
        heights = [dataio.HeightRecord(rename[r.subject_id], r.segment,
                                       r.height_m) for r in heights]
    trained, tested = [], []
    monkeypatch.setattr(ev.tcn, "train", lambda cfg, s: trained.append(
        [x.subject_id for x in s]) or (None, []))
    monkeypatch.setattr(ev.tcn, "predict", lambda w, s: tested.append(
        s.subject_id) or (None, s.labels.copy()))
    monkeypatch.setattr(ev.regression, "fit", lambda k, X, y, c: None)
    monkeypatch.setattr(ev.regression, "predict", lambda m, x: float(x[0]))
    run_pipeline_eval(sessions, heights, tcn.MsTcnConfig(epochs=0))
    return list(zip(trained, tested))


class TestLoso:
    """One fold per subject, in subject order: each trains on every other
    subject and tests the one it holds out."""

    def test_ten_subjects(self, monkeypatch):
        folds = loso_folds(10, monkeypatch)
        assert len(folds) == 10
        for train_ids, test_id in folds:
            assert len(train_ids) == 9
            assert test_id not in train_ids

    def test_two_subjects(self, monkeypatch):
        assert loso_folds(2, monkeypatch) == [(["S01"], "S00"),
                                              (["S00"], "S01")]

    def test_partition_property(self, monkeypatch):
        ids = ["g", "c", "a", "f", "b", "e", "d"]
        folds = loso_folds(7, monkeypatch, ids)
        assert [test_id for _, test_id in folds] == ids
        for k, (train_ids, _) in enumerate(folds):
            assert train_ids == ids[:k] + ids[k + 1:]

    def test_duplicates_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="duplicate subject ids"):
            loso_folds(3, monkeypatch, ["a", "a", "b"])

    def test_one_subject_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="LOSO needs at least 2 subjects"):
            loso_folds(1, monkeypatch)


@pytest.fixture(scope="module")
def tiny_dataset():
    cfg = dataio.SyntheticConfig(
        num_subjects=3,
        jumps_per_class={"CMJ": 2, "Block": 2},
        session_duration_s=20.0,
        seed=5,
    )
    return dataio.synth_generate(cfg)


def labelled_session(subject_id, n, runs, seed):
    """A session of n random samples labelled with `runs`, (start, end,
    class name) each, and a height record for each jump among them."""
    samples = np.random.default_rng(seed).normal(size=(n, 6))
    labels = np.zeros(n, dtype=np.int64)
    heights = []
    for start, end, name in runs:
        labels[start:end] = seg.DEFAULT_VOCAB.index(name)
        if seg.DEFAULT_VOCAB.is_jump(labels[start]):
            heights.append(dataio.HeightRecord(
                subject_id, seg.Segment(start, end, int(labels[start])),
                0.2 + 0.01 * start))
    return dataio.ImuSession(subject_id, samples, labels), heights


class TestFeatureTable:
    """`feature_table` stacks a session's windows into one extractor call;
    each row keeps the bytes of `extract_feature_vector` on its window."""

    SESSIONS = {
        # ROIs clipped at the start and at the end, and one in the middle
        "edges": (120, [(2, 10, "CMJ"), (55, 65, "Smash"),
                        (110, 118, "Block")]),
        "no_jumps": (90, [(20, 40, "Squat"), (60, 70, "Dive")]),
        "one_jump": (80, [(30, 44, "OS")]),
    }

    @pytest.mark.parametrize("names", [("edges",), ("no_jumps",),
                                       ("one_jump",),
                                       ("edges", "no_jumps", "one_jump")])
    @pytest.mark.parametrize("width", [4, 50, 300])
    def test_rows_equal_one_window_extraction(self, names, width):
        sessions, heights = [], []
        for k, name in enumerate(names):
            n, runs = self.SESSIONS[name]
            sess, recs = labelled_session(f"S{k}", n, runs, seed=k)
            sessions.append(sess)
            heights += recs
        X, y = ev.feature_table(sessions, heights, width)
        want = []
        for sess in sessions:
            for s in seg.extract_segments(sess.labels):
                if seg.DEFAULT_VOCAB.is_jump(s.class_id):
                    roi = seg.select_roi(s, sess.samples.shape[0], width)
                    window = seg.roi_window(roi, sess.samples)
                    want.append(feat.extract_feature_vector(window,
                                                            s.class_id))
        assert X.shape == (len(want), len(feat.feature_names()))
        for got, row in zip(X, want):
            assert got.tobytes() == row.tobytes()
        assert y.tolist() == [r.height_m for r in heights]

    def test_edges_are_clipped(self):
        n, runs = self.SESSIONS["edges"]
        rois = [seg.select_roi(seg.Segment(a, b, 1), n, 50)
                for a, b, _ in runs]
        assert rois[0].left_pad and rois[-1].right_pad
        assert not (rois[1].left_pad or rois[1].right_pad)


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
        ("only S00 jumps", r"fold 1/3 \(test subject S00\): no training"),
        ("only S02 jumps", r"fold 3/3 \(test subject S02\): no training"),
    ])
    def test_bad_input_fails_before_training(self, tiny_dataset, monkeypatch,
                                             defect, message):
        sessions, heights = tiny_dataset
        if defect == "height":
            heights = [r for r in heights if r.subject_id != "S00"]
        elif defect == "labels":
            sessions = [*sessions[:2],
                        dataio.ImuSession("S02", sessions[2].samples)]
        else:
            jumper = defect.split()[1]
            sessions = [s if s.subject_id == jumper else dataio.ImuSession(
                s.subject_id, s.samples, np.zeros_like(s.labels))
                for s in sessions]
            heights = [r for r in heights if r.subject_id == jumper]

        def no_training(cfg, s):
            raise AssertionError("training started before input was checked")

        monkeypatch.setattr(ev.tcn, "train", no_training)
        with pytest.raises(ValueError, match=message):
            run_pipeline_eval(sessions, heights, tcn.MsTcnConfig(epochs=0))

    @pytest.mark.parametrize("jumpless_subject", [False, True],
                             ids=["every-subject-jumps",
                                  "one-subject-without-jumps"])
    def test_features_extracted_once_per_jump(self, monkeypatch,
                                              jumpless_subject):
        """Each annotated jump's window goes through `feature_rows` once per
        LOSO run, not once per fold that trains on it, in one stack per
        session; each TP jump's window once more, on its own."""
        sessions, heights = dataio.synth_generate(dataio.SyntheticConfig(
            num_subjects=3, jumps_per_class={"CMJ": 2, "Block": 2},
            session_duration_s=25.0, seed=11))
        if jumpless_subject:
            sessions[0].labels[:] = 0
            heights = [r for r in heights if r.subject_id != "S00"]
        stacks = []  # windows per call
        rows = feat.feature_rows

        def counted(windows, ordinals):
            stacks.append(len(windows))
            return rows(windows, ordinals)

        monkeypatch.setattr(ev.feat, "feature_rows", counted)
        monkeypatch.setattr(ev.tcn, "train", lambda cfg, s: (None, []))
        monkeypatch.setattr(ev.tcn, "predict",
                            lambda w, s: (None, s.labels.copy()))
        report = run_pipeline_eval(sessions, heights,
                                   tcn.MsTcnConfig(epochs=0))
        per_session = [n for n in (sum(r.subject_id == s.subject_id
                                       for r in heights) for s in sessions)
                       if n]
        assert stacks == per_session + [1] * len(report.bland_altman_points)

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
