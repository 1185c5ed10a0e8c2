"""Metrics and the leave-one-subject-out experiment harness.

Covers Bland-Altman limits of agreement on per-subject jump counts,
IoU-thresholded segment precision/recall/F1, the height-regression metrics
(R^2, RMSE, MAPE, Pearson r) and the end-to-end pipeline evaluation that
chains detection, feature extraction and regression per LOSO fold.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import features as feat
from . import regression, segmentation, tcn
from .segmentation import DEFAULT_IOU_THRESHOLD, DEFAULT_ROI_WIDTH, DEFAULT_VOCAB


@dataclass
class AgreementStats:
    mean_diff: float
    std_diff: float  # sample std, ddof=1
    loa_low: float
    loa_high: float
    n: int


@dataclass
class ClassCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class SegMetrics:
    per_class: dict  # class name -> ClassCounts
    overall: ClassCounts
    iou_threshold: float


@dataclass
class RegMetrics:
    r2: float
    rmse: float
    mape: float
    pearson_r: float
    n: int


@dataclass
class LosoFold:
    fold_index: int
    train_subjects: list
    test_subject: str


@dataclass
class EvalReport:
    seg_metrics: SegMetrics
    count_loa: dict  # class name (+ "total") -> AgreementStats
    reg_metrics: RegMetrics
    bland_altman_points: list  # (mean, diff) pairs over pooled TP jumps
    config_echo: dict


def limits_of_agreement(truth_counts, pred_counts) -> AgreementStats:
    """Bland-Altman stats of per-subject differences, diff = truth - pred."""
    truth = np.asarray(truth_counts, dtype=np.float64)
    pred = np.asarray(pred_counts, dtype=np.float64)
    if truth.shape != pred.shape:
        raise ValueError("count lists must have equal length")
    if truth.size < 2:
        raise ValueError("limits of agreement need at least 2 subjects")
    diffs = truth - pred
    mean = float(diffs.mean())
    std = float(diffs.std(ddof=1))
    return AgreementStats(mean, std, mean - 1.96 * std, mean + 1.96 * std,
                          truth.size)


def precision_recall_f1(
    match: segmentation.MatchResult, vocab=DEFAULT_VOCAB
) -> SegMetrics:
    """Per-class counts plus a micro-average over the height-eligible classes
    (an "all jumps" aggregate)."""
    per_class = {}
    class_ids = sorted(
        set(match.per_class_tp) | set(match.per_class_fp) | set(match.per_class_fn)
    )
    for c in class_ids:
        per_class[vocab.names[c]] = ClassCounts(
            tp=match.per_class_tp.get(c, 0),
            fp=match.per_class_fp.get(c, 0),
            fn=match.per_class_fn.get(c, 0),
        )
    eligible = {vocab.names[i] for i in vocab.eligible_ids()}
    overall = ClassCounts(
        tp=sum(cc.tp for name, cc in per_class.items() if name in eligible),
        fp=sum(cc.fp for name, cc in per_class.items() if name in eligible),
        fn=sum(cc.fn for name, cc in per_class.items() if name in eligible),
    )
    return SegMetrics(per_class, overall, match.threshold)


def r_squared(truth, pred) -> float:
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if truth.size < 2:
        raise ValueError("r_squared needs at least 2 points")
    ss_tot = ((truth - truth.mean()) ** 2).sum()
    if ss_tot == 0:
        raise ValueError("r_squared undefined for constant truth")
    return float(1.0 - ((truth - pred) ** 2).sum() / ss_tot)


def rmse(truth, pred) -> float:
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    return float(np.sqrt(((truth - pred) ** 2).mean()))


def mape(truth, pred) -> float:
    """Mean absolute percentage error, as a fraction."""
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if np.any(truth == 0):
        raise ValueError("MAPE undefined for zero truth values")
    return float(np.abs((truth - pred) / truth).mean())


def pearson_r(truth, pred) -> float:
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if truth.size < 2:
        raise ValueError("pearson_r needs at least 2 points")
    st = truth.std()
    sp = pred.std()
    if st == 0 or sp == 0:
        raise ValueError("pearson_r undefined for a constant series")
    c = ((truth - truth.mean()) * (pred - pred.mean())).mean() / (st * sp)
    return float(c)


def reg_metrics(truth, pred) -> RegMetrics:
    return RegMetrics(
        r2=r_squared(truth, pred),
        rmse=rmse(truth, pred),
        mape=mape(truth, pred),
        pearson_r=pearson_r(truth, pred),
        n=len(truth),
    )


def bland_altman_points(truth, pred):
    """Plot-ready (mean, diff) pairs plus agreement stats over the diffs."""
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if truth.size < 2:
        raise ValueError("bland_altman_points needs at least 2 points")
    points = [((t + p) / 2.0, t - p) for t, p in zip(truth, pred)]
    return points, limits_of_agreement(truth, pred)


def loso_split(subject_ids) -> list[LosoFold]:
    """One fold per subject, in subject-id order."""
    ids = list(subject_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate subject ids")
    if len(ids) < 2:
        raise ValueError("LOSO needs at least 2 subjects")
    folds = []
    for k, sid in enumerate(ids):
        folds.append(LosoFold(k, [s for s in ids if s != sid], sid))
    return folds


def _height_lookup(height_records) -> dict:
    """(subject_id, start, end, class_id) -> height_m."""
    return {(r.subject_id, r.segment.start, r.segment.end, r.segment.class_id):
            r.height_m for r in height_records}


def _height_of(heights, subject_id, segment) -> float:
    key = (subject_id, segment.start, segment.end, segment.class_id)
    if key not in heights:
        raise ValueError(f"missing height for segment {key[1:]} of subject "
                         f"{subject_id!r}")
    return heights[key]


def _labeled_jumps(sessions, height_records, vocab):
    """(session, segment, height) of each annotated height-eligible segment."""
    heights = _height_lookup(height_records)
    for sess in sessions:
        if sess.labels is None:
            raise ValueError(f"session {sess.subject_id!r} has no labels")
        for seg in segmentation.extract_segments(sess.labels, vocab):
            if vocab.is_jump(seg.class_id):
                yield sess, seg, _height_of(heights, sess.subject_id, seg)


def feature_table(sessions, height_records, width: int = DEFAULT_ROI_WIDTH,
                  vocab=DEFAULT_VOCAB):
    """Feature matrix + height targets of every annotated height-eligible
    segment, session by session in temporal order."""
    X, y = [], []
    for sess, seg, height in _labeled_jumps(sessions, height_records, vocab):
        roi = segmentation.select_roi(seg, sess.samples.shape[0], width)
        window = segmentation.roi_window(roi, sess.samples)
        X.append(feat.extract_feature_vector(window, seg.class_id, vocab))
        y.append(height)
    return np.asarray(X), np.asarray(y)


def run_pipeline_eval(
    sessions,
    height_records,
    tcn_config: tcn.MsTcnConfig,
    regressor_kind: str = "rf",
    regressor_config=None,
    width: int = DEFAULT_ROI_WIDTH,
    threshold: float = DEFAULT_IOU_THRESHOLD,
    min_duration: int = segmentation.DEFAULT_MIN_DURATION,
    vocab=DEFAULT_VOCAB,
    progress=None,
) -> EvalReport:
    """Full LOSO evaluation of the two-stage pipeline.

    Per fold: train the MS-TCN on the train subjects, predict the held-out
    subject, extract and filter predicted segments, match against annotation
    at the IoU threshold, then predict heights for the TP segments with a
    regressor fit on the train subjects' ground-truth segments. Jump heights
    are pooled across folds for the regression metrics.
    """
    sessions = list(sessions)
    subjects = [s.subject_id for s in sessions]
    by_subject = {s.subject_id: s for s in sessions}
    heights = _height_lookup(height_records)
    folds = loso_split(subjects)
    # An unlabeled session or a missing height fails here, before training.
    list(_labeled_jumps(sessions, height_records, vocab))

    eligible_names = [vocab.names[i] for i in vocab.eligible_ids()]
    count_rows_truth = {name: [] for name in [*eligible_names, "total"]}
    count_rows_pred = {name: [] for name in [*eligible_names, "total"]}
    agg_tp, agg_fp, agg_fn = {}, {}, {}
    pooled_truth_h, pooled_pred_h = [], []

    for fold in folds:
        if progress:
            progress(f"fold {fold.fold_index + 1}/{len(folds)}: "
                     f"test subject {fold.test_subject}")
        train_sessions = [by_subject[s] for s in fold.train_subjects]
        test_session = by_subject[fold.test_subject]

        weights, _ = tcn.train(tcn_config, train_sessions)
        _, pred_labels = tcn.predict(weights, test_session)
        pred_segments = segmentation.min_duration_filter(
            segmentation.extract_segments(pred_labels, vocab), min_duration
        )
        truth_segments = segmentation.extract_segments(test_session.labels, vocab)
        match = segmentation.match_segments(pred_segments, truth_segments,
                                            threshold)
        for c in set(match.per_class_tp) | set(agg_tp):
            agg_tp[c] = agg_tp.get(c, 0) + match.per_class_tp.get(c, 0)
            agg_fp[c] = agg_fp.get(c, 0) + match.per_class_fp.get(c, 0)
            agg_fn[c] = agg_fn.get(c, 0) + match.per_class_fn.get(c, 0)

        tc = segmentation.jump_counts(truth_segments, vocab)
        pc = segmentation.jump_counts(pred_segments, vocab)
        for name in count_rows_truth:
            count_rows_truth[name].append(tc[name])
            count_rows_pred[name].append(pc[name])

        X_train, y_train = feature_table(train_sessions, height_records,
                                         width, vocab)
        model = regression.fit(regressor_kind, X_train, y_train,
                               regressor_config)
        n = test_session.samples.shape[0]
        for pred_seg, truth_seg, _ in match.pairs:
            if not vocab.is_jump(truth_seg.class_id):
                continue
            pooled_truth_h.append(
                _height_of(heights, fold.test_subject, truth_seg))
            roi = segmentation.select_roi(pred_seg, n, width)
            window = segmentation.roi_window(roi, test_session.samples)
            vec = feat.extract_feature_vector(window, pred_seg.class_id, vocab)
            pooled_pred_h.append(regression.predict(model, vec))

    merged = segmentation.MatchResult([], [], [], threshold,
                                      agg_tp, agg_fp, agg_fn)
    seg = precision_recall_f1(merged, vocab)
    # MatchResult-level tp/fp/fn lists are empty in the merged aggregate;
    # SegMetrics carries the per-class counts instead.
    count_loa = {
        name: limits_of_agreement(count_rows_truth[name], count_rows_pred[name])
        for name in count_rows_truth
    }
    points, _ = bland_altman_points(pooled_truth_h, pooled_pred_h)
    metrics = reg_metrics(pooled_truth_h, pooled_pred_h)
    config_echo = {
        "iou_threshold": threshold,
        "roi_width": width,
        "min_duration": min_duration,
        "tcn": tcn.config_to_doc(tcn_config),
        "regressor": regressor_kind,
        "catalog_version": feat.CATALOG_VERSION,
        "num_subjects": len(subjects),
    }
    return EvalReport(seg, count_loa, metrics, points, config_echo)


def _counts_to_dict(cc: ClassCounts) -> dict:
    return {**asdict(cc), "precision": cc.precision, "recall": cc.recall,
            "f1": cc.f1}


def seg_metrics_to_dict(metrics: SegMetrics) -> dict:
    """JSON-ready segment metrics: a report's `seg_metrics` block and the
    `eval-seg` output."""
    return {
        "per_class": {k: _counts_to_dict(v)
                      for k, v in metrics.per_class.items()},
        "overall": _counts_to_dict(metrics.overall),
        "iou_threshold": metrics.iou_threshold,
    }


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready dictionary with the fixed report schema."""
    return {
        "seg_metrics": seg_metrics_to_dict(report.seg_metrics),
        "count_loa": {k: asdict(v) for k, v in report.count_loa.items()},
        "reg_metrics": asdict(report.reg_metrics),
        "bland_altman_points": [[m, d] for m, d in report.bland_altman_points],
        "config_echo": report.config_echo,
    }
