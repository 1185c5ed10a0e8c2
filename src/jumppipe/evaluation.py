"""Metrics and the leave-one-subject-out experiment harness.

Covers Bland-Altman limits of agreement on per-subject jump counts,
IoU-thresholded segment precision/recall/F1, the height-regression metrics
(R^2, RMSE, MAPE, Pearson r), permutation feature importance, and the
end-to-end pipeline evaluation that chains detection, feature extraction
and regression per LOSO fold.
"""

from __future__ import annotations

from collections import Counter
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
    tp: int
    fp: int
    fn: int

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
class EvalReport:
    seg_metrics: SegMetrics
    count_loa: dict  # class name (+ "total") -> AgreementStats
    reg_metrics: RegMetrics | None  # None with fewer than 2 TP jumps
    bland_altman_points: list  # (mean, diff) pairs over pooled TP jumps
    config_echo: dict


def _paired(truth, pred) -> tuple[np.ndarray, np.ndarray]:
    """truth and pred as float64, refused unless they have one shape: numpy
    would otherwise broadcast one prediction against every truth value."""
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if truth.shape != pred.shape:
        raise ValueError(f"truth and predictions differ in length: truth has "
                         f"shape {truth.shape}, predictions {pred.shape}")
    return truth, pred


def limits_of_agreement(truth_counts, pred_counts) -> AgreementStats:
    """Bland-Altman stats of per-subject differences, diff = truth - pred."""
    truth, pred = _paired(truth_counts, pred_counts)
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


def _r2_truth(truth) -> np.ndarray:
    """`truth` as float64, refused where R^2 is undefined for it."""
    truth = np.asarray(truth, dtype=np.float64)
    if truth.size < 2:
        raise ValueError("r_squared needs at least 2 points")
    if np.ptp(truth) == 0:  # its sum of squares may round to nonzero
        raise ValueError("r_squared undefined for constant truth")
    return truth


def r_squared(truth, pred) -> float:
    truth, pred = _paired(truth, pred)
    truth = _r2_truth(truth)
    ss_tot = ((truth - truth.mean()) ** 2).sum()
    return float(1.0 - ((truth - pred) ** 2).sum() / ss_tot)


def rmse(truth, pred) -> float:
    truth, pred = _paired(truth, pred)
    return float(np.sqrt(((truth - pred) ** 2).mean()))


def mape(truth, pred) -> float:
    """Mean absolute percentage error, as a fraction."""
    truth, pred = _paired(truth, pred)
    if np.any(truth == 0):
        raise ValueError("MAPE undefined for zero truth values")
    return float(np.abs((truth - pred) / truth).mean())


def pearson_r(truth, pred) -> float:
    truth, pred = _paired(truth, pred)
    if truth.size < 2:
        raise ValueError("pearson_r needs at least 2 points")
    st = truth.std()
    sp = pred.std()
    if np.ptp(truth) == 0 or np.ptp(pred) == 0:  # std may round to nonzero
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


def permutation_importance(model, X, y, repeats: int,
                           seed: int) -> list[tuple[int, float]]:
    """Per-feature drop in R^2 when the feature column is shuffled, the mean
    over `repeats` permutations. One predict call per feature takes all its
    permuted repeats stacked together.

    Returns (feature index, importance) pairs sorted by descending
    importance, ties broken by feature index.
    """
    X = np.asarray(X, dtype=np.float64)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    y = _r2_truth(y)  # before any prediction
    baseline = r_squared(y, regression.predict(model, X))
    rng = np.random.default_rng(seed)
    # The repeats of one column are stacked and predicted together; stacking
    # every column too would hold repeats * rows * features**2 values.
    stacked = np.tile(X, (repeats, 1))
    importances = []
    for j in range(X.shape[1]):
        stacked[:, j] = np.concatenate([rng.permutation(X[:, j])
                                        for _ in range(repeats)])
        preds = regression.predict(model, stacked).reshape(repeats, -1)
        stacked[:, j] = np.tile(X[:, j], repeats)
        drops = [baseline - r_squared(y, pred) for pred in preds]
        importances.append((j, float(np.mean(drops))))
    importances.sort(key=lambda t: (-t[1], t[0]))
    return importances


def bland_altman_points(truth, pred):
    """Plot-ready (mean, diff) pairs plus agreement stats over the diffs."""
    truth, pred = _paired(truth, pred)
    if truth.size < 2:
        raise ValueError("bland_altman_points needs at least 2 points")
    points = [((t + p) / 2.0, t - p) for t, p in zip(truth, pred)]
    return points, limits_of_agreement(truth, pred)


def _height_lookup(height_records) -> dict:
    """(subject_id, start, end, class_id) -> height_m."""
    return {(r.subject_id, r.segment.start, r.segment.end, r.segment.class_id):
            r.height_m for r in height_records}


class MissingHeightError(ValueError):
    """A height-eligible segment that the height records do not cover."""


def _height_of(heights, subject_id, segment) -> float:
    key = (subject_id, segment.start, segment.end, segment.class_id)
    if key not in heights:
        raise MissingHeightError(f"missing height for segment {key[1:]} of "
                                 f"subject {subject_id!r}")
    return heights[key]


def _window(session, segment, width: int) -> np.ndarray:
    """The `width`-sample ROI window around a segment of the session."""
    roi = segmentation.select_roi(segment, session.samples.shape[0], width)
    return segmentation.roi_window(roi, session.samples)


def feature_table(sessions, height_records, width: int):
    """Feature matrix + height targets of every annotated height-eligible
    segment, session by session in temporal order (zero rows if none). The
    windows of a session go through `features.feature_rows` together."""
    heights = _height_lookup(height_records)
    X, y = [], []
    for sess in sessions:
        if sess.labels is None:
            raise ValueError(f"session {sess.subject_id!r} has no labels")
        jumps = [seg for seg in segmentation.extract_segments(sess.labels)
                 if DEFAULT_VOCAB.is_jump(seg.class_id)]
        if not jumps:
            continue
        y += [_height_of(heights, sess.subject_id, seg) for seg in jumps]
        X.append(feat.feature_rows(
            [_window(sess, seg, width) for seg in jumps],
            [DEFAULT_VOCAB.jump_ordinal(seg.class_id) for seg in jumps]))
    n_features = len(feat.feature_names())
    return np.concatenate(X or [np.empty((0, n_features))]), np.asarray(y)


def run_pipeline_eval(
    sessions,
    height_records,
    tcn_config: tcn.MsTcnConfig,
    regressor_kind: str = "rf",
    width: int = DEFAULT_ROI_WIDTH,
    threshold: float = DEFAULT_IOU_THRESHOLD,
    min_duration: int = segmentation.DEFAULT_MIN_DURATION,
    progress=None,
) -> EvalReport:
    """Full LOSO evaluation of the two-stage pipeline.

    Per fold: train the MS-TCN on the train subjects, predict the held-out
    subject, extract and filter predicted segments, match against annotation
    at the IoU threshold, then predict heights for the TP segments with a
    regressor fit on the train subjects' ground-truth segments. Jump heights
    are pooled across folds for the regression metrics; with fewer than 2
    TP jumps there are none, and no Bland-Altman points.
    """
    segmentation.check_iou_threshold(threshold)
    sessions = list(sessions)
    ids = [s.subject_id for s in sessions]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate subject ids")
    if len(ids) < 2:
        raise ValueError("LOSO needs at least 2 subjects")
    heights = _height_lookup(height_records)
    # Every subject's table, built once for all folds: an unlabeled session, a
    # missing height or a fold with no training jump fails before training.
    tables = [feature_table([s], height_records, width) for s in sessions]
    for k, test_id in enumerate(ids):
        if not any(y.size for _, y in tables[:k] + tables[k + 1:]):
            raise ValueError(f"fold {k + 1}/{len(ids)} (test subject "
                             f"{test_id}): no training subject has a "
                             f"height-eligible jump")

    tp, fp, fn = Counter(), Counter(), Counter()
    fold_counts = []  # (truth, predicted) jump counts of each fold
    pooled_truth_h, pooled_pred_h = [], []
    # Fold k holds out subject k and trains on the others, in id order.
    for k, test_session in enumerate(sessions):
        if progress:
            progress(f"fold {k + 1}/{len(ids)}: test subject {ids[k]}")
        weights, _ = tcn.train(tcn_config, sessions[:k] + sessions[k + 1:])
        _, pred_labels = tcn.predict(weights, test_session)
        pred_segments = segmentation.min_duration_filter(
            segmentation.extract_segments(pred_labels), min_duration
        )
        truth_segments = segmentation.extract_segments(test_session.labels)
        match = segmentation.match_segments(pred_segments, truth_segments,
                                            threshold)
        tp.update(match.per_class_tp)
        fp.update(match.per_class_fp)
        fn.update(match.per_class_fn)
        fold_counts.append((segmentation.jump_counts(truth_segments),
                            segmentation.jump_counts(pred_segments)))

        X_train, y_train = map(np.concatenate,
                               zip(*tables[:k], *tables[k + 1:]))
        model = regression.fit(regressor_kind, X_train, y_train, None)
        for pred_seg, truth_seg, _ in match.pairs:
            if not DEFAULT_VOCAB.is_jump(truth_seg.class_id):
                continue
            pooled_truth_h.append(_height_of(heights, ids[k], truth_seg))
            vec = feat.extract_feature_vector(
                _window(test_session, pred_seg, width), pred_seg.class_id)
            pooled_pred_h.append(regression.predict(model, vec))

    seg = precision_recall_f1(
        segmentation.MatchResult([], [], [], threshold, tp, fp, fn))
    count_loa = {
        name: limits_of_agreement([t[name] for t, _ in fold_counts],
                                  [p[name] for _, p in fold_counts])
        for name in fold_counts[0][0]
    }
    points, metrics = [], None
    if len(pooled_truth_h) >= 2:
        points, _ = bland_altman_points(pooled_truth_h, pooled_pred_h)
        metrics = reg_metrics(pooled_truth_h, pooled_pred_h)
    config_echo = {
        "iou_threshold": threshold,
        "roi_width": width,
        "min_duration": min_duration,
        "tcn": tcn.config_to_doc(tcn_config),
        "regressor": regressor_kind,
        "catalog_version": feat.CATALOG_VERSION,
        "num_subjects": len(sessions),
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
        "reg_metrics": (asdict(report.reg_metrics) if report.reg_metrics
                        else None),
        "bland_altman_points": [[m, d] for m, d in report.bland_altman_points],
        "config_echo": report.config_echo,
    }
