"""The benchmark's three workloads, composed from jumppipe's public calls.

Each workload has a `setup()` that builds its inputs and models, and an
`op(i)` that runs one unit of work and returns an `OpResult`: the timings of
the unit and its stages, a sha256 of its outputs, and what the quality
metrics need. `quality(results)` turns a pass of results into the quality
metrics and the correctness verdict.

- loso-fold: one leave-one-subject-out fold at the criterion-7 config.
- stream: one unseen session CSV per request, detection through heights.
- height-fit: the README's regression path through `cli.cli_dispatch`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from jumppipe import cli, dataio, evaluation, features, regression, tcn
from jumppipe import segmentation as seg

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
STREAM_MODEL = os.path.join(BENCH_DIR, "stream_model.ckpt")
STREAM_MODEL_SHA = STREAM_MODEL + ".sha256"
VOCAB = seg.DEFAULT_VOCAB
HELD_OUT = 9  # loso-fold and height-fit hold out the last of 10 subjects


def criterion7_config() -> tcn.MsTcnConfig:
    """2 stages x 7 layers x 16 filters, 20 epochs at lr 1e-3 (criterion 7)."""
    return tcn.MsTcnConfig(
        num_stages=2,
        stage=tcn.SsTcnConfig(num_layers=7, num_filters=16),
        epochs=20, lr=1e-3, seed=0,
    )


def default_dataset(seed: int) -> dataio.SyntheticConfig:
    """The default synthetic dataset (10 subjects x 170 s) for a seed."""
    return dataio.SyntheticConfig(seed=seed)


@dataclass
class OpResult:
    times: dict  # metric name -> seconds: op_s, features_s, regress_s
    digest: str
    quality: dict = field(default_factory=dict)


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def heights_by_subject(height_records) -> dict:
    """subject id -> {(start, end, class_id): height_m}."""
    out = {}
    for r in height_records:
        key = (r.segment.start, r.segment.end, r.segment.class_id)
        out.setdefault(r.subject_id, {})[key] = r.height_m
    return out


def ground_truth_features(sessions, heights, width=seg.DEFAULT_ROI_WIDTH):
    """Feature rows and heights of every annotated height-eligible segment."""
    X, y = [], []
    for sess in sessions:
        n = sess.samples.shape[0]
        for s in seg.extract_segments(sess.labels, VOCAB):
            if not VOCAB.is_jump(s.class_id):
                continue
            window = seg.roi_window(seg.select_roi(s, n, width), sess.samples)
            X.append(features.extract_feature_vector(window, s.class_id, VOCAB))
            y.append(heights[sess.subject_id][(s.start, s.end, s.class_id)])
    return np.asarray(X), np.asarray(y)


def add_match_counts(totals, match) -> None:
    """Add a match's per-class counts into totals["tp"|"fp"|"fn"][class]."""
    for kind, per_class in (("tp", match.per_class_tp),
                            ("fp", match.per_class_fp),
                            ("fn", match.per_class_fn)):
        for c, v in per_class.items():
            totals[kind][c] = totals[kind].get(c, 0) + v


# ------------------------------------------------------------- loso-fold

@dataclass
class FoldResult:
    pred_labels: np.ndarray
    match: seg.MatchResult
    truth_h: list
    pred_h: list
    features_s: float
    regress_s: float


def run_fold(sessions, heights, test_index, config, regressor_kind="rf",
             width=seg.DEFAULT_ROI_WIDTH, threshold=seg.DEFAULT_IOU_THRESHOLD,
             min_duration=seg.DEFAULT_MIN_DURATION) -> FoldResult:
    """The per-fold body of `evaluation.run_pipeline_eval`, call for call."""
    train_sessions = [s for i, s in enumerate(sessions) if i != test_index]
    test = sessions[test_index]
    weights, _ = tcn.train(config, train_sessions)
    _, pred_labels = tcn.predict(weights, test)
    pred_segments = seg.min_duration_filter(
        seg.extract_segments(pred_labels, VOCAB), min_duration)
    truth_segments = seg.extract_segments(test.labels, VOCAB)
    match = seg.match_segments(pred_segments, truth_segments, threshold)

    t0 = time.perf_counter()
    X, y = ground_truth_features(train_sessions, heights, width)
    features_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    model = regression.fit(regressor_kind, X, y, None)
    regress_s = time.perf_counter() - t0

    test_heights = heights[test.subject_id]
    n = test.samples.shape[0]
    truth_h, pred_h = [], []
    for pred_seg, truth_seg, _ in match.pairs:
        if not VOCAB.is_jump(truth_seg.class_id):
            continue
        t0 = time.perf_counter()
        window = seg.roi_window(seg.select_roi(pred_seg, n, width),
                                test.samples)
        vec = features.extract_feature_vector(window, pred_seg.class_id, VOCAB)
        t1 = time.perf_counter()
        pred_h.append(regression.predict(model, vec))
        regress_s += time.perf_counter() - t1
        features_s += t1 - t0
        truth_h.append(
            test_heights[(truth_seg.start, truth_seg.end, truth_seg.class_id)])
    return FoldResult(pred_labels, match, truth_h, pred_h, features_s,
                      regress_s)


class LosoFold:
    """One LOSO fold (train on 9 subjects, evaluate the held-out one)."""

    name = "loso-fold"
    setup_repeats = 15

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed

    def setup(self):
        sessions, records = dataio.synth_generate(default_dataset(self.seed))
        self.sessions = sessions
        self.heights = heights_by_subject(records)
        self.config = criterion7_config()

    def op(self, i: int) -> OpResult:
        t0 = time.perf_counter()
        fold = run_fold(self.sessions, self.heights, HELD_OUT, self.config)
        op_s = time.perf_counter() - t0
        seg_metrics = evaluation.precision_recall_f1(fold.match, VOCAB)
        return OpResult(
            {"op_s": op_s, "features_s": fold.features_s,
             "regress_s": fold.regress_s},
            _sha(fold.pred_labels.astype(np.int64),
                 np.asarray(fold.pred_h, dtype=np.float64)),
            {"seg_f1": seg_metrics.overall.f1,
             "height_rmse_m": evaluation.rmse(fold.truth_h, fold.pred_h),
             "height_r2": evaluation.r_squared(fold.truth_h, fold.pred_h),
             "tp_jumps": len(fold.truth_h)},
        )

    def quality(self, results):
        q = dict(results[0].quality)
        ok = (q["seg_f1"] >= 0.85 and q["height_rmse_m"] <= 0.07
              and len({r.digest for r in results}) == 1)
        checks = ["criterion-7 gates: F1 >= 0.85, RMSE <= 0.07 m",
                  "every fold of the run byte-identical"]
        try:
            passed, detail = composed_fold_selftest()
        except Exception as e:  # a raising program fails the check, not the run
            passed, detail = False, f"composed-fold self-test raised {e!r}"
        ok = ok and passed
        checks.append(detail)
        return q, ok, checks


def composed_fold_selftest():
    """Sum `run_fold` over every fold of criterion 8's tiny dataset and
    compare with `evaluation.run_pipeline_eval` on the same inputs."""
    sessions, records = dataio.synth_generate(dataio.SyntheticConfig(
        num_subjects=3, jumps_per_class={"CMJ": 2, "Block": 2},
        session_duration_s=25.0, seed=11))
    config = tcn.MsTcnConfig(
        num_stages=1, stage=tcn.SsTcnConfig(num_layers=5, num_filters=8),
        epochs=30, lr=1e-3, seed=0)
    heights = heights_by_subject(records)
    counts = {"tp": {}, "fp": {}, "fn": {}}
    truth_h, pred_h = [], []
    for k in range(len(sessions)):
        fold = run_fold(sessions, heights, k, config)
        add_match_counts(counts, fold.match)
        truth_h += fold.truth_h
        pred_h += fold.pred_h
    report = evaluation.run_pipeline_eval(sessions, records, config)
    expected = {kind: {VOCAB.index(name): getattr(cc, kind)
                       for name, cc in report.seg_metrics.per_class.items()}
                for kind in counts}
    points = (evaluation.bland_altman_points(truth_h, pred_h)[0]
              if len(truth_h) >= 2 else [])
    same = counts == expected and points == report.bland_altman_points
    return same, (f"composed folds equal run_pipeline_eval on criterion 8's "
                  f"dataset ({len(truth_h)} TP jumps): {same}")


# ----------------------------------------------------------------- stream

STREAM_DURATION_S = (60.0, 240.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def stream_session(seed: int, i: int):
    """Session i of the stream: (unlabeled session, truth labels, heights).

    Durations follow a golden-ratio sequence from a seeded offset, so every
    run sees nearly the same spread of lengths; the jump count and mix, the
    script and the noise are drawn from (seed, i). None repeats the seed-42
    training dataset of the stream model.
    """
    offset = np.random.default_rng(seed).random()
    lo, hi = STREAM_DURATION_S
    duration = round(lo + (hi - lo) * ((offset + i * GOLDEN) % 1.0), 2)
    rng = np.random.default_rng([seed, i])
    # an event with its gap takes at most 4 s, the lead-in at most 2 s
    max_events = int((duration - 2.0) // 4.0)
    n_events = int(rng.integers(max_events // 2, max_events + 1))
    names = list(dataio.DEFAULT_JUMPS_PER_CLASS)
    weights = np.array([dataio.DEFAULT_JUMPS_PER_CLASS[c] for c in names],
                       dtype=np.float64)
    drawn = rng.choice(len(names), size=n_events, p=weights / weights.sum())
    jumps = {c: int((drawn == k).sum()) for k, c in enumerate(names)
             if (drawn == k).any()}
    sessions, records = dataio.synth_generate(dataio.SyntheticConfig(
        num_subjects=1, jumps_per_class=jumps, session_duration_s=duration,
        seed=int(rng.integers(2**32)) + 1000))
    truth = sessions[0]
    unlabeled = dataio.ImuSession(f"stream{i:05d}", truth.samples)
    heights = {(r.segment.start, r.segment.end, r.segment.class_id): r.height_m
               for r in records}
    return unlabeled, truth.labels, heights


def verify_stream_model() -> None:
    """Refuse a stream model whose sha256 differs from the recorded one."""
    with open(STREAM_MODEL_SHA) as fh:
        expected = fh.read().split()[0]
    with open(STREAM_MODEL, "rb") as fh:
        actual = hashlib.sha256(fh.read()).hexdigest()
    if actual != expected:
        raise ValueError(f"{STREAM_MODEL}: sha256 {actual} does not match "
                         f"the recorded {expected}")


class Stream:
    """Closed loop, one client: each request is a distinct unseen session."""

    name = "stream"
    setup_repeats = 3

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self):
        verify_stream_model()
        self.weights = dataio.load_checkpoint(STREAM_MODEL, expect="mstcn")
        sessions, records = dataio.synth_generate(default_dataset(42))
        X, y = ground_truth_features(sessions, heights_by_subject(records))
        self.model = regression.fit("rf", X, y, None)

    def request(self, path):
        """One deployed request: CSV -> labels -> segments -> heights."""
        session = dataio.read_session_csv(path)
        _, labels = tcn.predict(self.weights, session)
        segments = seg.min_duration_filter(seg.extract_segments(labels, VOCAB))
        eligible = [s for s in segments if VOCAB.is_jump(s.class_id)]
        t0 = time.perf_counter()
        n = session.samples.shape[0]
        rows = [features.extract_feature_vector(
                    seg.roi_window(seg.select_roi(s, n), session.samples),
                    s.class_id, VOCAB)
                for s in eligible]
        t1 = time.perf_counter()
        heights = (regression.predict(self.model, np.asarray(rows))
                   if rows else np.empty(0))
        t2 = time.perf_counter()
        return labels, segments, eligible, heights, t1 - t0, t2 - t1

    def op(self, i: int) -> OpResult:
        session, truth_labels, truth_heights = stream_session(self.seed, i)
        path = os.path.join(self.work_dir, f"{session.subject_id}.csv")
        dataio.write_session_csv(session, path)
        try:
            t0 = time.perf_counter()
            labels, segments, eligible, heights, feat_s, reg_s = \
                self.request(path)
            op_s = time.perf_counter() - t0
        finally:
            os.unlink(path)
        match = seg.match_segments(segments,
                                   seg.extract_segments(truth_labels, VOCAB))
        by_segment = dict(zip(eligible, heights))
        truth_h, pred_h = [], []
        for p, t, _ in match.pairs:
            if VOCAB.is_jump(t.class_id):
                truth_h.append(truth_heights[(t.start, t.end, t.class_id)])
                pred_h.append(float(by_segment[p]))
        return OpResult(
            {"op_s": op_s, "features_s": feat_s, "regress_s": reg_s},
            _sha(labels.astype(np.int64), np.asarray(heights, np.float64)),
            {"match": match, "truth_h": truth_h, "pred_h": pred_h,
             "finite": bool(np.all(np.isfinite(heights)))},
        )

    def quality(self, results):
        merged = {"tp": {}, "fp": {}, "fn": {}}
        truth_h, pred_h = [], []
        for r in results:
            add_match_counts(merged, r.quality["match"])
            truth_h += r.quality["truth_h"]
            pred_h += r.quality["pred_h"]
        pooled = seg.MatchResult([], [], [], seg.DEFAULT_IOU_THRESHOLD,
                                 merged["tp"], merged["fp"], merged["fn"])
        f1 = evaluation.precision_recall_f1(pooled, VOCAB).overall.f1
        q = {"seg_f1": f1, "tp_jumps": len(truth_h)}
        ok = all(r.quality["finite"] for r in results) and len(truth_h) >= 2
        if ok:
            q["height_rmse_m"] = evaluation.rmse(truth_h, pred_h)
            q["height_r2"] = evaluation.r_squared(truth_h, pred_h)
        return q, ok, ["every predicted height finite", "at least two TP jumps"]


# ------------------------------------------------------------- height-fit

REGRESSORS = ("rf", "gbt", "mlp")


class HeightFit:
    """extract-features, fit-reg x3, eval-reg x3 and importance via the CLI."""

    name = "height-fit"
    setup_repeats = 3

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.train_dir = os.path.join(work_dir, "train")
        self.test_dir = os.path.join(work_dir, "held_out")

    def setup(self):
        sessions, records = dataio.synth_generate(default_dataset(self.seed))
        held_out = sessions[HELD_OUT].subject_id
        for d in (self.train_dir, self.test_dir):
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d)
        for sess in sessions:
            d = self.test_dir if sess.subject_id == held_out else self.train_dir
            dataio.write_session_csv(sess, os.path.join(d, f"{sess.subject_id}.csv"))
        dataio.write_heights([r for r in records if r.subject_id != held_out],
                             os.path.join(self.train_dir, "heights.csv"))
        dataio.write_heights([r for r in records if r.subject_id == held_out],
                             os.path.join(self.test_dir, "heights.csv"))

    def _run(self, argv):
        rc = cli.cli_dispatch(argv)
        if rc != cli.EXIT_OK:
            raise RuntimeError(f"jumppipe {' '.join(argv)} exited with {rc}")

    def op(self, i: int) -> OpResult:
        out = os.path.join(self.work_dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        p = lambda *parts: os.path.join(out, *parts)
        train_csv = p("feat_train", "features.csv")
        test_csv = p("feat_held_out", "features.csv")
        stage = {}

        def timed(key, argv):
            t0 = time.perf_counter()
            self._run(argv)
            stage[key] = stage.get(key, 0.0) + time.perf_counter() - t0

        t0 = time.perf_counter()
        timed("features_s", ["extract-features", "--data", self.train_dir,
                             "--out", p("feat_train")])
        timed("features_s", ["extract-features", "--data", self.test_dir,
                             "--out", p("feat_held_out")])
        for kind in REGRESSORS:
            timed(f"{kind}_fit_s", ["fit-reg", "--features", train_csv,
                                    "--kind", kind, "--out", p(f"reg_{kind}")])
        for kind in REGRESSORS:
            timed("eval_s", ["eval-reg", "--model",
                             p(f"reg_{kind}", "regressor.ckpt"),
                             "--features", test_csv, "--out", p(f"eval_{kind}")])
        timed("importance_s", ["importance", "--model",
                               p("reg_rf", "regressor.ckpt"),
                               "--features", test_csv, "--out", p("importance")])
        op_s = time.perf_counter() - t0

        h = hashlib.sha256()
        quality = {}
        files = [train_csv, test_csv, p("importance", "importance.csv")]
        for kind in REGRESSORS:
            path = p(f"eval_{kind}", "reg_metrics.json")
            files.append(path)
            with open(path) as fh:
                doc = json.load(fh)
            quality[f"{kind}_rmse_m"] = doc["rmse"]
            quality[f"{kind}_r2"] = doc["r2"]
        for path in files:
            with open(path, "rb") as fh:
                h.update(fh.read())
        quality["height_r2"] = quality["rf_r2"]
        quality["tp_jumps"] = doc["n"]
        times = {"op_s": op_s, "features_s": stage["features_s"],
                 "regress_s": op_s - stage["features_s"], **stage}
        return OpResult(times, h.hexdigest(), quality)

    def quality(self, results):
        q = dict(results[0].quality)
        ok = (all(math.isfinite(q[f"{k}_rmse_m"]) for k in REGRESSORS)
              and len({r.digest for r in results}) == 1)
        return q, ok, ["held-out RMSE finite for rf, gbt and mlp",
                       "every pass of the run byte-identical"]


WORKLOADS = {w.name: w for w in (LosoFold, Stream, HeightFit)}
