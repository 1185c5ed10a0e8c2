"""Command-line front-end for the jump detection + height estimation pipeline.

Subcommands: synth, train, predict, eval-seg, extract-features, fit-reg,
eval-reg, pipeline, importance. Exit codes: 0 success, 1 validation error,
2 I/O error. All randomness flows from --seed; every run writes a manifest
next to its outputs. Logs go to stderr, data to files.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, dataio, evaluation, features, regression
from . import segmentation as seg
from . import tcn
from .dataio import ParseError
from .nncore import DimensionError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _write_manifest(out_dir, command, config_echo, inputs, outputs):
    manifest = {
        "command": command,
        "config": config_echo,
        "inputs": inputs,
        "outputs": outputs,
        "versions": {
            "jumppipe": __version__,
            "checkpoint_format": dataio.CHECKPOINT_VERSION,
            "feature_catalog": features.CATALOG_VERSION,
        },
        "wall_clock_s": time.time(),
    }
    dataio.atomic_write_text(
        os.path.join(out_dir, "manifest.json"), json.dumps(manifest, indent=2)
    )


def _load_sessions(data_dir):
    paths = sorted(glob.glob(os.path.join(data_dir, "*.csv")))
    paths = [p for p in paths if os.path.basename(p) != "heights.csv"]
    if not paths:
        raise FileNotFoundError(f"no session CSVs in {data_dir}")
    return [dataio.read_session_csv(p) for p in paths]


def _tcn_config(args) -> tcn.MsTcnConfig:
    return tcn.MsTcnConfig(
        num_stages=args.stages,
        stage=tcn.SsTcnConfig(
            num_layers=args.layers,
            num_filters=args.filters,
            in_channels=6,
            num_classes=seg.DEFAULT_VOCAB.num_classes,
        ),
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
    )


def _add_tcn_flags(p, stages=2, layers=7, filters=16, epochs=20, lr=1e-3):
    p.add_argument("--stages", type=int, default=stages)
    p.add_argument("--layers", type=int, default=layers)
    p.add_argument("--filters", type=int, default=filters)
    p.add_argument("--epochs", type=int, default=epochs)
    p.add_argument("--lr", type=float, default=lr)


def _read_feature_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    expected = features.feature_names() + ["height_m"]
    if not lines or lines[0].split(",") != expected:
        raise ParseError(path, 1, "bad feature-matrix header")
    X, y = [], []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(expected):
            raise ParseError(path, ln, f"expected {len(expected)} cells")
        try:
            vals = [float(c) for c in cells]
        except ValueError:
            raise ParseError(path, ln, "non-numeric cell") from None
        X.append(vals[:-1])
        y.append(vals[-1])
    if not X:
        raise ParseError(path, 2, "no data rows")
    X, y = np.asarray(X), np.asarray(y)
    dataio.reject_non_finite(path, lines, np.column_stack([X, y]))
    return X, y


def _write_feature_csv(X, y, path):
    header = ",".join(features.feature_names() + ["height_m"])
    lines = [header]
    for row, h in zip(X, y):
        lines.append(",".join(f"{v:.9g}" for v in [*row, h]))
    dataio.atomic_write_text(path, "\n".join(lines) + "\n")


# ------------------------------------------------------------- subcommands

def _cmd_synth(args):
    cfg = dataio.SyntheticConfig(
        num_subjects=args.subjects,
        session_duration_s=args.duration,
        noise_std_g=args.noise,
        seed=args.seed,
    )
    sessions, heights = dataio.synth_generate(cfg)
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    for sess in sessions:
        path = os.path.join(args.out, f"{sess.subject_id}.csv")
        dataio.write_session_csv(sess, path)
        outputs.append(path)
    hpath = os.path.join(args.out, "heights.csv")
    dataio.write_heights(heights, hpath)
    outputs.append(hpath)
    _write_manifest(args.out, "synth",
                    {"subjects": args.subjects, "duration_s": args.duration,
                     "noise_std_g": args.noise, "seed": args.seed},
                    [], outputs)
    _log(f"wrote {len(sessions)} sessions + heights to {args.out}")
    return EXIT_OK


def _cmd_train(args):
    sessions = _load_sessions(args.data)
    config = _tcn_config(args)
    _log(f"training MS-TCN on {len(sessions)} sessions "
         f"({config.num_stages} stages, {config.stage.num_layers} layers)")
    weights, history = tcn.train(config, sessions)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "model.ckpt")
    dataio.save_checkpoint(weights, path)
    _write_manifest(args.out, "train",
                    {**tcn.config_to_doc(config),
                     "final_loss": history[-1] if history else None},
                    [args.data], [path])
    _log(f"saved model to {path}")
    return EXIT_OK


def _cmd_predict(args):
    weights = dataio.load_checkpoint(args.model, expect="mstcn")
    session = dataio.read_session_csv(args.session)
    _, labels = tcn.predict(weights, session)
    segments = seg.min_duration_filter(
        seg.extract_segments(labels), args.min_duration
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "pred_segments.csv")
    dataio.write_annotations(segments, path)
    _write_manifest(args.out, "predict",
                    {"min_duration": args.min_duration},
                    [args.model, args.session], [path])
    _log(f"{len(segments)} predicted segments -> {path}")
    return EXIT_OK


def _cmd_eval_seg(args):
    pred = dataio.read_annotations(args.pred)
    truth = dataio.read_annotations(args.truth)
    match = seg.match_segments(pred, truth, args.threshold)
    metrics = evaluation.precision_recall_f1(match)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "seg_metrics.json")
    dataio.atomic_write_text(
        path, json.dumps(evaluation.seg_metrics_to_dict(metrics), indent=2))
    _write_manifest(args.out, "eval-seg", {"threshold": args.threshold},
                    [args.pred, args.truth], [path])
    _log(f"overall F1 = {metrics.overall.f1:.4f} -> {path}")
    return EXIT_OK


def _cmd_extract_features(args):
    sessions = _load_sessions(args.data)
    heights = dataio.read_heights(os.path.join(args.data, "heights.csv"))
    X, y = evaluation.feature_table(sessions, heights, args.width)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "features.csv")
    _write_feature_csv(X, y, path)
    _write_manifest(args.out, "extract-features", {"width": args.width},
                    [args.data], [path])
    _log(f"{X.shape[0]} feature rows -> {path}")
    return EXIT_OK


def _cmd_fit_reg(args):
    X, y = _read_feature_csv(args.features)
    configs = {
        "rf": regression.RfConfig(seed=args.seed),
        "gbt": regression.GbtConfig(seed=args.seed),
        "mlp": regression.MlpRegConfig(seed=args.seed),
    }
    model = regression.fit(args.kind, X, y, configs[args.kind])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "regressor.ckpt")
    dataio.save_checkpoint(model, path)
    _write_manifest(args.out, "fit-reg",
                    {"kind": args.kind, "seed": args.seed},
                    [args.features], [path])
    _log(f"fitted {args.kind} on {X.shape[0]} rows -> {path}")
    return EXIT_OK


def _cmd_eval_reg(args):
    model = dataio.load_checkpoint(args.model, expect="regressor")
    X, y = _read_feature_csv(args.features)
    pred = regression.predict(model, X)
    metrics = evaluation.reg_metrics(y, pred)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "reg_metrics.json")
    dataio.atomic_write_text(path, json.dumps(asdict(metrics), indent=2))
    _write_manifest(args.out, "eval-reg", {}, [args.model, args.features],
                    [path])
    _log(f"R2 = {metrics.r2:.4f}, RMSE = {metrics.rmse:.4f} m -> {path}")
    return EXIT_OK


def _cmd_pipeline(args):
    sessions = _load_sessions(args.data)
    heights = dataio.read_heights(os.path.join(args.data, "heights.csv"))
    config = _tcn_config(args)
    report = evaluation.run_pipeline_eval(
        sessions, heights, config,
        regressor_kind=args.regressor,
        width=args.width,
        threshold=args.threshold,
        min_duration=args.min_duration,
        progress=_log,
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "report.json")
    dataio.atomic_write_text(
        path, json.dumps(evaluation.report_to_dict(report), indent=2)
    )
    ba_path = os.path.join(args.out, "bland_altman.csv")
    ba_lines = ["mean_m,diff_m"]
    ba_lines += [f"{m:.9g},{d:.9g}" for m, d in report.bland_altman_points]
    dataio.atomic_write_text(ba_path, "\n".join(ba_lines) + "\n")
    _write_manifest(args.out, "pipeline", report.config_echo,
                    [args.data], [path, ba_path])
    _log(f"F1 = {report.seg_metrics.overall.f1:.4f}, "
         f"R2 = {report.reg_metrics.r2:.4f} -> {path}")
    return EXIT_OK


def _cmd_importance(args):
    model = dataio.load_checkpoint(args.model, expect="regressor")
    X, y = _read_feature_csv(args.features)
    ranked = regression.permutation_importance(model, X, y,
                                               repeats=args.repeats,
                                               seed=args.seed)
    names = features.feature_names()
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "importance.csv")
    lines = ["feature,importance"]
    lines += [f"{names[j]},{v:.9g}" for j, v in ranked]
    dataio.atomic_write_text(path, "\n".join(lines) + "\n")
    _write_manifest(args.out, "importance",
                    {"repeats": args.repeats, "seed": args.seed},
                    [args.model, args.features], [path])
    _log(f"importance ranking -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------- parsing

def build_parser() -> _Parser:
    parser = _Parser(prog="jumppipe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", type=str, default=None,
                       help="key=value file; command-line flags override it")
        p.add_argument("--out", type=str, default=".")

    p = sub.add_parser("synth", help="generate synthetic labeled sessions")
    common(p, seeded=True)
    p.add_argument("--subjects", type=int, default=10)
    p.add_argument("--duration", type=float, default=170.0)
    p.add_argument("--noise", type=float, default=0.05)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train the MS-TCN on labeled sessions")
    common(p, seeded=True)
    p.add_argument("--data", required=True)
    _add_tcn_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict segments for one session")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--session", required=True)
    p.add_argument("--min-duration", type=int,
                   default=seg.DEFAULT_MIN_DURATION)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval-seg", help="segment metrics pred vs truth")
    common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--threshold", type=float, default=seg.DEFAULT_IOU_THRESHOLD)
    p.set_defaults(func=_cmd_eval_seg)

    p = sub.add_parser("extract-features",
                       help="feature matrix from annotated sessions")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--width", type=int, default=seg.DEFAULT_ROI_WIDTH)
    p.set_defaults(func=_cmd_extract_features)

    p = sub.add_parser("fit-reg", help="fit a height regressor")
    common(p, seeded=True)
    p.add_argument("--features", required=True)
    p.add_argument("--kind", choices=["rf", "gbt", "mlp"], default="rf")
    p.set_defaults(func=_cmd_fit_reg)

    p = sub.add_parser("eval-reg", help="regression metrics on a feature file")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.set_defaults(func=_cmd_eval_reg)

    p = sub.add_parser("pipeline", help="full LOSO evaluation")
    common(p, seeded=True)
    p.add_argument("--data", required=True)
    _add_tcn_flags(p)
    p.add_argument("--regressor", choices=["rf", "gbt", "mlp"], default="rf")
    p.add_argument("--width", type=int, default=seg.DEFAULT_ROI_WIDTH)
    p.add_argument("--threshold", type=float, default=seg.DEFAULT_IOU_THRESHOLD)
    p.add_argument("--min-duration", type=int,
                   default=seg.DEFAULT_MIN_DURATION)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("importance", help="permutation feature importance")
    common(p, seeded=True)
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--repeats", type=int, default=10)
    p.set_defaults(func=_cmd_importance)

    return parser


def _merge_config_file(argv: list[str]) -> list[str]:
    """Prepend config-file entries as flags so explicit flags win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        return argv
    path = argv[i + 1]
    extra = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: bad config line {raw.strip()!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            extra.extend([f"--{key.replace('_', '-')}", value])
    return [argv[0], *extra, *argv[1:]]


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        argv = _merge_config_file(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        _log(f"usage error: {e}")
        parser.print_usage(sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        _log(f"I/O error: {e}")
        return EXIT_IO
    except (ParseError, ValueError, DimensionError, KeyError,
            FloatingPointError, TypeError) as e:
        _log(f"error: {e}")
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
