"""Command-line front-end for the jump detection + height estimation pipeline.

Subcommands: synth, train, predict, eval-seg, extract-features, fit-reg,
eval-reg, pipeline, importance. Exit codes: 0 success, 1 validation error,
2 I/O error. All randomness flows from --seed; every run writes a manifest
next to its outputs. Logs go to stderr, data to files.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import sys
import time
from dataclasses import asdict

from . import __version__, dataio, evaluation, features, regression
from . import segmentation as seg
from . import tcn

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


def _write_json(path, doc) -> None:
    dataio.atomic_write_text(path, json.dumps(doc, indent=2))


def _load_sessions(data_dir):
    paths = sorted(glob.glob(os.path.join(data_dir, "*.csv")))
    paths = [p for p in paths if os.path.basename(p) != "heights.csv"]
    if not paths:
        raise FileNotFoundError(f"no session CSVs in {data_dir}")
    return [dataio.read_session_csv(p) for p in paths]


def _load_dataset(data_dir):
    """Sessions, height records and heights path of a data directory. The
    sessions are read first, so a malformed session is reported even if
    `heights.csv` is bad."""
    sessions = _load_sessions(data_dir)
    path = os.path.join(data_dir, "heights.csv")
    return sessions, dataio.read_heights(path), path


@contextlib.contextmanager
def _blame(where, error):
    """Re-raise an `error` of the block as a ValueError that begins with
    `where`, the input files it is about."""
    try:
        yield
    except error as e:
        raise ValueError(f"{where}: {e}") from None


def _load_model(path, expect):
    """The checkpoint at `path` if it fits the commands' inputs: an MS-TCN
    from the 6 IMU channels to the 8 classes, or a regressor of the feature
    catalog. `tcn` and `regression` themselves take any shape."""
    model = dataio.load_checkpoint(path, expect)
    if expect == "mstcn":
        stage = model.config.stage
        have = (stage.in_channels, stage.num_classes)
        need = (len(features.CHANNEL_NAMES), seg.DEFAULT_VOCAB.num_classes)
        what = "(channels, classes)"
    else:
        have, need = model.input_dim, len(features.feature_names())
        what = "features"
    if have != need:
        raise ValueError(f"{path}: the model takes {have} {what}, "
                         f"not the {need} of jumppipe's data")
    return model


def _tcn_config(args) -> tcn.MsTcnConfig:
    return tcn.MsTcnConfig(
        num_stages=args.stages,
        stage=tcn.SsTcnConfig(num_layers=args.layers, num_filters=args.filters),
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
    )


# ------------------------------------------------------------- subcommands
# A command reads its inputs, writes each output to the path `out(name)`
# gives it and returns its log message; `_run` does the rest.

def _cmd_synth(args, out):
    cfg = dataio.SyntheticConfig(
        num_subjects=args.subjects,
        session_duration_s=args.duration,
        noise_std_g=args.noise,
        seed=args.seed,
    )
    sessions, heights = dataio.synth_generate(cfg)
    for sess in sessions:
        dataio.write_session_csv(sess, out(f"{sess.subject_id}.csv"))
    dataio.write_heights(heights, out("heights.csv"))
    return f"{len(sessions)} sessions + heights"


def _cmd_train(args, out):
    config = _tcn_config(args)
    sessions = _load_sessions(args.data)
    _log(f"training MS-TCN on {len(sessions)} sessions "
         f"({config.num_stages} stages, {config.stage.num_layers} layers)")
    weights, history = tcn.train(config, sessions)
    dataio.save_checkpoint(weights, out("model.ckpt"))
    loss = f", final loss {history[-1]:.6g}" if history else ""
    return f"trained MS-TCN{loss}"


def _cmd_predict(args, out):
    weights = _load_model(args.model, "mstcn")
    session = dataio.read_session_csv(args.session)
    _, labels = tcn.predict(weights, session)
    segments = seg.min_duration_filter(
        seg.extract_segments(labels), args.min_duration
    )
    dataio.write_annotations(segments, out("pred_segments.csv"))
    return f"{len(segments)} predicted segments"


def _cmd_eval_seg(args, out):
    pred = dataio.read_annotations(args.pred)
    truth = dataio.read_annotations(args.truth)
    match = seg.match_segments(pred, truth, args.threshold)
    metrics = evaluation.precision_recall_f1(match)
    _write_json(out("seg_metrics.json"), evaluation.seg_metrics_to_dict(metrics))
    return f"overall F1 = {metrics.overall.f1:.4f}"


def _cmd_extract_features(args, out):
    sessions, heights, heights_path = _load_dataset(args.data)
    with _blame(heights_path, evaluation.MissingHeightError):
        X, y = evaluation.feature_table(sessions, heights, args.width)
    dataio.write_feature_csv(X, y, out("features.csv"))
    return f"{X.shape[0]} feature rows"


def _cmd_fit_reg(args, out):
    X, y = dataio.read_feature_csv(args.features)
    configs = {
        "rf": regression.RfConfig(seed=args.seed),
        "gbt": regression.GbtConfig(),
        "mlp": regression.MlpRegConfig(seed=args.seed),
    }
    model = regression.fit(args.kind, X, y, configs[args.kind])
    dataio.save_checkpoint(model, out("regressor.ckpt"))
    return f"fitted {args.kind} on {X.shape[0]} rows"


def _cmd_eval_reg(args, out):
    model = _load_model(args.model, "regressor")
    X, y = dataio.read_feature_csv(args.features)
    # too few or constant heights, or constant predictions
    with _blame(f"{args.model} on {args.features}", ValueError):
        metrics = evaluation.reg_metrics(y, regression.predict(model, X))
    _write_json(out("reg_metrics.json"), asdict(metrics))
    return f"R2 = {metrics.r2:.4f}, RMSE = {metrics.rmse:.4f} m"


def _cmd_pipeline(args, out):
    config = _tcn_config(args)
    sessions, heights, heights_path = _load_dataset(args.data)
    with _blame(heights_path, evaluation.MissingHeightError):
        report = evaluation.run_pipeline_eval(
            sessions, heights, config,
            regressor_kind=args.regressor,
            width=args.width,
            threshold=args.threshold,
            min_duration=args.min_duration,
            progress=_log,
        )
    _write_json(out("report.json"), evaluation.report_to_dict(report))
    dataio.write_csv(out("bland_altman.csv"), ["mean_m", "diff_m"],
                     report.bland_altman_points)
    overall, reg = report.seg_metrics.overall, report.reg_metrics
    height = (f"R2 = {reg.r2:.4f}" if reg else
              f"no height metrics: {overall.tp} true-positive jumps, "
              f"at least 2 needed")
    return f"F1 = {overall.f1:.4f}, {height}"


def _cmd_importance(args, out):
    model = _load_model(args.model, "regressor")
    X, y = dataio.read_feature_csv(args.features)
    with _blame(args.features, ValueError):  # constant heights
        ranked = evaluation.permutation_importance(model, X, y,
                                                   repeats=args.repeats,
                                                   seed=args.seed)
    names = features.feature_names()
    dataio.write_csv(out("importance.csv"), ["feature", "importance"],
                     ((names[j], v) for j, v in ranked))
    return "importance ranking"


def _run(args) -> int:
    """Run a command: create `--out` when the command asks for its first
    output path, then write the manifest, whose config holds the value of
    each flag that `COMMANDS` declares for the command, and log the
    command's message."""
    outputs = []

    def out(name):
        os.makedirs(args.out, exist_ok=True)
        outputs.append(os.path.join(args.out, name))
        return outputs[-1]

    func, _, inputs, flags = COMMANDS[args.command]
    for flag, least in (("seed", 0), ("width", 4),  # 4 for kurtosis
                        ("min_duration", 0), ("repeats", 1)):
        if getattr(args, flag, least) < least:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= {least}")
    message = func(args, out)
    dests = [flag.replace("-", "_") for flag in flags]
    _write_json(os.path.join(args.out, "manifest.json"), {
        "command": args.command,
        "config": {dest: getattr(args, dest) for dest in dests},
        "inputs": [getattr(args, name) for name in inputs],
        "outputs": outputs,
        "versions": {
            "jumppipe": __version__,
            "checkpoint_format": dataio.CHECKPOINT_VERSION,
            "feature_catalog": features.CATALOG_VERSION,
        },
        "wall_clock_s": time.time(),
    })
    _log(f"{message} -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- parsing

# Every flag once, as its argparse keywords; a flag that sets a config field
# takes that field's default.
FLAGS = {
    "config": dict(type=str, default=None,
                   help="key=value file; command-line flags override it"),
    "out": dict(type=str, default="."),
    "seed": dict(type=int, default=0),
    "subjects": dict(type=int, default=dataio.SyntheticConfig.num_subjects),
    "duration": dict(type=float,
                     default=dataio.SyntheticConfig.session_duration_s),
    "noise": dict(type=float, default=dataio.SyntheticConfig.noise_std_g),
    "stages": dict(type=int, default=tcn.MsTcnConfig.num_stages),
    "layers": dict(type=int, default=tcn.SsTcnConfig.num_layers),
    "filters": dict(type=int, default=tcn.SsTcnConfig.num_filters),
    "epochs": dict(type=int, default=tcn.MsTcnConfig.epochs),
    "lr": dict(type=float, default=tcn.MsTcnConfig.lr),
    "min-duration": dict(type=int, default=seg.DEFAULT_MIN_DURATION),
    "threshold": dict(type=float, default=seg.DEFAULT_IOU_THRESHOLD),
    "width": dict(type=int, default=seg.DEFAULT_ROI_WIDTH),
    "kind": dict(choices=list(regression.KINDS), default="rf"),
    "regressor": dict(choices=list(regression.KINDS), default="rf"),
    "repeats": dict(type=int, default=10),
}
_TCN = ("stages", "layers", "filters", "epochs", "lr")

# name: (function, summary, input path flags, other flags). Each input is a
# required flag that the manifest lists; every command also takes --config
# and --out.
COMMANDS = {
    "synth": (_cmd_synth, "generate synthetic labeled sessions", (),
              ("seed", "subjects", "duration", "noise")),
    "train": (_cmd_train, "train the MS-TCN on labeled sessions", ("data",),
              ("seed", *_TCN)),
    "predict": (_cmd_predict, "predict segments for one session",
                ("model", "session"), ("min-duration",)),
    "eval-seg": (_cmd_eval_seg, "segment metrics pred vs truth",
                 ("pred", "truth"), ("threshold",)),
    "extract-features": (_cmd_extract_features,
                         "feature matrix from annotated sessions", ("data",),
                         ("width",)),
    "fit-reg": (_cmd_fit_reg, "fit a height regressor", ("features",),
                ("seed", "kind")),
    "eval-reg": (_cmd_eval_reg, "regression metrics on a feature file",
                 ("model", "features"), ()),
    "pipeline": (_cmd_pipeline, "full LOSO evaluation", ("data",),
                 ("seed", *_TCN, "regressor", "width", "threshold",
                  "min-duration")),
    "importance": (_cmd_importance, "permutation feature importance",
                   ("model", "features"), ("seed", "repeats")),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="jumppipe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, inputs, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag in inputs:
            p.add_argument(f"--{flag}", required=True)
        for flag in ("config", "out", *flags):
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def _merge_config_file(argv: list[str]) -> list[str]:
    """Prepend config-file entries as flags so explicit flags win. The file
    is found as argparse finds it: `--config path`, `--config=path` or an
    abbreviation."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config", **FLAGS["config"])
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    extra = []
    for raw in dataio.read_text(path).split("\n"):
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
        return _run(args)
    except _UsageError as e:
        _log(f"usage error: {e}")
        parser.print_usage(sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        _log(f"I/O error: {e}")
        return EXIT_IO
    except (ValueError, KeyError, FloatingPointError, TypeError) as e:
        # a dataio.ParseError and an nncore.DimensionError are ValueErrors
        _log(f"error: {e}")
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
