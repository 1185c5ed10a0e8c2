"""Per-layer tracing from outside the program.

`Tracer.installed()` replaces the public entry points of each jumppipe module
with timing wrappers for the duration of a `with` block, then puts the
originals back. The program calls its own layers through module attributes
(`nncore.conv1d_dilated`, `regression.fit_tree`, ...), so a wrapper installed
on the module sees every call, including the ones one layer makes into
another. Each wrapper records a span's wall time into its name's total and
into its caller's child time, so self time is total minus child time.

Only aggregates are kept: (name -> total seconds, self seconds, calls) plus a
few counters summed at the same boundaries.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict

import numpy as np

from jumppipe import (cli, dataio, evaluation, features, nncore, regression,
                      segmentation, tcn)

DILATIONS = (1, 2, 4, 8, 16, 32, 64)
FLOAT_BYTES = 8


def _conv_tag(kernel) -> str:
    """`k1` for pointwise convs, `d<dilation>` for the k=3 dilated ones."""
    if kernel.kernel_size == 1:
        return "k1"
    return f"d{kernel.dilation}"


def _conv_cost(x, kernel, backward: bool) -> tuple[float, float]:
    """Computed (flop, compulsory bytes) of one conv call, from shapes only.

    Forward: 2*T*k*cin*cout multiply-adds; reads x and the weights once,
    writes the output once. Backward: twice the forward flops (weight and
    input gradients); reads x, grad_out and the weights, writes grad_x and
    the weight and bias gradients.
    """
    T = x.shape[0]
    k, cin, cout = kernel.weights.shape
    flop = 2.0 * T * k * cin * cout
    weights = k * cin * cout + cout
    if backward:
        return 2.0 * flop, FLOAT_BYTES * (2 * T * cin + T * cout + 2 * weights)
    return flop, FLOAT_BYTES * (T * cin + T * cout + weights)


def _internal_nodes(tree) -> int:
    """Number of splits in a fitted tree: linked `TreeNode`s, or parallel
    arrays whose `feature` array marks leaves with -1 (the flat layout the
    roadmap plans)."""
    if not hasattr(tree, "is_leaf"):
        return int((np.asarray(tree.feature) >= 0).sum())
    stack, n = [tree], 0
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            n += 1
            stack.extend((node.left, node.right))
    return n


class Tracer:
    """Aggregated spans and counters over the calls made while installed."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._open = []  # [name, child seconds] of each open span

    def wrap(self, name, fn, after=None):
        """Wrapper timing `fn` as span `name` (a string, or a function of the
        call's arguments returning one); `after(result, *args, **kwargs)`
        adds counters once the call has returned. A span opened inside a span
        of the same name is part of the outer one and is not counted again."""
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if any(open_name == label for open_name, _ in self._open):
                return fn(*args, **kwargs)
            self._open.append([label, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                _, child = self._open.pop()
                self.total[label] += dt
                self.self_time[label] += dt - child
                self.calls[label] += 1
                if self._open:
                    self._open[-1][1] += dt
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    # ----------------------------------------------------------- counters

    def _conv_fwd_done(self, out, x, kernel):
        flop, nbytes = _conv_cost(x, kernel, backward=False)
        self.counts["conv.flop"] += flop
        self.counts["conv.bytes"] += nbytes

    def _conv_bwd_done(self, out, x, kernel, grad_out):
        flop, nbytes = _conv_cost(x, kernel, backward=True)
        self.counts["conv.flop"] += flop
        self.counts["conv.bytes"] += nbytes

    def _train_done(self, out, config, sessions):
        sessions = list(sessions)
        self.counts["tcn.train.steps"] += config.epochs * len(sessions)
        self.counts["tcn.train.samples"] += config.epochs * sum(
            s.samples.shape[0] for s in sessions)

    def _predict_done(self, out, weights, session):
        self.counts["tcn.predict.samples"] += session.samples.shape[0]

    def _extract_done(self, segments, labels, *args, **kwargs):
        self.counts["segmentation.segments"] += len(segments)

    def _filter_done(self, kept, segments, *args, **kwargs):
        self.counts["segmentation.filter_in"] += len(segments)
        self.counts["segmentation.filter_kept"] += len(kept)

    def _fit_tree_done(self, tree, *args, **kwargs):
        self.counts["regression.splits"] += _internal_nodes(tree)

    def _predict_tree_done(self, out, node, X):
        self.counts["regression.predict_tree.rows"] += len(out)

    def _read_session_done(self, session, path, *args, **kwargs):
        self.counts["dataio.read_session.bytes"] += os.path.getsize(path)

    def _save_done(self, out, model, path):
        self.counts["dataio.ckpt.bytes"] += os.path.getsize(path)

    def _load_done(self, out, path, *args, **kwargs):
        self.counts["dataio.ckpt.bytes"] += os.path.getsize(path)

    # --------------------------------------------------------- installing

    def _targets(self):
        conv_fwd = lambda x, kernel, *a: f"nncore.conv_fwd.{_conv_tag(kernel)}"
        conv_bwd = lambda x, kernel, *a: f"nncore.conv_bwd.{_conv_tag(kernel)}"
        fit_name = lambda kind, *a, **k: f"regression.fit.{kind}"
        cli_name = lambda argv: "cli." + "_".join(
            [argv[0].replace("-", "_")]
            + [argv[i + 1] for i, a in enumerate(argv[:-1]) if a == "--kind"])
        return [
            (nncore, "conv1d_dilated", conv_fwd, self._conv_fwd_done),
            (nncore, "conv1d_backward", conv_bwd, self._conv_bwd_done),
            (nncore, "relu", "nncore.relu", None),
            (nncore, "relu_backward", "nncore.relu_bwd", None),
            (nncore, "softmax_rows", "nncore.softmax", None),
            (nncore, "softmax_backward", "nncore.softmax", None),
            (nncore, "cross_entropy_loss", "nncore.loss", None),
            (nncore, "cross_entropy_grad", "nncore.loss", None),
            (nncore, "tmse_loss", "nncore.loss", None),
            (nncore, "tmse_grad", "nncore.loss", None),
            (nncore, "adam_step", "nncore.adam", None),
            (tcn, "train", "tcn.train", self._train_done),
            (tcn, "predict", "tcn.predict", self._predict_done),
            (segmentation, "extract_segments", "segmentation.extract",
             self._extract_done),
            (segmentation, "min_duration_filter", "segmentation.extract",
             self._filter_done),
            (segmentation, "match_segments", "segmentation.match", None),
            (features, "extract_feature_vector", "features.extract", None),
            (regression, "fit", fit_name, None),
            (regression, "fit_tree", "regression.fit_tree",
             self._fit_tree_done),
            (regression, "_best_split", "regression.best_split", None),
            (regression, "predict_tree", "regression.predict_tree",
             self._predict_tree_done),
            (dataio, "read_session_csv", "dataio.read_session",
             self._read_session_done),
            (dataio, "write_session_csv", "dataio.write_session", None),
            (dataio, "synth_generate", "dataio.synth", None),
            (dataio, "save_checkpoint", "dataio.ckpt_save", self._save_done),
            (dataio, "load_checkpoint", "dataio.ckpt_load", self._load_done),
            (evaluation, "precision_recall_f1", "evaluation", None),
            (evaluation, "reg_metrics", "evaluation", None),
            (evaluation, "rmse", "evaluation", None),
            (evaluation, "r_squared", "evaluation", None),
            (cli, "cli_dispatch", cli_name, None),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original functions on exit.
        A function the program no longer has is skipped and its layer
        metrics read 0."""
        saved = []
        try:
            for module, attr, name, after in self._targets():
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, after))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # ------------------------------------------------------------ metrics

    def layer_metrics(self) -> dict:
        """Per-layer metric name -> (value, unit). Layers a workload does not
        run read 0."""
        t, c = self.total, self.counts
        m = {}
        for d in DILATIONS:
            m[f"nncore.conv_fwd.d{d}.s"] = (t[f"nncore.conv_fwd.d{d}"], "s")
            m[f"nncore.conv_bwd.d{d}.s"] = (t[f"nncore.conv_bwd.d{d}"], "s")
        m["nncore.conv_fwd.k1.s"] = (t["nncore.conv_fwd.k1"], "s")
        m["nncore.conv_bwd.k1.s"] = (t["nncore.conv_bwd.k1"], "s")
        conv_names = [n for n in self.calls if n.startswith("nncore.conv_")]
        conv_s = sum(t[n] for n in conv_names)
        m["nncore.conv.calls"] = (sum(self.calls[n] for n in conv_names),
                                  "count")
        m["nncore.conv.gflop"] = (c["conv.flop"] / 1e9, "GFLOP")
        m["nncore.conv.gbyte"] = (c["conv.bytes"] / 1e9, "GB")
        m["nncore.conv.gflop_per_s"] = (_ratio(c["conv.flop"] / 1e9, conv_s),
                                        "GFLOP/s")
        m["nncore.relu.s"] = (t["nncore.relu"], "s")
        m["nncore.relu_bwd.s"] = (t["nncore.relu_bwd"], "s")
        m["nncore.softmax.s"] = (t["nncore.softmax"], "s")
        m["nncore.loss.s"] = (t["nncore.loss"], "s")
        m["nncore.adam.s"] = (t["nncore.adam"], "s")
        m["nncore.adam.calls"] = (self.calls["nncore.adam"], "count")

        m["tcn.train.s"] = (t["tcn.train"], "s")
        m["tcn.train.self_s"] = (self.self_time["tcn.train"], "s")
        m["tcn.train.steps"] = (c["tcn.train.steps"], "count")
        m["tcn.train.samples_per_s"] = (
            _ratio(c["tcn.train.samples"], t["tcn.train"]), "1/s")
        m["tcn.predict.s"] = (t["tcn.predict"], "s")
        m["tcn.predict.self_s"] = (self.self_time["tcn.predict"], "s")
        m["tcn.predict.samples_per_s"] = (
            _ratio(c["tcn.predict.samples"], t["tcn.predict"]), "1/s")

        m["segmentation.extract.s"] = (t["segmentation.extract"], "s")
        m["segmentation.match.s"] = (t["segmentation.match"], "s")
        m["segmentation.segments"] = (c["segmentation.segments"], "count")
        m["segmentation.kept_ratio"] = (
            _ratio(c["segmentation.filter_kept"],
                   c["segmentation.filter_in"]), "ratio")

        windows = self.calls["features.extract"]
        m["features.extract.s"] = (t["features.extract"], "s")
        m["features.windows"] = (windows, "count")
        m["features.ms_per_window"] = (
            _ratio(1e3 * t["features.extract"], windows), "ms")

        m["regression.fit_tree.s"] = (t["regression.fit_tree"], "s")
        m["regression.fit_tree.calls"] = (self.calls["regression.fit_tree"],
                                          "count")
        m["regression.best_split.calls"] = (
            self.calls["regression.best_split"], "count")
        m["regression.split_yield"] = (
            _ratio(c["regression.splits"],
                   self.calls["regression.best_split"]), "ratio")
        m["regression.predict_tree.s"] = (t["regression.predict_tree"], "s")
        m["regression.predict_tree.rows"] = (
            c["regression.predict_tree.rows"], "count")
        m["regression.fit_mlp.self_s"] = (
            self.self_time["regression.fit.mlp"], "s")

        m["dataio.read_session.s"] = (t["dataio.read_session"], "s")
        m["dataio.read_session.mb_per_s"] = (
            _ratio(c["dataio.read_session.bytes"] / 1e6,
                   t["dataio.read_session"]), "MB/s")
        m["dataio.write_session.s"] = (t["dataio.write_session"], "s")
        m["dataio.synth.s"] = (t["dataio.synth"], "s")
        m["dataio.ckpt_save.s"] = (t["dataio.ckpt_save"], "s")
        m["dataio.ckpt_load.s"] = (t["dataio.ckpt_load"], "s")
        m["dataio.ckpt.bytes"] = (c["dataio.ckpt.bytes"], "bytes")

        cli_names = [n for n in self.calls if n.startswith("cli.")]
        m["cli.self_s"] = (sum(self.self_time[n] for n in cli_names), "s")
        for cmd in CLI_COMMANDS:
            m[f"{cmd}.s"] = (t[cmd], "s")
        m["evaluation.s"] = (t["evaluation"], "s")
        return m


CLI_COMMANDS = ("cli.extract_features", "cli.fit_reg_rf", "cli.fit_reg_gbt",
                "cli.fit_reg_mlp", "cli.eval_reg", "cli.importance")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
