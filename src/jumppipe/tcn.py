"""Single- and multi-stage temporal convolutional networks for sample-wise
jump classification, with full-sequence training and prediction.

A stage is: 1x1 conv to `num_filters`, then `num_layers` residual blocks
(dilated k=3 conv, dilation 2^l -> ReLU -> 1x1 conv -> residual add), then a
1x1 conv down to the class count. Stages after the first consume the softmax
of the previous stage's logits and refine it.
"""

from __future__ import annotations

import contextlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import nncore
from .nncore import AdamState, ConvKernel, DimensionError
from .segmentation import DEFAULT_VOCAB


KERNEL_SIZE = 3  # of every dilated conv


@dataclass
class SsTcnConfig:
    num_layers: int = 7
    num_filters: int = 16
    in_channels: int = 6
    num_classes: int = DEFAULT_VOCAB.num_classes

    def __post_init__(self):
        nncore.check_ints(self, 1, *(f.name for f in fields(self)))

    def receptive_field(self) -> int:
        return 1 + (KERNEL_SIZE - 1) * (2**self.num_layers - 1)


@dataclass
class MsTcnConfig:
    num_stages: int = 2
    stage: SsTcnConfig = field(default_factory=SsTcnConfig)
    epochs: int = 20
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        nncore.check_ints(self, 1, "num_stages")
        nncore.check_ints(self, 0, "epochs", "seed")
        if not 0 < self.lr < math.inf:  # also rejects nan
            raise ValueError("lr must be positive and finite")


@dataclass
class ModelWeights:
    """Each stage is its kernels in parameter order: conv_in, then each
    block's dilated and pointwise kernel, then conv_out."""

    config: MsTcnConfig
    stages: list[list[ConvKernel]]

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        """Flat (name, array) list in parameter order; arrays are live views."""
        kernels = (k for stage in self.stages for k in stage)
        out = []
        for k, (_, name, *_) in zip(kernels, kernel_layout(self.config)):
            out += [(f"{name}.w", k.weights), (f"{name}.b", k.bias)]
        return out

    def params(self) -> list[np.ndarray]:
        return [a for _, a in self.named_params()]


def config_to_doc(config: MsTcnConfig) -> dict:
    """Flat JSON-ready form of a config and the constants it runs under:
    the checkpoint body and run echoes."""
    stage = config.stage
    return {"num_stages": config.num_stages, "num_layers": stage.num_layers,
            "num_filters": stage.num_filters, "kernel_size": KERNEL_SIZE,
            "in_channels": stage.in_channels, "num_classes": stage.num_classes,
            "lambda_tmse": nncore.LAMBDA_TMSE, "tau": nncore.TMSE_TAU,
            "epochs": config.epochs, "lr": config.lr, "seed": config.seed}


def kernel_layout(config: MsTcnConfig):
    """(stage, name, kernel_size, in, out, dilation) of each kernel, in
    parameter order: per stage conv_in, then each block's dilated and
    pointwise kernel, then conv_out. A generator, so a reader may stop
    early."""
    sc = config.stage
    for s in range(config.num_stages):
        din = sc.in_channels if s == 0 else sc.num_classes
        yield s, f"stage{s}.conv_in", 1, din, sc.num_filters, 1
        for l in range(sc.num_layers):
            yield (s, f"stage{s}.block{l}.dilated", KERNEL_SIZE,
                   sc.num_filters, sc.num_filters, 2**l)
            yield (s, f"stage{s}.block{l}.pointwise", 1, sc.num_filters,
                   sc.num_filters, 1)
        yield s, f"stage{s}.conv_out", 1, sc.num_filters, sc.num_classes, 1


def _init_kernel(rng, k: int, cin: int, cout: int, dilation: int) -> ConvKernel:
    bound = 1.0 / math.sqrt(k * cin)
    w = rng.uniform(-bound, bound, size=(k, cin, cout))
    b = rng.uniform(-bound, bound, size=(cout,))
    return ConvKernel(weights=w, bias=b, dilation=dilation)


def build_mstcn(config: MsTcnConfig) -> ModelWeights:
    """Deterministic uniform +-1/sqrt(fan_in) initialization from the
    config's seed."""
    rng = np.random.default_rng(config.seed)
    stages = [[] for _ in range(config.num_stages)]
    for s, _, k, cin, cout, dilation in kernel_layout(config):
        stages[s].append(_init_kernel(rng, k, cin, cout, dilation))
    return ModelWeights(config=config, stages=stages)


def sstcn_forward(stage: list[ConvKernel], x: np.ndarray):
    """Forward one stage; returns (logits, cache for backward)."""
    h = nncore.conv1d_dilated(x, stage[0])
    block_caches = []
    for dk, pk in zip(stage[1:-1:2], stage[2:-1:2]):  # dilated, pointwise
        a = nncore.conv1d_dilated(h, dk)
        r = nncore.relu(a)
        p = nncore.conv1d_dilated(r, pk)
        block_caches.append((dk, pk, h, a, r))
        h = h + p
    logits = nncore.conv1d_dilated(h, stage[-1])
    cache = (x, block_caches, h)
    return logits, cache


def sstcn_backward(stage: list[ConvKernel], cache, grad_logits: np.ndarray):
    """Backward one stage; returns (param grads in named_params order, gx).
    Each layer's gradients are prepended as the walk goes backward."""
    x, block_caches, h_final = cache
    gh, *grads = nncore.conv1d_backward(h_final, stage[-1], grad_logits)
    for dk, pk, h_in, a, r in reversed(block_caches):
        gr, gw_p, gb_p = nncore.conv1d_backward(r, pk, gh)
        ga = nncore.relu_backward(a, gr)
        gh_conv, gw_d, gb_d = nncore.conv1d_backward(h_in, dk, ga)
        gh = gh + gh_conv  # residual path
        grads[:0] = [gw_d, gb_d, gw_p, gb_p]
    gx, gw_in, gb_in = nncore.conv1d_backward(x, stage[0], gh)
    return [gw_in, gb_in, *grads], gx


def _model_input(weights: ModelWeights, x) -> np.ndarray:
    x = nncore.as_tensor2(x)
    expected = weights.config.stage.in_channels
    if x.shape[1] != expected:
        raise DimensionError(
            f"input has {x.shape[1]} channels, model expects {expected}"
        )
    return x


def mstcn_forward(weights: ModelWeights, x: np.ndarray):
    """Run all stages; returns the per-stage probability sequences and the
    per-stage caches for backward."""
    probs_list, caches = [], []
    inp = _model_input(weights, x)
    for stage in weights.stages:
        logits, cache = sstcn_forward(stage, inp)
        probs = nncore.softmax_rows(logits)
        probs_list.append(probs)
        caches.append(cache)
        inp = probs
    return probs_list, caches


def _loss_and_grads(weights: ModelWeights, x: np.ndarray, labels: np.ndarray):
    """Total loss over all stages and gradients for every parameter."""
    x = _model_input(weights, x)
    return _span_loss_and_grads(weights, x, labels, 0, x.shape[0])


def _span_loss_and_grads(weights: ModelWeights, x: np.ndarray, labels,
                         a: int, b: int):
    """Span [a, b)'s share of `_loss_and_grads` over the session (x, labels)
    of T rows, with the gradient of that share; the shares of spans that
    tile [0, T) sum to the session's loss and gradients.

    A stage's share is the cross entropy of rows [a, b) times (b - a) / T
    plus lambda times the TMSE of the pairs (t - 1, t), t in [max(a, 1), b),
    times their count / (T - 1): each is the span's own mean weighted by its
    part of the session's rows or pairs. Those probabilities, rows
    [a - 1, b), are exact when the forward runs over rows [a - 1 - H, b + H)
    clipped to the session (`halo_rows`), and the backward of that forward
    gives the share's exact gradient. For [0, T) every weight is 1.0 and the
    forward runs over the whole session, so the result is the whole-session
    computation's to the bit. Returns (share, grads, per-stage probabilities
    of the rows the forward ran over).
    """
    T = x.shape[0]
    if len(labels) != T:
        raise DimensionError("labels length must equal number of input rows")
    halo = halo_rows(weights.config)
    lo, hi = max(a - 1 - halo, 0), min(b + halo, T)
    first = max(a, 1)  # the span's pairs (t - 1, t) are t in [first, b)
    ce_weight = (b - a) / T
    tmse_weight = (b - first) / max(T - 1, 1)
    probs_list, caches = mstcn_forward(weights, x[lo:hi])
    total, gprobs_list = 0.0, []
    for probs in probs_list:
        ce, gce = nncore.cross_entropy_loss(probs[a - lo : b - lo],
                                            labels[a:b])
        tmse, gtmse = nncore.tmse_loss(probs[first - 1 - lo : b - lo])
        total += ce * ce_weight
        total += nncore.LAMBDA_TMSE * (tmse * tmse_weight)
        gprobs = np.zeros_like(probs)
        gprobs[a - lo : b - lo] = gce * ce_weight
        gprobs[first - 1 - lo : b - lo] += nncore.LAMBDA_TMSE * (
            gtmse * tmse_weight)
        gprobs_list.append(gprobs)

    grads = []  # each stage's gradients are prepended, last stage first
    g_input_next = None  # grad w.r.t. the probs feeding the next stage
    for stage, cache, probs, gprobs in reversed(list(zip(
            weights.stages, caches, probs_list, gprobs_list))):
        if g_input_next is not None:
            gprobs += g_input_next
        glogits = nncore.softmax_backward(probs, gprobs)
        stage_grads, g_input_next = sstcn_backward(stage, cache, glogits)
        grads[:0] = stage_grads
    return total, grads, probs_list


def _session_loss_and_grads(weights: ModelWeights, x: np.ndarray, labels,
                            span_map):
    """`_loss_and_grads` of a session as the sum of its spans' shares
    (`_span_loss_and_grads`), added in span order, so the result depends
    only on T and the config. `span_map` maps a function over the span
    starts (`_span_map`)."""
    T, span = x.shape[0], span_rows(weights.config)

    def run(a):
        return _span_loss_and_grads(weights, x, labels, a, min(a + span, T))

    shares = span_map(run, range(0, T, span))
    total, grads, _ = next(shares)
    for share, span_grads, _ in shares:
        total += share
        for g, s in zip(grads, span_grads):
            g += s
    return total, grads


def train(config: MsTcnConfig, sessions) -> tuple[ModelWeights, list[float]]:
    """Full-sequence gradient training; one session = one batch.

    Sessions are visited in the given order every epoch (deterministic).
    Each session's gradient is the sum of its spans' (`span_rows`), which
    run as `predict`'s do (`_span_map`). Returns the weights and the
    per-epoch mean loss history.
    """
    sessions = list(sessions)
    if not sessions:
        raise ValueError("at least one labeled session is required")
    for sess in sessions:
        if sess.labels is None:
            raise ValueError(f"session {sess.subject_id!r} has no labels")
    weights = build_mstcn(config)
    opt = AdamState(lr=config.lr)
    history = []
    spans = max(-(-len(sess.labels) // span_rows(config)) for sess in sessions)
    with _span_map(spans) as span_map:
        for _ in range(config.epochs):
            epoch_loss = 0.0
            for sess in sessions:
                loss, grads = _session_loss_and_grads(
                    weights, sess.samples, sess.labels, span_map)
                if not np.isfinite(loss):
                    raise FloatingPointError("non-finite training loss")
                nncore.adam_step(weights.params(), grads, opt)
                epoch_loss += loss
            history.append(epoch_loss / len(sessions))
    return weights, history


# Rows per span of `predict` and `train`. Measured on the stream model's
# predict (2 stages x 7 layers x 16 filters, H = 254, 2 vCPU, OpenBLAS at
# one thread, medians of two runs of 20 passes) at T = 16 836: 2048-row
# spans on two threads take 24-31 ms, 3072-row spans 22-29 ms and 4096-row
# spans 28-37 ms, against 57-60 ms for the whole session in one span.
# 3072 is no clear win, and training shares the size (`span_rows`), whose
# bytes any other size changes. A span is at least 8 H rows, so recomputed
# halo rows stay under a quarter of the work: at 4 x 10 x 64 (H = 4092),
# 2048-row spans were 5x slower than the whole session.
CHUNK_ROWS = 2048


def halo_rows(config: MsTcnConfig) -> int:
    """H: output row t of the MS-TCN depends only on input rows within H of
    t, since each stage widens the dependence by half its receptive field."""
    return config.num_stages * (config.stage.receptive_field() - 1) // 2


def span_rows(config: MsTcnConfig) -> int:
    """Rows per span of `predict` and `train`: CHUNK_ROWS, or 8 H if that
    is more."""
    return max(CHUNK_ROWS, 8 * halo_rows(config))


@contextlib.contextmanager
def _span_map(spans: int):
    """A `map` for up to `spans` independent spans, entered inside
    `nncore.one_blas_thread`. Where that holds the count and there is more
    than one usable CPU and span, it runs the spans on a pool of
    min(usable CPUs, spans) threads. Else it is the builtin map, in the
    caller's thread, since a pool beside OpenBLAS's own threads would
    oversubscribe the cores."""
    # os.sched_getaffinity is missing on Windows and macOS
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    workers = min(usable, spans)
    with nncore.one_blas_thread() as held:
        if not held or workers < 2:
            yield map
        else:
            with ThreadPoolExecutor(workers) as pool:
                yield pool.map


def _predict_rows(weights: ModelWeights, x: np.ndarray) -> np.ndarray:
    """Last-stage probabilities of `x`, as `mstcn_forward` computes them, but
    in four (T, num_filters) buffers reused by every block."""
    shape = (x.shape[0], weights.config.stage.num_filters)
    h, a, p, tap = (np.empty(shape) for _ in range(4))
    for stage in weights.stages:
        nncore.conv_into(x, stage[0], h, tap)
        for dk, pk in zip(stage[1:-1:2], stage[2:-1:2]):  # dilated, pointwise
            nncore.conv_into(h, dk, a, tap)
            np.maximum(a, 0.0, out=a)
            nncore.conv_into(a, pk, p, tap)
            h += p
        x = nncore.softmax_rows(nncore.conv1d_dilated(h, stage[-1]))
    return x


def predict(weights: ModelWeights, session) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample probabilities (final stage) and argmax labels.

    Ties break toward the lowest class index. The session is cut into spans
    of `span_rows`; each span [a, b) runs over rows [a - H, b + H) clipped to
    the session and keeps rows [a, b), which are then exact (`halo_rows`),
    so the output is byte for byte that of `mstcn_forward`. Spans run on
    `_span_map`'s per-call pool; one span runs in the caller's thread.
    Memory is bounded by the span size, not by T, apart from the
    (T, classes) output.
    """
    inp = _model_input(weights, session.samples)
    T, halo = inp.shape[0], halo_rows(weights.config)
    span = span_rows(weights.config)
    probs = np.empty((T, weights.config.stage.num_classes))

    def run(a):
        b = min(a + span, T)
        lo, hi = max(a - halo, 0), min(b + halo, T)
        probs[a:b] = _predict_rows(weights, inp[lo:hi])[a - lo : b - lo]

    starts = range(0, T, span)
    with _span_map(len(starts)) as span_map:
        list(span_map(run, starts))  # re-raises a span's error
    return probs, np.argmax(probs, axis=1)
