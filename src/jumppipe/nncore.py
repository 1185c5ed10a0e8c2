"""Minimal exact-gradient NN kernel: dilated 1-D convolutions, ReLU, softmax,
the two training losses (cross entropy + truncated MSE smoothing) and Adam,
and the one BLAS thread that every model fit and prediction runs at.

All arrays are float64, shaped (T, channels) row-major. Every forward op has a
matching backward returning analytic gradients, verified against central
finite differences in the test suite.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

PROB_FLOOR = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# Weight and truncation threshold of the temporal smoothing loss, as MS-TCN
# publishes them (Farha & Gall, CVPR 2019).
LAMBDA_TMSE = 0.15
TMSE_TAU = 4.0


@functools.cache
def _openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    where it or its setter is not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# The callers inside `one_blas_thread`, and the count the first one found;
# `_BLAS_LOCK` guards both.
_BLAS_LOCK = threading.Lock()
_blas_users = 0
_blas_prior = None


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread for the block; yields whether it
    does, which is False where the setter is not found.

    Every model fit and prediction runs under it (`tcn.train`,
    `tcn.predict`, `regression.fit`, `regression.predict`), and the
    package's own span pool is its only parallelism. Their products are
    small: on 2 vCPU the MLP fit takes 0.31 s at one thread and 0.37 s at
    two, and two collapse when another process holds a core. The count is
    process-wide, so blocks that overlap in time, from any threads, share
    it: the first one in saves the count and sets 1, and the last one out
    restores it, also when a block raises."""
    global _blas_users, _blas_prior
    blas = _openblas()
    if blas is None:
        yield False
        return
    get, set_ = blas
    with _BLAS_LOCK:
        if not _blas_users:
            _blas_prior = get()
            set_(1)
        _blas_users += 1
    try:
        yield True
    finally:
        with _BLAS_LOCK:
            _blas_users -= 1
            if not _blas_users:
                set_(_blas_prior)


class DimensionError(ValueError):
    """Shape/channel mismatch between operands."""


def as_tensor2(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D (T, D) array, got shape {arr.shape}")
    return arr


@dataclass
class ConvKernel:
    """Weights of a dilated 1-D convolution: (kernel_size, in, out) + bias."""

    weights: np.ndarray  # (kernel_size, in_channels, out_channels)
    bias: np.ndarray     # (out_channels,)
    dilation: int

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 3:
            raise DimensionError("conv weights must be (kernel_size, in, out)")
        if self.dilation < 1:
            raise ValueError("dilation must be >= 1")
        if self.weights.shape[0] % 2 == 0:
            raise ValueError("kernel_size must be odd for symmetric same-padding")
        if self.bias.shape != (self.weights.shape[2],):
            raise DimensionError("bias length must equal out_channels")

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[2]


def check_ints(config, least: int, *names) -> None:
    """A ValueError that names the first field of `config` among `names`
    that is not an integer, or is one below `least`."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}")


def _padded(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(x, ((pad, pad), (0, 0)))


def conv1d_dilated(x: np.ndarray, kernel: ConvKernel) -> np.ndarray:
    """Acausal 'same'-padded dilated convolution; output length equals input."""
    x = as_tensor2(x)
    if x.shape[1] != kernel.in_channels:
        raise DimensionError(
            f"input has {x.shape[1]} channels, kernel expects {kernel.in_channels}"
        )
    out = np.empty((x.shape[0], kernel.out_channels))
    tap = np.empty_like(out) if kernel.kernel_size > 1 else None
    return conv_into(x, kernel, out, tap)


def conv_into(x: np.ndarray, kernel: ConvKernel, out: np.ndarray,
              tap: np.ndarray | None) -> np.ndarray:
    """conv1d_dilated of an already checked `x`, written into `out`. `out`
    and `tap`, which holds each tap's product (unused when k = 1), are
    C-contiguous (T, out_channels) arrays that do not overlap `x`.

    No padded copy is made: each tap's product adds into the rows of `out`
    that its offset reaches, which is all that the zero rows changed.
    """
    k, d = kernel.kernel_size, kernel.dilation
    if k == 1:
        np.matmul(x, kernel.weights[0], out=out)
        out += kernel.bias
        return out
    T = x.shape[0]
    out[:] = kernel.bias
    for i in range(k):
        offset = (i - (k - 1) // 2) * d
        if abs(offset) >= T:
            continue
        # all T rows: a one-row product goes through gemv, which sums in
        # another order than the padded form's gemm
        np.matmul(x, kernel.weights[i], out=tap)
        lo, hi = max(0, -offset), T - max(0, offset)
        out[lo:hi] += tap[lo + offset : hi + offset]
    return out


def conv1d_backward(
    x: np.ndarray, kernel: ConvKernel, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_input, d_weights, d_bias) of conv1d_dilated."""
    x = as_tensor2(x)
    grad_out = as_tensor2(grad_out)
    k, d = kernel.kernel_size, kernel.dilation
    pad = (k - 1) // 2 * d
    T = x.shape[0]
    xp = _padded(x, pad)
    gw = np.empty_like(kernel.weights)
    gxp = np.zeros_like(xp)
    for i in range(k):
        sl = slice(i * d, i * d + T)
        gw[i] = xp[sl].T @ grad_out
        gxp[sl] += grad_out @ kernel.weights[i].T
    gb = grad_out.sum(axis=0)
    gx = gxp[pad : pad + T] if pad else gxp
    return gx, gw, gb


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # subgradient at exactly 0 is taken as 0. A multiply by the mask is
    # about 3x faster than np.where; += 0.0 makes its zeros +0.0 as np.where's
    # masked entries are (a -0.0 gradient where x > 0 comes out +0.0 too)
    g = grad_out * (x > 0.0)
    g += 0.0
    return g


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction; rows sum to 1 within 1e-9."""
    z = as_tensor2(logits)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_backward(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. logits given grad w.r.t. softmax output."""
    dot = (grad_probs * probs).sum(axis=1, keepdims=True)
    return probs * (grad_probs - dot)


def cross_entropy_loss(probs: np.ndarray,
                       labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-probability of each row's label, and its gradient
    with respect to `probs`; a probability clamped to PROB_FLOOR has zero
    gradient."""
    probs = as_tensor2(probs)
    labels = np.asarray(labels, dtype=np.int64)
    T = probs.shape[0]
    if labels.shape[0] != T:
        raise DimensionError("labels length must equal number of probability rows")
    rows = np.arange(T)
    picked = probs[rows, labels]
    g = np.zeros_like(probs)
    live = picked > PROB_FLOOR
    g[rows[live], labels[live]] = -1.0 / (picked[live] * T)
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean()), g


def tmse_loss(probs: np.ndarray) -> tuple[float, np.ndarray]:
    """Truncated MSE on adjacent-timestep log-probability differences, and
    its gradient with respect to `probs`; a difference truncated at TMSE_TAU
    or a clamped probability has zero gradient."""
    probs = as_tensor2(probs)
    T, J = probs.shape
    g = np.zeros_like(probs)
    if T < 2:
        return 0.0, g
    clamped = np.maximum(probs, PROB_FLOOR)
    logp = np.log(clamped)
    diff = logp[1:] - logp[:-1]
    size = np.abs(diff)
    value = float((np.minimum(size, TMSE_TAU)**2).sum() / ((T - 1) * J))
    gdiff = np.where(size < TMSE_TAU, 2.0 * diff, 0.0) / ((T - 1) * J)
    g[1:] += gdiff
    g[:-1] -= gdiff
    return value, np.where(probs > PROB_FLOOR, g / clamped, 0.0)


@dataclass
class AdamState:
    """Bias-corrected Adam over a list of parameter arrays. The step size
    `lr` is its one field; `adam_step` advances the step count and the
    moments, flat vectors over the parameters joined in list order, which
    it makes on its first call."""

    lr: float

    def __post_init__(self):
        self.step = 0
        self.first_moment = None
        self.second_moment = None


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> None:
    """One in-place Adam update on every parameter array.

    The gradients are joined into one vector and every elementwise step runs
    on it in place; each element goes through the same IEEE operations as a
    per-array update would, so the result is the same to the bit."""
    if len(params) != len(grads):
        raise DimensionError("params/grads list length mismatch")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise DimensionError(f"param shape {p.shape} != grad shape {g.shape}")
    g = np.concatenate([np.ravel(a) for a in grads])
    if state.first_moment is None:
        state.first_moment = np.zeros_like(g)
        state.second_moment = np.zeros_like(g)
    state.step += 1
    b1, b2, t = ADAM_BETA1, ADAM_BETA2, state.step
    m, v = state.first_moment, state.second_moment
    m *= b1
    u = np.multiply(g, 1 - b1)
    m += u
    v *= b2
    np.multiply(g, 1 - b2, out=u)
    u *= g
    v += u
    np.divide(m, 1 - b1**t, out=u)  # mhat
    u *= state.lr
    np.divide(v, 1 - b2**t, out=g)  # vhat
    np.sqrt(g, out=g)
    g += ADAM_EPSILON
    u /= g  # lr * mhat / (sqrt(vhat) + eps)
    start = 0
    for p in params:
        p -= u[start : start + p.size].reshape(p.shape)
        start += p.size
