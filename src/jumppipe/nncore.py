"""Minimal exact-gradient NN kernel: dilated 1-D convolutions, ReLU, softmax,
the two training losses (cross entropy + truncated MSE smoothing) and Adam.

All arrays are float64, shaped (T, channels) row-major. Every forward op has a
matching backward returning analytic gradients, verified against central
finite differences in the test suite.
"""

from __future__ import annotations

import math
import numbers
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


def array_to_doc(a: np.ndarray) -> dict:
    """JSON-ready form of a float64 array; `array_from_doc` inverts it
    exactly, since Python's float repr round-trips."""
    return {"shape": list(a.shape), "data": [float(v) for v in a.ravel()]}


def array_from_doc(doc, name: str) -> np.ndarray:
    """The array of an `array_to_doc` document; a malformed one, or one that
    holds a number that is not finite or too large for a float, raises an
    error naming the field `name` it was read from."""
    doc_keys(doc, name, ("shape", "data"))
    shape, data = doc["shape"], doc["data"]
    if not (isinstance(shape, list) and isinstance(data, list)
            and all(type(d) is int and d >= 0 for d in shape)
            and all(type(v) in (int, float) for v in data)
            and len(data) == math.prod(shape)):
        raise ValueError(f"field {name!r} must be an array: a 'shape' list "
                         f"of dims and a 'data' list of that many numbers")
    return numbers_from_doc(data, name, np.float64).reshape(shape)


def numbers_from_doc(values, name: str, dtype) -> np.ndarray:
    """The JSON number or list of numbers `values` of the field `name` as a
    `dtype` array, if each one fits it and is finite; else a ValueError that
    names the field."""
    try:
        arr = np.array(values, dtype=dtype)
    except OverflowError:
        kind = "a float" if np.dtype(dtype).kind == "f" else "an int64"
        raise ValueError(f"field {name!r} holds a number too large for "
                         f"{kind}") from None
    finite = np.isfinite(arr)
    if not finite.all():
        bad = arr[~finite].flat[0]
        raise ValueError(f"field {name!r} holds {bad}, not a finite number")
    return arr


def doc_keys(doc, name: str, keys) -> dict:
    """`doc` if it is a dict with exactly the keys `keys` that the writer
    writes at field `name` ("" for the checkpoint body); else a ValueError
    that names the field or a key it does not write, or a KeyError that
    names a missing key by its path."""
    if type(doc) is not dict:
        raise ValueError(f"field {name!r} must be dict, "
                         f"not {type(doc).__name__}")
    expected = set(keys)
    if doc.keys() != expected:
        path = f"{name}." if name else ""
        for key in keys:
            if key not in doc:
                raise KeyError(path + key)
        unknown = next(key for key in doc if key not in expected)
        raise ValueError(f"unknown field {path + unknown!r}")
    return doc


def doc_field(doc: dict, name: str, *types):
    """The value of the field `name`, whose last dotted part is its key in
    `doc`, if its JSON type is one of `types` and, where `types` holds
    float, it is finite as a float; else a ValueError that names the
    field."""
    value = doc[name.rpartition(".")[2]]
    if type(value) not in types:  # so a bool is no int
        expected = " or ".join(sorted({t.__name__ for t in types}))
        raise ValueError(f"field {name!r} must be {expected}, "
                         f"not {type(value).__name__}")
    if float in types:
        numbers_from_doc(value, name, np.float64)
    return value


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
    """Bias-corrected Adam over a list of parameter arrays; the moments are
    flat vectors over the parameters joined in list order."""

    lr: float
    step: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None


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
