"""Handcrafted time/frequency-domain features of ROI windows.

24 features per channel (16 time-domain + 8 frequency-domain) over the six
IMU channels, plus the jump type as one ordinal scalar: 145 values total.
The catalog order is fixed and versioned so stored regressors can declare
which catalog they were fit against.
"""

from __future__ import annotations

import functools

import numpy as np

from .segmentation import DEFAULT_VOCAB, ClassVocabulary

CATALOG_VERSION = 1
SAMPLE_RATE_HZ = 100  # of every IMU session
CHANNEL_NAMES = ("ax", "ay", "az", "gx", "gy", "gz")

TIME_FEATURES = (
    "max", "min", "mean", "median", "std", "variance", "rms", "peak_to_peak",
    "iqr", "skewness", "kurtosis", "mean_abs_diff", "zero_crossing_rate",
    "signal_energy", "autocorr_lag1", "linear_slope",
)
FREQ_FEATURES = (
    "spectral_entropy", "spectral_centroid", "spectral_spread",
    "dominant_frequency", "dominant_magnitude", "spectral_rolloff_85",
    "band_power_0_5hz", "band_power_5_20hz",
)
FEATURE_NAMES = TIME_FEATURES + FREQ_FEATURES

# homogeneity degree of each feature under positive scaling of the signal
SCALING_DEGREE = {
    "max": 1, "min": 1, "mean": 1, "median": 1, "std": 1, "variance": 2,
    "rms": 1, "peak_to_peak": 1, "iqr": 1, "skewness": 0, "kurtosis": 0,
    "mean_abs_diff": 1, "zero_crossing_rate": 0, "signal_energy": 2,
    "autocorr_lag1": 0, "linear_slope": 1,
    "spectral_entropy": 0, "spectral_centroid": 0, "spectral_spread": 0,
    "dominant_frequency": 0, "dominant_magnitude": 2, "spectral_rolloff_85": 0,
    "band_power_0_5hz": 2, "band_power_5_20hz": 2,
}


@functools.lru_cache(maxsize=64)
def _spectrum_axes(n: int):
    """(frequencies, one-sided scale, 5 Hz bin, 20 Hz bin) of an n-sample
    window; read-only, built once per width."""
    freqs = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE_HZ)
    # interior bins fold in the negative frequencies
    scale = np.full(freqs.size, 2.0)
    scale[0] = 1.0
    if n % 2 == 0:
        scale[-1] = 1.0
    b5, b20 = np.searchsorted(freqs, [5.0, 20.0])
    for a in (freqs, scale):
        a.setflags(write=False)
    return freqs, scale, b5, b20


def power_spectrum(signal):
    """One-sided power spectrum of the mean-removed signal, along its last
    axis, so a (C, W) matrix gives one spectrum per row.

    Normalized so that sum(power) equals the time-domain energy
    sum((x - mean)^2) exactly (Parseval).
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[-1]
    if n < 2:
        raise ValueError("power_spectrum needs at least 2 samples")
    x = x - x.mean(axis=-1, keepdims=True)
    spec = np.fft.rfft(x, axis=-1)
    power = np.abs(spec) ** 2 / n
    freqs, scale, _, _ = _spectrum_axes(n)
    return freqs, power * scale


def _entropy_of_power(power: np.ndarray) -> float:
    # the DC bin is identically zero after mean removal, so the distribution
    # lives on the remaining bins; an impulse then reaches exactly 1.0
    body = power[1:]
    total = body.sum()
    if total <= 0 or body.size < 2:
        return 0.0
    p = body / total
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum() / np.log(p.size))


@functools.lru_cache(maxsize=64)
def _window_axes(n: int):
    """What `_time_features` needs per width, as numpy computes it:
    `np.polyfit`'s scaled design, scale and rcond for a degree-1 fit on
    0..n-1, and the lower neighbour indexes and weights of the 75th and
    25th linear-method percentiles."""
    design = np.vander(np.arange(n) + 0.0, 2)
    scale = np.sqrt((design * design).sum(axis=0))
    design /= scale
    virtual = (n - 1) * np.true_divide([75, 25], 100)
    prev = np.floor(virtual)
    gamma = virtual - prev
    for a in (design, scale, gamma):
        a.setflags(write=False)
    return design, scale, n * np.finfo(np.float64).eps, prev.astype(np.intp), gamma


def _order_stats(X, prev, gamma):
    """Max, min, median and 75-25 interquartile range of each row of X, from
    one sort, with np.percentile's linear interpolation between the sorted
    neighbours `prev` and `prev + 1`. Sort and numpy's partition may order
    -0.0 and 0.0 differently, and NaN too, so a matrix holding either goes
    through numpy's own functions."""
    srt = np.sort(X, axis=1)
    if np.isnan(srt[:, -1]).any() or np.signbit(srt[srt == 0]).any():
        q75, q25 = np.percentile(X, [75, 25], axis=1)
        return X.max(axis=1), X.min(axis=1), np.median(X, axis=1), q75 - q25
    n = X.shape[1]
    median = srt[:, (n - 1) // 2 : n // 2 + 1].mean(axis=1)
    lo, hi = srt[:, prev], srt[:, prev + 1]
    diff = hi - lo
    q = lo + diff * gamma
    np.subtract(hi, diff * (1 - gamma), out=q, where=gamma >= 0.5)
    return srt[:, -1], srt[:, 0], median, q[:, 0] - q[:, 1]


def _time_features(X: np.ndarray) -> np.ndarray:
    """(C, 16): the time-domain features of each row of X, byte for byte as
    numpy's max, min, median, std, var, percentile and polyfit give them."""
    C, n = X.shape
    design, scale, rcond, prev, gamma = _window_axes(n)
    mean = X.mean(axis=1)
    centered = X - mean[:, None]
    sq = centered**2
    sq_sum = sq.sum(axis=1)
    var_pop = sq_sum / n
    var = sq_sum / (n - 1)  # ddof = 1, as np.var; np.std is its sqrt
    lag1 = centered[:, :-1] * centered[:, 1:]
    live = var_pop > 0
    skew, kurt, autocorr, zcr = np.zeros((4, C))
    if live.any():
        live = slice(None) if live.all() else live  # no copies when all live
        # Python float powers: numpy's power differs in the last bit
        v = [float(s) for s in var_pop[live]]
        c = centered[live]
        skew[live] = (c**3).mean(axis=1) / [s**1.5 for s in v]
        kurt[live] = (c**4).mean(axis=1) / [s**2 for s in v] - 3.0
        autocorr[live] = lag1[live].sum(axis=1) / sq_sum[live]
        zcr[live] = np.count_nonzero(lag1[live] < 0, axis=1) / (n - 1)
    # np.polyfit's arithmetic (it adds 0.0 to y), one fit per row: a
    # multi-column lstsq differs in the last bit
    slope = [np.linalg.lstsq(design, row, rcond)[0][0] / scale[0]
             for row in X + 0.0]
    hi, lo, median, iqr = _order_stats(X, prev, gamma)
    energy = (X * X).sum(axis=1)
    return np.stack([
        hi, lo, mean, median, np.sqrt(var), var, np.sqrt(energy / n),
        hi - lo, iqr, skew, kurt, np.abs(np.diff(X, axis=1)).mean(axis=1),
        zcr, energy, autocorr, slope,
    ], axis=1)


def _freq_features(X: np.ndarray) -> np.ndarray:
    """(C, 8): the frequency-domain features of each row of X; a row with
    zero spectral power gets zeros."""
    freqs, power = power_spectrum(X)
    _, _, b5, b20 = _spectrum_axes(X.shape[1])
    out = np.zeros((X.shape[0], len(FREQ_FEATURES)))
    total = power.sum(axis=1)
    live = total > 0
    if not live.any():
        return out
    power, total = power[live], total[live]
    p = power / total[:, None]
    centroid = (freqs * p).sum(axis=1)
    spread = np.sqrt((p * (freqs - centroid[:, None]) ** 2).sum(axis=1))
    peak = np.argmax(power, axis=1)
    rolloff = np.count_nonzero(np.cumsum(p, axis=1) < 0.85, axis=1)
    # the bands are contiguous bin ranges; slices keep the summation order
    out[live] = np.stack([
        [_entropy_of_power(row) for row in power], centroid, spread,
        freqs[peak], power[np.arange(peak.size), peak], freqs[rolloff],
        power[:, :b5].sum(axis=1), power[:, b5:b20].sum(axis=1),
    ], axis=1)
    return out


def _channel_features(X: np.ndarray) -> np.ndarray:
    """(C, 24): the catalog features of each row of a (C, W) matrix."""
    if X.shape[1] < 4:
        raise ValueError("need at least 4 samples (kurtosis)")
    return np.concatenate([_time_features(X), _freq_features(X)], axis=1)


def feature_names() -> list[str]:
    names = [f"{ch}_{feat}" for ch in CHANNEL_NAMES for feat in FEATURE_NAMES]
    names.append("jump_type")
    return names


def feature_rows(windows: np.ndarray, ordinals) -> np.ndarray:
    """(k, 145): the feature vector of each W x 6 window of a (k, W, 6)
    stack, its jump type last; `ordinals` holds each window's jump type as
    `ClassVocabulary.jump_ordinal` gives it. The windows' channels go through
    the extractor as one (6 k, W) matrix, which gives each row the bytes it
    has on its own."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or windows.shape[2] != len(CHANNEL_NAMES):
        raise ValueError(f"window must be W x {len(CHANNEL_NAMES)}")
    k, width, channels = windows.shape
    rows = _channel_features(np.ascontiguousarray(
        windows.transpose(0, 2, 1)).reshape(k * channels, width))
    table = np.empty((k, channels * len(FEATURE_NAMES) + 1))
    table[:, :-1] = rows.reshape(k, -1)
    table[:, -1] = ordinals
    if not np.all(np.isfinite(table)):
        raise FloatingPointError("non-finite feature value")
    return table


def extract_feature_vector(
    window: np.ndarray,
    class_id: int,
    vocab: ClassVocabulary = DEFAULT_VOCAB,
) -> np.ndarray:
    """145-value feature vector of a W x 6 ROI window plus the jump type: the
    one-window case of `feature_rows`.

    The jump type is encoded as the ordinal index of class_id among the
    height-eligible classes.
    """
    ordinal = vocab.jump_ordinal(class_id)  # raises for non-eligible classes
    # feature_rows refuses a stack that is not (1, W, 6)
    return feature_rows(np.asarray(window)[None], [ordinal])[0]
