"""Handcrafted time/frequency-domain features of ROI windows.

24 features per channel (16 time-domain + 8 frequency-domain) over the six
IMU channels, plus the jump type as one ordinal scalar: 145 values total.
The catalog order is fixed and versioned so stored regressors can declare
which catalog they were fit against.
"""

from __future__ import annotations

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


def power_spectrum(signal):
    """One-sided power spectrum of the mean-removed signal.

    Normalized so that sum(power) equals the time-domain energy
    sum((x - mean)^2) exactly (Parseval).
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.size
    if n < 2:
        raise ValueError("power_spectrum needs at least 2 samples")
    x = x - x.mean()
    spec = np.fft.rfft(x)
    power = np.abs(spec) ** 2 / n
    # interior bins fold in the negative frequencies
    scale = np.full(power.size, 2.0)
    scale[0] = 1.0
    if n % 2 == 0:
        scale[-1] = 1.0
    freqs = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE_HZ)
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


def spectral_entropy(signal) -> float:
    """Normalized Shannon entropy of the power spectrum, in [0, 1].

    A zero spectrum (constant signal) maps to 0.
    """
    _, power = power_spectrum(signal)
    return _entropy_of_power(power)


def _time_features(x: np.ndarray) -> list[float]:
    n = x.size
    mean = x.mean()
    centered = x - mean
    var_pop = float((centered**2).mean())
    std_samp = float(x.std(ddof=1))
    if var_pop > 0:
        skew = float((centered**3).mean() / var_pop**1.5)
        kurt = float((centered**4).mean() / var_pop**2 - 3.0)
        autocorr = float((centered[:-1] * centered[1:]).sum() / (centered**2).sum())
        zcr = float(np.count_nonzero(centered[:-1] * centered[1:] < 0) / (n - 1))
    else:
        skew = kurt = autocorr = zcr = 0.0
    slope = float(np.polyfit(np.arange(n), x, 1)[0])
    return [
        float(x.max()),
        float(x.min()),
        float(mean),
        float(np.median(x)),
        std_samp,
        float(x.var(ddof=1)),
        float(np.sqrt((x**2).mean())),
        float(x.max() - x.min()),
        float(np.percentile(x, 75) - np.percentile(x, 25)),
        skew,
        kurt,
        float(np.abs(np.diff(x)).mean()),
        zcr,
        float((x**2).sum()),
        autocorr,
        slope,
    ]


def _freq_features(x: np.ndarray) -> list[float]:
    freqs, power = power_spectrum(x)
    total = power.sum()
    if total <= 0:
        return [0.0] * len(FREQ_FEATURES)
    p = power / total
    entropy = _entropy_of_power(power)
    centroid = float((freqs * p).sum())
    spread = float(np.sqrt((p * (freqs - centroid) ** 2).sum()))
    peak = int(np.argmax(power))
    cum = np.cumsum(p)
    rolloff = float(freqs[int(np.searchsorted(cum, 0.85))])
    low = float(power[(freqs >= 0) & (freqs < 5.0)].sum())
    mid = float(power[(freqs >= 5.0) & (freqs < 20.0)].sum())
    return [entropy, centroid, spread, float(freqs[peak]), float(power[peak]),
            rolloff, low, mid]


def extract_channel_features(signal) -> np.ndarray:
    """The 24 catalog features of one channel, in catalog order."""
    x = np.asarray(signal, dtype=np.float64)
    if x.size < 4:
        raise ValueError("need at least 4 samples (kurtosis)")
    return np.array(_time_features(x) + _freq_features(x))


def feature_names() -> list[str]:
    names = [f"{ch}_{feat}" for ch in CHANNEL_NAMES for feat in FEATURE_NAMES]
    names.append("jump_type")
    return names


def extract_feature_vector(
    window: np.ndarray,
    class_id: int,
    vocab: ClassVocabulary = DEFAULT_VOCAB,
) -> np.ndarray:
    """145-value feature vector of a W x 6 ROI window plus the jump type.

    The jump type is encoded as the ordinal index of class_id among the
    height-eligible classes.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2 or window.shape[1] != len(CHANNEL_NAMES):
        raise ValueError(f"window must be W x {len(CHANNEL_NAMES)}")
    ordinal = vocab.jump_ordinal(class_id)  # raises for non-eligible classes
    parts = [extract_channel_features(window[:, c])
             for c in range(window.shape[1])]
    parts.append(np.array([float(ordinal)]))
    vec = np.concatenate(parts)
    if not np.all(np.isfinite(vec)):
        raise FloatingPointError("non-finite feature value")
    return vec
