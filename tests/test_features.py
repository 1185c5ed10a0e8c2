import numpy as np
import pytest
import scipy.stats

from jumppipe import features as feat
from jumppipe import segmentation as seg
from jumppipe.features import (FEATURE_NAMES, SCALING_DEGREE,
                               extract_feature_vector, feature_names,
                               power_spectrum)
from jumppipe.segmentation import DEFAULT_VOCAB


def channel_features(signal) -> np.ndarray:
    """The 24 catalog features of one signal: the first channel's slice of
    the feature vector of a window that holds the signal in that channel
    and zeros in the others."""
    x = np.asarray(signal, dtype=np.float64)
    window = np.zeros((x.size, len(feat.CHANNEL_NAMES)))
    window[:, 0] = x
    vector = extract_feature_vector(window, DEFAULT_VOCAB.index("CMJ"))
    return vector[:len(FEATURE_NAMES)]


def spectral_entropy(signal) -> float:
    return channel_features(signal)[FEATURE_NAMES.index("spectral_entropy")]


class TestPowerSpectrum:
    def test_constant_signal_zero_spectrum(self):
        _, power = power_spectrum(np.full(100, 3.7))
        np.testing.assert_allclose(power, 0.0, atol=1e-20)

    def test_sine_dominant_bin(self):
        t = np.arange(300) / 100.0
        freqs, power = power_spectrum(np.sin(2 * np.pi * 5.0 * t))
        assert np.argmax(power) == 15
        assert freqs[15] == pytest.approx(5.0)

    @pytest.mark.parametrize("seed,n", [(0, 64), (1, 65), (2, 300), (3, 7)])
    def test_parseval(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        _, power = power_spectrum(x)
        energy = ((x - x.mean()) ** 2).sum()
        assert power.sum() == pytest.approx(energy, rel=1e-6)

    def test_too_short(self):
        with pytest.raises(ValueError):
            power_spectrum([1.0])


class TestSpectralEntropy:
    def test_constant_is_zero(self):
        assert spectral_entropy(np.full(50, 2.0)) == 0.0

    def test_impulse_is_flat_spectrum(self):
        # mean-removed impulse has |X_k| = 1 on every non-DC bin; with odd
        # length there is no Nyquist bin so the distribution is exactly flat
        x = np.zeros(301)
        x[0] = 1.0
        assert spectral_entropy(x) == pytest.approx(1.0)

    def test_pure_tone_is_concentrated(self):
        t = np.arange(300) / 100.0
        value = spectral_entropy(np.sin(2 * np.pi * 5.0 * t))
        assert value < 0.2
        # the tone sits exactly on bin 15, so leakage is float noise only
        assert value < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_bounded(self, seed):
        x = np.random.default_rng(seed).normal(size=128)
        assert 0.0 <= spectral_entropy(x) <= 1.0


class TestChannelFeatures:
    def test_catalog_has_24_entries(self):
        assert len(FEATURE_NAMES) == 24
        assert "max" in FEATURE_NAMES
        assert "std" in FEATURE_NAMES
        assert "spectral_entropy" in FEATURE_NAMES

    def test_zero_window(self):
        values = channel_features(np.zeros(50))
        np.testing.assert_allclose(values, 0.0)

    def test_hand_example(self):
        values = dict(zip(FEATURE_NAMES, channel_features([1., 2., 3., 4.])))
        assert values["max"] == 4
        assert values["min"] == 1
        assert values["mean"] == 2.5
        assert values["peak_to_peak"] == 3
        assert values["mean_abs_diff"] == 1
        assert values["linear_slope"] == pytest.approx(1.0)

    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=200)
        values = dict(zip(FEATURE_NAMES, channel_features(x)))
        assert values["median"] == pytest.approx(np.median(x))
        assert values["std"] == pytest.approx(np.std(x, ddof=1))
        assert values["variance"] == pytest.approx(np.var(x, ddof=1))
        assert values["rms"] == pytest.approx(np.sqrt(np.mean(x**2)))
        assert values["iqr"] == pytest.approx(scipy.stats.iqr(x))
        assert values["skewness"] == pytest.approx(scipy.stats.skew(x))
        assert values["kurtosis"] == pytest.approx(scipy.stats.kurtosis(x))
        assert values["signal_energy"] == pytest.approx((x**2).sum())
        centered = x - x.mean()
        assert values["autocorr_lag1"] == pytest.approx(
            (centered[:-1] * centered[1:]).sum() / (centered**2).sum()
        )
        slope, _, _, _, _ = scipy.stats.linregress(np.arange(x.size), x)
        assert values["linear_slope"] == pytest.approx(slope)

    def test_degenerate_constant_window(self):
        values = dict(zip(FEATURE_NAMES, channel_features(np.full(20, 5.0))))
        assert values["skewness"] == 0.0
        assert values["kurtosis"] == 0.0
        assert values["autocorr_lag1"] == 0.0
        assert values["spectral_entropy"] == 0.0
        assert values["mean"] == 5.0

    def test_single_spike_finite(self):
        x = np.zeros(100)
        x[40] = 1e6
        assert np.all(np.isfinite(channel_features(x)))

    def test_too_short(self):
        with pytest.raises(ValueError):
            channel_features([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_scaling_homogeneity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=150)
        scale = 2.0
        base = channel_features(x)
        scaled = channel_features(scale * x)
        for name, b, s in zip(FEATURE_NAMES, base, scaled):
            degree = SCALING_DEGREE[name]
            assert s == pytest.approx(scale**degree * b, rel=1e-8, abs=1e-10), name


class TestFeatureVector:
    def test_length_145_and_names(self):
        window = np.random.default_rng(0).normal(size=(300, 6))
        vec = extract_feature_vector(window, DEFAULT_VOCAB.index("CMJ"))
        names = feature_names()
        assert vec.shape == (145,)
        assert len(names) == 145
        assert names[-1] == "jump_type"
        assert names[0] == "ax_max"

    def test_zero_window_cmj(self):
        vec = extract_feature_vector(np.zeros((100, 6)), DEFAULT_VOCAB.index("CMJ"))
        np.testing.assert_allclose(vec[:-1], 0.0)
        assert vec[-1] == 0.0

    def test_jump_type_ordinals(self):
        window = np.zeros((50, 6))
        for expected, name in enumerate(("CMJ", "Smash", "Block", "OS")):
            vec = extract_feature_vector(window, DEFAULT_VOCAB.index(name))
            assert vec[-1] == expected

    def test_non_eligible_class_rejected(self):
        with pytest.raises(ValueError):
            extract_feature_vector(np.zeros((50, 6)), DEFAULT_VOCAB.index("Squat"))

    def test_wrong_channel_count(self):
        with pytest.raises(ValueError):
            extract_feature_vector(np.zeros((50, 5)), DEFAULT_VOCAB.index("CMJ"))

    def test_pure_function(self):
        window = np.random.default_rng(5).normal(size=(120, 6))
        a = extract_feature_vector(window, 1)
        b = extract_feature_vector(window, 1)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_channel_permutation_block_structure(self, seed):
        rng = np.random.default_rng(seed)
        window = rng.normal(size=(80, 6))
        c1, c2 = rng.choice(6, size=2, replace=False)
        swapped = window.copy()
        swapped[:, [c1, c2]] = swapped[:, [c2, c1]]
        a = extract_feature_vector(window, 1)
        b = extract_feature_vector(swapped, 1)
        blocks_a = a[:-1].reshape(6, 24)
        blocks_b = b[:-1].reshape(6, 24)
        np.testing.assert_array_equal(blocks_b[c1], blocks_a[c2])
        np.testing.assert_array_equal(blocks_b[c2], blocks_a[c1])
        others = [c for c in range(6) if c not in (c1, c2)]
        np.testing.assert_array_equal(blocks_b[others], blocks_a[others])
        assert a[-1] == b[-1]

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_for_random_windows(self, seed):
        rng = np.random.default_rng(seed)
        window = rng.normal(size=(300, 6)) * rng.uniform(0.01, 100)
        vec = extract_feature_vector(window, 1)
        assert np.all(np.isfinite(vec))


# ---------------------------------------------------------------- oracle
# The catalog as it was computed one channel at a time, kept as the oracle
# that the row-wise code in `features` must match byte for byte.

def _oracle_power_spectrum(x):
    n = x.size
    x = x - x.mean()
    power = np.abs(np.fft.rfft(x)) ** 2 / n
    scale = np.full(power.size, 2.0)
    scale[0] = 1.0
    if n % 2 == 0:
        scale[-1] = 1.0
    return np.fft.rfftfreq(n, d=1.0 / feat.SAMPLE_RATE_HZ), power * scale


def _oracle_entropy(power):
    body = power[1:]
    total = body.sum()
    if total <= 0 or body.size < 2:
        return 0.0
    p = body / total
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum() / np.log(p.size))


def _oracle_time_features(x):
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
    return [float(x.max()), float(x.min()), float(mean), float(np.median(x)),
            std_samp, float(x.var(ddof=1)), float(np.sqrt((x**2).mean())),
            float(x.max() - x.min()),
            float(np.percentile(x, 75) - np.percentile(x, 25)), skew, kurt,
            float(np.abs(np.diff(x)).mean()), zcr, float((x**2).sum()),
            autocorr, slope]


def _oracle_freq_features(x):
    freqs, power = _oracle_power_spectrum(x)
    total = power.sum()
    if total <= 0:
        return [0.0] * len(feat.FREQ_FEATURES)
    p = power / total
    centroid = float((freqs * p).sum())
    spread = float(np.sqrt((p * (freqs - centroid) ** 2).sum()))
    peak = int(np.argmax(power))
    rolloff = float(freqs[int(np.searchsorted(np.cumsum(p), 0.85))])
    low = float(power[(freqs >= 0) & (freqs < 5.0)].sum())
    mid = float(power[(freqs >= 5.0) & (freqs < 20.0)].sum())
    return [_oracle_entropy(power), centroid, spread, float(freqs[peak]),
            float(power[peak]), rolloff, low, mid]


def _oracle_vector(window, class_id):
    parts = [_oracle_time_features(window[:, c]) + _oracle_freq_features(window[:, c])
             for c in range(window.shape[1])]
    ordinal = DEFAULT_VOCAB.jump_ordinal(class_id)
    return np.array([v for part in parts for v in part] + [float(ordinal)])


def _width_windows(width):
    """Random, constant, all-zero and zero-padded edge ROI windows."""
    rng = np.random.default_rng(width)
    for k in range(4):
        yield f"random{k}", rng.normal(size=(width, 6)) * rng.uniform(
            0.01, 100, size=6)
    constant = rng.normal(size=(width, 6))
    constant[:, [1, 4]] = [1.0, -3.25]
    yield "constant_channels", constant
    yield "all_zero", np.zeros((width, 6))
    session = rng.normal(size=(width // 2 + 1, 6))
    n = session.shape[0]
    for segment in (seg.Segment(0, 1, 1), seg.Segment(n - 1, n, 1)):
        roi = seg.select_roi(segment, n, width)
        assert roi.left_pad or roi.right_pad
        yield "edge_roi", seg.roi_window(roi, session)


def _oracle_windows():
    """(name, W x 6 window): random, constant, all-zero, zero-padded edge
    ROIs and exact-zero spectral bins, at every width of the contract; then
    the same at more odd and even widths around the median and quartile
    indexes, and windows rounded to 0.1, so with ties and signed zeros.
    New windows go last, so each earlier one keeps its test id."""
    for width in (4, 5, 64, 300, 301):
        yield from _width_windows(width)
    for width in (64, 300):
        zero_bins = np.empty((width, 6))
        zero_bins[:, :2] = np.tile([1.0, -1.0], width // 2)[:, None]
        zero_bins[:, 2:] = np.tile([3.0, 1.0, -2.0, 0.5], width // 4)[:, None]
        yield "zero_bins", zero_bins
    for width in (6, 7, 17, 299):
        yield from _width_windows(width)
    for width in (4, 5, 6, 7, 17, 64, 299, 300, 301):
        rng = np.random.default_rng([width, 1])
        for k in range(2):
            yield f"ties{k}", np.round(rng.normal(size=(width, 6)), 1)


class TestByteEqualToScalarOracle:
    @pytest.mark.parametrize("name,window", list(_oracle_windows()))
    def test_vector(self, name, window):
        got = extract_feature_vector(window, DEFAULT_VOCAB.index("Smash"))
        assert got.tobytes() == _oracle_vector(window, 2).tobytes(), name
        for c in range(6):
            x = window[:, c]
            one = _oracle_time_features(x) + _oracle_freq_features(x)
            assert got[24 * c:24 * (c + 1)].tobytes() == \
                np.array(one).tobytes(), (name, c)

    @pytest.mark.parametrize("width", [4, 5, 64, 300, 301])
    def test_stacked_windows_match_one_by_one(self, width):
        """Every window of one width through one `feature_rows` call: a
        window with ties or signed zeros shares the matrix with the
        others."""
        windows = [w for _, w in _oracle_windows() if w.shape[0] == width]
        ordinals = [k % 4 for k in range(len(windows))]
        ids = [DEFAULT_VOCAB.eligible_ids()[o] for o in ordinals]
        table = feat.feature_rows(np.stack(windows), ordinals)
        assert table.shape == (len(windows), 145)
        for row, window, class_id in zip(table, windows, ids):
            assert row.tobytes() == extract_feature_vector(
                window, class_id).tobytes()

    def test_zero_bins_case_has_exact_zero_bins(self):
        window = dict(_oracle_windows())["zero_bins"]
        for c in range(6):
            _, power = _oracle_power_spectrum(window[:, c])
            assert (power[1:] == 0.0).any()
