"""Persistence and data generation: session/annotation/height CSV files,
versioned model checkpoints, and the synthetic volleyball-session generator
used for desk-scale verification.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import regression, tcn
from .segmentation import DEFAULT_VOCAB, ClassVocabulary, Segment

SAMPLE_RATE_HZ = 100
GRAVITY = 9.81
SESSION_HEADER = ["t", "ax", "ay", "az", "gx", "gy", "gz"]
CHECKPOINT_MAGIC = "JUMPPIPE-CKPT"
CHECKPOINT_VERSION = 1


class ParseError(ValueError):
    """Malformed input file; carries the file path and line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


@dataclass
class ImuSession:
    subject_id: str
    samples: np.ndarray  # (N, 6) float64: ax, ay, az in g; gx, gy, gz in deg/s
    labels: np.ndarray | None = None
    sample_rate_hz: int = SAMPLE_RATE_HZ

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2 or self.samples.shape[1] != 6:
            raise ValueError("samples must be an N x 6 array")
        if self.samples.shape[0] < 1:
            raise ValueError("session must contain at least one sample")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape[0] != self.samples.shape[0]:
                raise ValueError("labels length must equal sample count")


@dataclass
class HeightRecord:
    subject_id: str
    segment: Segment
    height_m: float

    def __post_init__(self):
        if self.height_m <= 0:
            raise ValueError("height_m must be positive")


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ------------------------------------------------------------- session CSV

def _fmt(x: float) -> str:
    return f"{x:.9g}"


def write_session_csv(session: ImuSession, path,
                      vocab: ClassVocabulary = DEFAULT_VOCAB) -> None:
    header = list(SESSION_HEADER)
    if session.labels is not None:
        header.append("label")
    lines = [",".join(header)]
    dt = 1.0 / session.sample_rate_hz
    for i, row in enumerate(session.samples):
        cells = [_fmt(i * dt)] + [_fmt(v) for v in row]
        if session.labels is not None:
            cells.append(vocab.names[session.labels[i]])
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def reject_non_finite(path, lines, table: np.ndarray) -> None:
    """Raise a ParseError naming the first line with a nan or inf cell.

    Row i of the (rows, columns) `table` holds the i-th non-blank line after
    the header of `lines`.
    """
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        data_lines = [ln for ln, line in enumerate(lines[1:], start=2) if line]
        raise ParseError(path, data_lines[int(finite.argmin())],
                         "non-finite cell (nan or inf)")


def read_session_csv(path, subject_id: str | None = None,
                     vocab: ClassVocabulary = DEFAULT_VOCAB) -> ImuSession:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file")
    header = lines[0].split(",")
    has_label = header == SESSION_HEADER + ["label"]
    if not has_label and header != SESSION_HEADER:
        expect = ",".join(SESSION_HEADER)
        raise ParseError(path, 1,
                         f"bad header {lines[0]!r}, expected {expect!r}"
                         " with optional trailing 'label'")
    rows, labels = [], []
    dt = 1.0 / SAMPLE_RATE_HZ
    ncols = len(header)
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != ncols:
            raise ParseError(path, ln, f"expected {ncols} cells, got {len(cells)}")
        try:
            t = float(cells[0])
            values = [float(c) for c in cells[1:7]]
        except ValueError as e:
            raise ParseError(path, ln, f"non-numeric cell: {e}") from None
        expected_t = (ln - 2) * dt
        if not abs(t - expected_t) <= 1e-6:  # also rejects a nan timestamp
            raise ParseError(path, ln,
                             f"irregular timestamp {t}, expected {expected_t:.2f}")
        rows.append(values)
        if has_label:
            try:
                labels.append(vocab.index(cells[7]))
            except KeyError as e:
                raise ParseError(path, ln, str(e)) from None
    if not rows:
        raise ParseError(path, 2, "no data rows")
    samples = np.array(rows)
    reject_non_finite(path, lines, samples)
    if subject_id is None:
        subject_id = os.path.splitext(os.path.basename(path))[0]
    return ImuSession(
        subject_id=subject_id,
        samples=samples,
        labels=np.array(labels) if has_label else None,
    )


# ------------------------------------------------- annotations and heights

def _check_segments_valid(segments, path):
    ordered = sorted(segments, key=lambda s: s.start)
    for a, b in zip(ordered, ordered[1:]):
        if b.start < a.end:
            raise ParseError(path, 0, f"overlapping segments {a} and {b}")


def read_annotations(path, vocab: ClassVocabulary = DEFAULT_VOCAB) -> list[Segment]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "start_sample,end_sample,label":
        raise ParseError(path, 1, "expected header 'start_sample,end_sample,label'")
    segments = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 3:
            raise ParseError(path, ln, "expected 3 cells")
        try:
            start, end = int(cells[0]), int(cells[1])
        except ValueError:
            raise ParseError(path, ln, "non-integer sample index") from None
        try:
            cid = vocab.index(cells[2])
        except KeyError as e:
            raise ParseError(path, ln, str(e)) from None
        if end <= start:
            raise ParseError(path, ln, f"reversed interval [{start}, {end})")
        segments.append(Segment(start, end, cid))
    _check_segments_valid(segments, path)
    return segments


def write_annotations(segments, path,
                      vocab: ClassVocabulary = DEFAULT_VOCAB) -> None:
    lines = ["start_sample,end_sample,label"]
    for seg in segments:
        lines.append(f"{seg.start},{seg.end},{vocab.names[seg.class_id]}")
    atomic_write_text(path, "\n".join(lines) + "\n")


HEIGHTS_HEADER = "subject_id,start_sample,end_sample,label,height_m"


def read_heights(path, vocab: ClassVocabulary = DEFAULT_VOCAB) -> list[HeightRecord]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != HEIGHTS_HEADER:
        raise ParseError(path, 1, f"expected header {HEIGHTS_HEADER!r}")
    records = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 5:
            raise ParseError(path, ln, "expected 5 cells")
        try:
            start, end = int(cells[1]), int(cells[2])
            height = float(cells[4])
        except ValueError:
            raise ParseError(path, ln, "non-numeric cell") from None
        try:
            cid = vocab.index(cells[3])
        except KeyError as e:
            raise ParseError(path, ln, str(e)) from None
        if end <= start:
            raise ParseError(path, ln, f"reversed interval [{start}, {end})")
        if not 0 < height < math.inf:  # also rejects nan
            raise ParseError(path, ln,
                             f"height must be positive and finite, got {height}")
        if not vocab.is_jump(cid):
            raise ParseError(path, ln,
                             f"class {cells[3]!r} is not height-eligible")
        records.append(HeightRecord(cells[0], Segment(start, end, cid), height))
    return records


def write_heights(records, path, vocab: ClassVocabulary = DEFAULT_VOCAB) -> None:
    lines = [HEIGHTS_HEADER]
    for r in records:
        lines.append(
            f"{r.subject_id},{r.segment.start},{r.segment.end},"
            f"{vocab.names[r.segment.class_id]},{_fmt(r.height_m)}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


# ----------------------------------------------------------- checkpoints

def save_checkpoint(model, path) -> None:
    """Versioned JSON container for either a TCN or a regressor."""
    if isinstance(model, tcn.ModelWeights):
        kind, body = "mstcn", tcn.weights_to_doc(model)
    elif isinstance(model, regression.TrainedRegressor):
        kind, body = model.kind, regression.to_doc(model)
    else:
        raise TypeError(f"cannot checkpoint object of type {type(model)}")
    doc = {"magic": CHECKPOINT_MAGIC, "format_version": CHECKPOINT_VERSION,
           "kind": kind, **body}
    atomic_write_text(path, json.dumps(doc))


def load_checkpoint(path, expect: str | None = None):
    """Load a checkpoint; `expect` is 'mstcn' or 'regressor' to enforce kind."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: corrupt or truncated checkpoint: {e}") from None
    if not isinstance(doc, dict) or doc.get("magic") != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a jumppipe checkpoint (bad magic)")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: unsupported checkpoint version {doc.get('format_version')}"
        )
    if "kind" not in doc:
        raise ValueError(f"{path}: checkpoint is missing field 'kind'")
    kind = doc["kind"]
    if expect == "mstcn" and kind != "mstcn":
        raise ValueError(f"{path}: expected an MS-TCN checkpoint, found {kind!r}")
    if expect == "regressor" and kind == "mstcn":
        raise ValueError(f"{path}: expected a regressor checkpoint, found {kind!r}")
    try:
        if kind == "mstcn":
            return tcn.weights_from_doc(doc)
        return regression.from_doc(kind, doc)
    except KeyError as e:
        raise ValueError(f"{path}: {kind} checkpoint is missing field "
                         f"{e.args[0]!r}") from None
    except (ValueError, TypeError, OverflowError) as e:
        raise ValueError(f"{path}: {e}") from None


# ------------------------------------------------------ synthetic sessions

DEFAULT_JUMPS_PER_CLASS = {
    "CMJ": 9, "Smash": 8, "Block": 8, "OS": 5, "Squat": 2, "Dive": 2, "Hop": 2,
}


@dataclass
class SyntheticConfig:
    num_subjects: int = 10
    jumps_per_class: dict = field(
        default_factory=lambda: dict(DEFAULT_JUMPS_PER_CLASS))
    session_duration_s: float = 170.0
    noise_std_g: float = 0.05
    height_range_m: tuple = (0.15, 0.60)
    hop_height_range_m: tuple = (0.02, 0.08)
    min_gap_s: float = 1.0
    seed: int = 42
    script_seed: int | None = None  # pin separately to vary only the noise

    def __post_init__(self):
        if self.session_duration_s <= 0:
            raise ValueError("session_duration_s must be positive")
        if self.noise_std_g < 0:
            raise ValueError("noise_std_g must be >= 0")


def flight_time_s(height_m: float) -> float:
    """Projectile flight time for a given jump height."""
    return math.sqrt(8.0 * height_m / GRAVITY)


def _half_sine(n: int) -> np.ndarray:
    return np.sin(np.linspace(0, math.pi, n, endpoint=False))


def _triangle(n: int) -> np.ndarray:
    up = np.linspace(0, 1, n // 2, endpoint=False)
    down = np.linspace(1, 0, n - n // 2, endpoint=False)
    return np.concatenate([up, down])


def _jump_event(class_name: str, height: float, fs: int):
    """Noiseless 6-channel template of one flight event and its label span.

    Vertical acceleration (ay): countermovement dip, takeoff push whose peak
    grows with height, a near-zero flight plateau of exactly
    round(flight_time * fs) samples, a landing spike of peak 3 + 8*h g, then
    a damped recovery. Gyro signatures distinguish the classes.
    """
    n_dip = int(0.30 * fs)
    n_push = int(0.15 * fs)
    n_flight = round(flight_time_s(height) * fs)
    n_land = int(0.10 * fs)
    n_rec = int(0.25 * fs)
    n = n_dip + n_push + n_flight + n_land + n_rec
    sig = np.zeros((n, 6))
    ay = np.ones(n)
    t0 = 0
    dip_depth = 0.3 if class_name == "Block" else 0.6
    ay[t0:t0 + n_dip] -= dip_depth * _half_sine(n_dip)
    t0 += n_dip
    push_peak = 1.5 + 5.0 * height
    ay[t0:t0 + n_push] += (push_peak - 1.0) * _half_sine(n_push)
    t0 += n_push
    flight_start = t0
    ay[t0:t0 + n_flight] = 0.0
    t0 += n_flight
    land_peak = 3.0 + 8.0 * height
    ay[t0:t0 + n_land] = land_peak * _triangle(n_land)
    land_end = t0 + n_land
    t0 = land_end
    rec = 0.5 * np.exp(-np.arange(n_rec) / (0.08 * fs))
    ay[t0:] = 1.0 + rec * np.sin(2 * math.pi * 6.0 * np.arange(n_rec) / fs)
    sig[:, 1] = ay

    if class_name == "CMJ":
        sig[:n_dip, 3] = 20.0 * _half_sine(n_dip)
    elif class_name == "Smash":
        burst = min(n, n_dip + n_push + int(0.15 * fs))
        sig[:burst, 3] = 150.0 * _half_sine(burst)
        sig[:n_dip, 0] = 0.3 * _half_sine(n_dip)
    elif class_name == "Block":
        span = n_dip + n_push
        sig[:span, 4] = 120.0 * np.sin(
            np.linspace(0, 2 * math.pi, span, endpoint=False))
    elif class_name == "OS":
        span = n_dip + n_push
        sig[:span, 5] = 100.0 * _half_sine(span)
        sig[:n_dip, 0] = 0.5 * _half_sine(n_dip)
    elif class_name == "Hop":
        sig[:, 1] = 1.0 + 0.5 * (ay - 1.0)  # damped vertical dynamics
        sig[flight_start:flight_start + n_flight, 1] = 0.0
    # label spans movement onset through landing end
    return sig, (0, land_end), n_flight


def _squat_event(fs: int):
    n = int(1.5 * fs)
    sig = np.zeros((n, 6))
    sig[:, 1] = 1.0 - 0.55 * np.sin(np.linspace(0, math.pi, n, endpoint=False))
    sig[:, 3] = 30.0 * np.sin(np.linspace(0, 2 * math.pi, n, endpoint=False))
    return sig, (0, n), 0


def _dive_event(fs: int):
    n = int(0.8 * fs)
    sig = np.zeros((n, 6))
    half = n // 2
    sig[:, 0] = 2.5 * _half_sine(n)
    sig[:, 3] = 200.0 * _triangle(n)
    ay = np.ones(n)
    ay[:half] = 1.0 - 0.7 * _half_sine(half)
    ay[half:half + int(0.1 * fs)] = 2.0
    sig[:, 1] = ay
    return sig, (0, n), 0


def synth_generate(config: SyntheticConfig,
                   vocab: ClassVocabulary = DEFAULT_VOCAB):
    """Generate labeled synthetic sessions plus exact height records.

    Deterministic per (seed, script_seed): the script rng drives event
    order, timing and heights; the noise rng only adds measurement noise.
    """
    fs = SAMPLE_RATE_HZ
    script_seed = config.script_seed if config.script_seed is not None \
        else config.seed
    script_master = np.random.default_rng(script_seed)
    noise_master = np.random.default_rng(config.seed)
    sessions, height_records = [], []
    n_total = int(config.session_duration_s * fs)
    for s in range(config.num_subjects):
        script = np.random.default_rng(script_master.integers(0, 2**63))
        noise = np.random.default_rng(noise_master.integers(0, 2**63))
        subject_id = f"S{s:02d}"
        events = []
        for name, count in config.jumps_per_class.items():
            events.extend([name] * count)
        script.shuffle(events)
        samples = np.zeros((n_total, 6))
        samples[:, 1] = 1.0  # gravity baseline on the vertical axis
        labels = np.zeros(n_total, dtype=np.int64)
        cursor = int(script.uniform(config.min_gap_s, config.min_gap_s + 1.0) * fs)
        for name in events:
            if name == "Squat":
                sig, span, _ = _squat_event(fs)
                height = None
            elif name == "Dive":
                sig, span, _ = _dive_event(fs)
                height = None
            else:
                if name == "Hop":
                    lo, hi = config.hop_height_range_m
                else:
                    lo, hi = config.height_range_m
                height = float(script.uniform(lo, hi))
                sig, span, _ = _jump_event(name, height, fs)
            n = sig.shape[0]
            if cursor + n > n_total:
                raise ValueError(
                    f"subject {subject_id}: events do not fit in "
                    f"{config.session_duration_s} s"
                )
            block = samples[cursor:cursor + n]
            block[:, :] = sig
            lo_s, hi_s = cursor + span[0], cursor + span[1]
            labels[lo_s:hi_s] = vocab.index(name)
            if height is not None and vocab.is_jump(vocab.index(name)):
                height_records.append(
                    HeightRecord(subject_id, Segment(lo_s, hi_s,
                                                     vocab.index(name)), height)
                )
            cursor += n + int(script.uniform(config.min_gap_s,
                                             config.min_gap_s + 1.5) * fs)
        if config.noise_std_g > 0:
            samples[:, :3] += noise.normal(0, config.noise_std_g,
                                           size=(n_total, 3))
            samples[:, 3:] += noise.normal(0, config.noise_std_g * 100.0,
                                           size=(n_total, 3))
        sessions.append(ImuSession(subject_id, samples, labels))
    return sessions, height_records


def oracle_height_from_window(window: np.ndarray, fs: int = SAMPLE_RATE_HZ,
                              threshold_g: float = 0.35) -> float:
    """Invert the generator physics: measure the longest near-zero plateau of
    vertical acceleration inside the window and apply h = g * T_f^2 / 8.

    Used only as an independent verification oracle for the synthetic data.
    """
    ay = np.asarray(window)[:, 1]
    low = np.abs(ay) < threshold_g
    best = run = 0
    for v in low:
        run = run + 1 if v else 0
        best = max(best, run)
    tf = best / fs
    return GRAVITY * tf**2 / 8.0
