"""Persistence and data generation: the one CSV codec and the tables read
and written through it (sessions, annotations, heights, the feature matrix),
versioned model checkpoints, and the synthetic volleyball-session generator
used for desk-scale verification.
"""

from __future__ import annotations

import io
import json
import math
import numbers
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import nncore, regression, tcn
from .features import CHANNEL_NAMES, SAMPLE_RATE_HZ, feature_names
from .segmentation import DEFAULT_VOCAB, Segment

GRAVITY = 9.81
SESSION_HEADER = ["t", *CHANNEL_NAMES]
ANNOTATIONS_HEADER = "start_sample,end_sample,label".split(",")
HEIGHTS_HEADER = "subject_id,start_sample,end_sample,label,height_m".split(",")
CHECKPOINT_MAGIC = "JUMPPIPE-CKPT"
CHECKPOINT_VERSION = 1
CHECKPOINT_HEADER = ("magic", "format_version", "kind")


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

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2 or self.samples.shape[1] != len(CHANNEL_NAMES):
            raise ValueError(f"samples must be an N x {len(CHANNEL_NAMES)} array")
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


def read_text(path) -> str:
    """The text of an input file as UTF-8, with "\r\n" and "\r" read as
    "\n" as text mode reads them; a byte that is not UTF-8 raises a
    ParseError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[:e.start].decode("utf-8").replace("\r\n", "\n")
        line = head.replace("\r", "\n").count("\n") + 1
        raise ParseError(path, line, f"byte 0x{data[e.start]:02x} is not "
                                     f"UTF-8 text") from None
    if "\r" in text:  # scanning for "\r\n" costs 60x more
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


# ------------------------------------------------------------------- CSV

def read_csv(path, *headers):
    """Read a comma-separated table whose first line is one of `headers`.

    Returns the header found and the (line number, cells) of each non-blank
    line after it. A header that is none of `headers`, or a row whose cell
    count differs from its header's, raises a ParseError at its line.
    """
    lines = read_text(path).splitlines()
    header = lines[0].split(",") if lines else []
    if header not in headers:
        expect = " or ".join(repr(",".join(h)) for h in headers)
        raise ParseError(path, 1, f"bad header, expected {expect}")
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if line:
            cells = line.split(",")
            if len(cells) != len(header):
                raise ParseError(path, ln, f"expected {len(header)} cells, "
                                           f"got {len(cells)}")
            rows.append((ln, cells))
    return header, rows


def write_csv(path, header, rows) -> None:
    """Write a table of tuples: floats with nine significant digits, which
    read back to the same text, and strings and integers as they are. Each
    column is formatted by the type of its cell in the first row."""
    rows = iter(rows)
    lines = [",".join(header)]
    first = next(rows, None)
    if first is not None:
        fmt = ",".join("%.9g" if isinstance(v, (float, np.floating)) else "%s"
                       for v in first)
        lines.append(fmt % first)
        lines += [fmt % row for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _plain(cell: str) -> str:
    """`cell` if it is ASCII without an underscore, else a ValueError:
    float() and int() also read `1_0` as 10 and a fullwidth '１' as 1."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(f"not a plain ASCII number: {cell!r}")
    return cell


def _float_table(path, rows, ncols: int) -> np.ndarray:
    """The first `ncols` cells of each row as finite float64s; no rows, or
    the first row with a non-numeric or non-finite cell, raise a ParseError."""
    if not rows:
        raise ParseError(path, 2, "no data rows")
    cells = np.array([c for _, c in rows], dtype=object)[:, :ncols]
    try:
        table = cells.astype(np.float64)  # float() on each cell
        text = "".join(cells.ravel().tolist())
        if np.isfinite(table).all() and text.isascii() and "_" not in text:
            return table
    except ValueError:
        pass
    for ln, row in rows:
        try:
            values = [float(_plain(c)) for c in row[:ncols]]
        except ValueError as e:
            raise ParseError(path, ln, f"non-numeric cell: {e}") from None
        if not np.isfinite(values).all():
            raise ParseError(path, ln, "non-finite cell (nan or inf)")


# ------------------------------------------------------------- session CSV

def write_session_csv(session: ImuSession, path) -> None:
    dt = 1.0 / SAMPLE_RATE_HZ
    rows = ((i * dt, *row) for i, row in enumerate(session.samples))
    header = SESSION_HEADER
    if session.labels is not None:
        header = header + ["label"]
        rows = ((*row, DEFAULT_VOCAB.names[c])
                for row, c in zip(rows, session.labels))
    write_csv(path, header, rows)


def read_session_csv(path) -> ImuSession:
    """A session CSV; its subject id is the file name without extension.

    numpy's C reader parses a well-formed file; any file that it cannot
    vouch for goes to the line reader, the one source of `path:line` errors.
    """
    parsed = _read_session_fast(path)
    table, labels = parsed if parsed is not None else _read_session_lines(path)
    subject_id = os.path.splitext(os.path.basename(path))[0]
    return ImuSession(subject_id, np.ascontiguousarray(table[:, 1:]), labels)


def _read_session_fast(path):
    """(table, labels) of a session CSV that numpy's reader parses whole and
    that passes every check of `_read_session_lines`, else None. Its floats
    are float()'s: both parse with the same C routine."""
    text = read_text(path)
    head, _, body = text.partition("\n")
    labelled = head == ",".join(SESSION_HEADER + ["label"])
    # with no line break but "\n" (none other that splitlines() knows),
    # and as many rows as lines, row i is line i + 2 as the line reader counts
    if not (body and text.isascii() and not body.startswith("\n")
            and (labelled or head == ",".join(SESSION_HEADER))
            and not any(c in body for c in "\x0b\x0c\x1c\x1d\x1e")):
        return None
    n = body.count("\n") + (not body.endswith("\n"))
    # one character wider than any class name: numpy's reader cuts a longer
    # cell to this width, and so can never cut one into a name
    width = max(map(len, DEFAULT_VOCAB.names)) + 1
    dtype = [("v", np.float64, len(SESSION_HEADER)), ("label", f"U{width}")]
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                          dtype=dtype if labelled else np.float64,
                          ndmin=1 if labelled else 2)
    except ValueError:
        return None
    table = rows["v"] if labelled else rows
    if (len(rows) != n or table.shape[1] != len(SESSION_HEADER)
            or not np.isfinite(table).all()
            or not (np.abs(table[:, 0] - np.arange(n) * (1.0 / SAMPLE_RATE_HZ))
                    <= 1e-6).all()):
        return None
    if not labelled:
        return table, None
    names, inverse = np.unique(rows["label"], return_inverse=True)
    if not set(names) <= set(DEFAULT_VOCAB.names):
        return None
    return table, np.array([DEFAULT_VOCAB.index(c) for c in names])[inverse]


def _read_session_lines(path):
    """(table, labels) of a session CSV read line by line; the first bad
    line raises a ParseError."""
    header, rows = read_csv(path, SESSION_HEADER, SESSION_HEADER + ["label"])
    table = _float_table(path, rows, len(SESSION_HEADER))
    # the timestamp follows the line number: a blank line skips a sample
    expected = (np.array([ln for ln, _ in rows]) - 2) * (1.0 / SAMPLE_RATE_HZ)
    irregular = ~(np.abs(table[:, 0] - expected) <= 1e-6)
    if irregular.any():
        i = int(irregular.argmax())
        raise ParseError(path, rows[i][0],
                         f"irregular timestamp {table[i, 0]}, "
                         f"expected {expected[i]:.2f}")
    labels = None
    if len(header) > len(SESSION_HEADER):
        try:
            labels = [DEFAULT_VOCAB.index(cells[-1]) for _, cells in rows]
        except KeyError as e:
            ln = next(ln for ln, cells in rows
                      if cells[-1] not in DEFAULT_VOCAB.names)
            raise ParseError(path, ln, str(e)) from None
    return table, labels


# ------------------------------------------------- annotations and heights

def _segment(path, ln, start, end, label) -> Segment:
    try:
        start, end = int(_plain(start)), int(_plain(end))
    except ValueError:
        raise ParseError(path, ln, "non-integer sample index") from None
    try:
        cid = DEFAULT_VOCAB.index(label)
    except KeyError as e:
        raise ParseError(path, ln, str(e)) from None
    if start < 0:
        raise ParseError(path, ln, f"negative start sample {start}")
    if end <= start:
        raise ParseError(path, ln, f"reversed interval [{start}, {end})")
    if cid == 0:
        raise ParseError(path, ln, f"label {label!r} is the background class")
    return Segment(start, end, cid)


def _refuse_overlaps(path, found) -> None:
    """Raise a ParseError if two segments of one owner overlap; `found`
    holds an (owner, segment, line number) triple per row."""
    ordered = sorted(found)
    for (oa, a, la), (ob, b, lb) in zip(ordered, ordered[1:]):
        if oa == ob and b.start < a.end:
            raise ParseError(path, max(la, lb), f"overlapping segments {a} "
                             f"and {b} (lines {la} and {lb})")


def read_annotations(path) -> list[Segment]:
    _, rows = read_csv(path, ANNOTATIONS_HEADER)
    found = [("", _segment(path, ln, *cells), ln) for ln, cells in rows]
    _refuse_overlaps(path, found)
    return [s for _, s, _ in found]


def write_annotations(segments, path) -> None:
    write_csv(path, ANNOTATIONS_HEADER,
              ((s.start, s.end, DEFAULT_VOCAB.names[s.class_id])
               for s in segments))


def _check_height(path, ln, height: float) -> None:
    """A ParseError at line `ln` unless `height` is positive and finite."""
    if not 0 < height < math.inf:  # also rejects nan
        raise ParseError(path, ln,
                         f"height must be positive and finite, got {height}")


def read_heights(path) -> list[HeightRecord]:
    _, rows = read_csv(path, HEIGHTS_HEADER)
    records, first_line = [], {}
    for ln, (subject, start, end, label, height) in rows:
        segment = _segment(path, ln, start, end, label)
        try:
            height = float(_plain(height))
        except ValueError:
            raise ParseError(path, ln, "non-numeric cell") from None
        _check_height(path, ln, height)
        if not DEFAULT_VOCAB.is_jump(segment.class_id):
            raise ParseError(path, ln, f"class {label!r} is not height-eligible")
        key = (subject, segment)
        if key in first_line:
            raise ParseError(path, ln, f"duplicate height for {subject} "
                             f"{segment}, first given at line {first_line[key]}")
        first_line[key] = ln
        records.append(HeightRecord(subject, segment, height))
    _refuse_overlaps(path, [(*key, ln) for key, ln in first_line.items()])
    return records


def write_heights(records, path) -> None:
    write_csv(path, HEIGHTS_HEADER,
              ((r.subject_id, r.segment.start, r.segment.end,
                DEFAULT_VOCAB.names[r.segment.class_id], r.height_m)
               for r in records))


# --------------------------------------------------------- feature matrix

def read_feature_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix X and height targets y of a `features.csv`."""
    header, rows = read_csv(path, feature_names() + ["height_m"])
    table = _float_table(path, rows, len(header))
    for (ln, _), height in zip(rows, table[:, -1].tolist()):
        _check_height(path, ln, height)
    return table[:, :-1], table[:, -1]


def write_feature_csv(X, y, path) -> None:
    write_csv(path, feature_names() + ["height_m"],
              ((*row, h) for row, h in zip(X, y)))


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


def load_checkpoint(path, expect: str):
    """Load a checkpoint of the kind `expect`: 'mstcn' or 'regressor'."""
    try:
        doc = json.loads(read_text(path))
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
    body = {k: v for k, v in doc.items() if k not in CHECKPOINT_HEADER}
    try:
        if kind == "mstcn":
            return tcn.weights_from_doc(body)
        return regression.from_doc(kind, body)
    except KeyError as e:
        raise ValueError(f"{path}: {kind} checkpoint is missing field "
                         f"{e.args[0]!r}") from None
    except (ValueError, TypeError, OverflowError) as e:
        raise ValueError(f"{path}: {e}") from None


# ------------------------------------------------------ synthetic sessions

DEFAULT_JUMPS_PER_CLASS = {
    "CMJ": 9, "Smash": 8, "Block": 8, "OS": 5, "Squat": 2, "Dive": 2, "Hop": 2,
}
HEIGHT_RANGE_M = (0.15, 0.60)  # drawn uniformly for the eligible jumps
HOP_HEIGHT_RANGE_M = (0.02, 0.08)
MIN_GAP_S = 1.0  # least quiet time before and between events


@dataclass
class SyntheticConfig:
    num_subjects: int = 10
    jumps_per_class: dict = field(
        default_factory=lambda: dict(DEFAULT_JUMPS_PER_CLASS))
    session_duration_s: float = 170.0
    noise_std_g: float = 0.05
    seed: int = 42

    def __post_init__(self):
        nncore.check_ints(self, 1, "num_subjects")
        nncore.check_ints(self, 0, "seed")
        for name, count in self.jumps_per_class.items():
            if name not in DEFAULT_VOCAB.names[1:]:
                raise ValueError(f"jumps_per_class key {name!r} is not one of "
                                 f"the event classes {DEFAULT_VOCAB.names[1:]}")
            if not isinstance(count, numbers.Integral) or count < 0:
                raise ValueError(f"jumps_per_class[{name!r}] must be an "
                                 f"integer >= 0, got {count!r}")
        if not 0 < self.session_duration_s <= 86_400:  # also rejects nan
            raise ValueError("session_duration_s must be positive and finite, "
                             "at most 86400 s (one day)")
        if not (math.isfinite(self.noise_std_g) and self.noise_std_g >= 0):
            raise ValueError("noise_std_g must be >= 0 and finite")


def flight_time_s(height_m: float) -> float:
    """Projectile flight time for a given jump height."""
    return math.sqrt(8.0 * height_m / GRAVITY)


def _half_sine(n: int) -> np.ndarray:
    return np.sin(np.linspace(0, math.pi, n, endpoint=False))


def _triangle(n: int) -> np.ndarray:
    up = np.linspace(0, 1, n // 2, endpoint=False)
    down = np.linspace(1, 0, n - n // 2, endpoint=False)
    return np.concatenate([up, down])


def _jump_event(class_name: str, height: float):
    """Noiseless 6-channel template of one flight event and its label
    length: the label spans movement onset through landing end.

    Vertical acceleration (ay): countermovement dip, takeoff push whose peak
    grows with height, a near-zero flight plateau of exactly
    round(flight_time * fs) samples, a landing spike of peak 3 + 8*h g, then
    a damped recovery. Gyro signatures distinguish the classes.
    """
    fs = SAMPLE_RATE_HZ
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
    return sig, land_end


def _squat_event():
    n = int(1.5 * SAMPLE_RATE_HZ)
    sig = np.zeros((n, 6))
    sig[:, 1] = 1.0 - 0.55 * np.sin(np.linspace(0, math.pi, n, endpoint=False))
    sig[:, 3] = 30.0 * np.sin(np.linspace(0, 2 * math.pi, n, endpoint=False))
    return sig, n


def _dive_event():
    n = int(0.8 * SAMPLE_RATE_HZ)
    sig = np.zeros((n, 6))
    half = n // 2
    sig[:, 0] = 2.5 * _half_sine(n)
    sig[:, 3] = 200.0 * _triangle(n)
    ay = np.ones(n)
    ay[:half] = 1.0 - 0.7 * _half_sine(half)
    ay[half:half + int(0.1 * SAMPLE_RATE_HZ)] = 2.0
    sig[:, 1] = ay
    return sig, n


def synth_generate(config: SyntheticConfig):
    """Generate labeled synthetic sessions plus exact height records.

    Deterministic per seed: the script rng drives event order, timing and
    heights; the noise rng only adds measurement noise.
    """
    fs = SAMPLE_RATE_HZ
    script_master = np.random.default_rng(config.seed)
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
        cursor = int(script.uniform(MIN_GAP_S, MIN_GAP_S + 1.0) * fs)
        for name in events:
            if name == "Squat":
                sig, length = _squat_event()
            elif name == "Dive":
                sig, length = _dive_event()
            else:
                lo, hi = HOP_HEIGHT_RANGE_M if name == "Hop" else HEIGHT_RANGE_M
                height = float(script.uniform(lo, hi))
                sig, length = _jump_event(name, height)
            n = sig.shape[0]
            if cursor + n > n_total:
                raise ValueError(
                    f"subject {subject_id}: events do not fit in "
                    f"{config.session_duration_s} s"
                )
            samples[cursor:cursor + n] = sig
            cid = DEFAULT_VOCAB.index(name)
            labels[cursor:cursor + length] = cid
            if DEFAULT_VOCAB.is_jump(cid):
                height_records.append(HeightRecord(
                    subject_id, Segment(cursor, cursor + length, cid), height))
            cursor += n + int(script.uniform(MIN_GAP_S, MIN_GAP_S + 1.5) * fs)
        if config.noise_std_g > 0:
            samples[:, :3] += noise.normal(0, config.noise_std_g,
                                           size=(n_total, 3))
            samples[:, 3:] += noise.normal(0, config.noise_std_g * 100.0,
                                           size=(n_total, 3))
        sessions.append(ImuSession(subject_id, samples, labels))
    return sessions, height_records


def oracle_height_from_window(window: np.ndarray) -> float:
    """Invert the generator physics: measure the longest near-zero plateau
    (|ay| < 0.35 g) of vertical acceleration inside the window and apply
    h = g * T_f^2 / 8.

    Used only as an independent verification oracle for the synthetic data.
    """
    ay = np.asarray(window)[:, 1]
    low = np.abs(ay) < 0.35
    best = run = 0
    for v in low:
        run = run + 1 if v else 0
        best = max(best, run)
    tf = best / SAMPLE_RATE_HZ
    return GRAVITY * tf**2 / 8.0
