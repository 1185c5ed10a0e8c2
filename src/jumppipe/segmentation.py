"""Segment-level machinery between the two pipeline stages: label runs,
fixed-width analysis windows around detected jumps, and IoU-based matching
of predicted segments against annotations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_ROI_WIDTH = 300  # samples (3 s at 100 Hz)
DEFAULT_IOU_THRESHOLD = 0.1
DEFAULT_MIN_DURATION = 10  # samples


@dataclass(frozen=True)
class ClassVocabulary:
    """Ordered class names; index 0 is the background/non-jump class."""

    names: tuple
    height_eligible: frozenset

    @property
    def num_classes(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(
                f"unknown class {name!r}; vocabulary is {list(self.names)}"
            ) from None

    def is_jump(self, class_id: int) -> bool:
        return self.names[class_id] in self.height_eligible

    def eligible_ids(self) -> list[int]:
        return [i for i in range(len(self.names)) if self.is_jump(i)]

    def jump_ordinal(self, class_id: int) -> int:
        """Ordinal of a height-eligible class among the eligible classes."""
        ids = self.eligible_ids()
        if class_id not in ids:
            raise ValueError(f"class {self.names[class_id]!r} is not height-eligible")
        return ids.index(class_id)


# The pipeline's one vocabulary: every label file, the TCN's class count and
# the jump ordinal feature assume it, and no checkpoint records its names.
DEFAULT_VOCAB = ClassVocabulary(
    names=("NULL", "CMJ", "Smash", "Block", "OS", "Squat", "Dive", "Hop"),
    height_eligible=frozenset({"CMJ", "Smash", "Block", "OS"}))


@dataclass(frozen=True, order=True)
class Segment:
    """Half-open run [start, end) of one non-background class."""

    start: int
    end: int
    class_id: int

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(f"invalid interval [{self.start}, {self.end})")
        if self.class_id == 0:
            raise ValueError("segments cannot carry the background class")

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Roi:
    """Fixed-width window centered on a segment, with edge paddings."""

    window_start: int
    window_end: int
    left_pad: int
    right_pad: int


@dataclass
class MatchResult:
    pairs: list  # (pred Segment, truth Segment, iou)
    unmatched_pred: list
    unmatched_truth: list
    threshold: float
    per_class_tp: dict
    per_class_fp: dict
    per_class_fn: dict

    @property
    def tp(self) -> int:
        return len(self.pairs)

    @property
    def fp(self) -> int:
        return len(self.unmatched_pred)

    @property
    def fn(self) -> int:
        return len(self.unmatched_truth)


def extract_segments(labels, vocab: ClassVocabulary = DEFAULT_VOCAB) -> list[Segment]:
    """Maximal runs of identical non-background labels, in temporal order."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= vocab.num_classes):
        raise ValueError("labels outside the vocabulary range")
    if labels.size == 0:
        return []
    ends = np.append(np.flatnonzero(np.diff(labels)) + 1, labels.size)
    starts = np.append(0, ends[:-1])
    classes = labels[starts]
    keep = classes != 0
    return [Segment(s, e, c) for s, e, c in zip(starts[keep].tolist(),
                                                 ends[keep].tolist(),
                                                 classes[keep].tolist())]


def min_duration_filter(segments, min_len: int = DEFAULT_MIN_DURATION) -> list[Segment]:
    """Drop segments shorter than min_len samples, preserving order."""
    return [s for s in segments if s.length >= min_len]


def select_roi(segment: Segment, n: int, width: int = DEFAULT_ROI_WIDTH) -> Roi:
    """Window of `width` samples centered on the segment midpoint, clipped to
    [0, n) with the clipped amounts recorded as zero-padding."""
    mid = (segment.start + segment.end) // 2
    lo = mid - width // 2
    hi = lo + width
    left_pad = max(0, -lo)
    right_pad = max(0, hi - n)
    return Roi(max(0, lo), min(n, hi), left_pad, right_pad)


def roi_window(roi: Roi, samples: np.ndarray) -> np.ndarray:
    """Materialize the ROI as an exactly width-sized array, zero-padded."""
    body = samples[roi.window_start : roi.window_end]
    if roi.left_pad or roi.right_pad:
        body = np.pad(body, ((roi.left_pad, roi.right_pad), (0, 0)))
    return body


def iou(a: Segment, b: Segment) -> float:
    """Intersection over union of the two sample-index intervals."""
    inter = max(0, min(a.end, b.end) - max(a.start, b.start))
    if inter == 0:
        return 0.0
    union = (a.end - a.start) + (b.end - b.start) - inter
    return inter / union


def check_iou_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:  # also rejects nan
        raise ValueError(f"IoU threshold must lie in [0, 1], got {threshold}")


def match_segments(
    pred, truth, threshold: float = DEFAULT_IOU_THRESHOLD
) -> MatchResult:
    """Greedy one-to-one class-aware matching in descending IoU order.

    Ties break on earlier truth start, then earlier pred start. Matched pairs
    are TPs; leftover predictions are FPs, leftover truths FNs.
    """
    check_iou_threshold(threshold)
    pred = list(pred)
    truth = list(truth)
    candidates = []
    for pi, p in enumerate(pred):
        for ti, t in enumerate(truth):
            if p.class_id != t.class_id:
                continue
            v = iou(p, t)
            if v >= threshold and v > 0:
                candidates.append((-v, t.start, p.start, pi, ti))
    candidates.sort()
    used_p, used_t = set(), set()
    pairs = []
    for neg_v, _, _, pi, ti in candidates:
        if pi in used_p or ti in used_t:
            continue
        used_p.add(pi)
        used_t.add(ti)
        pairs.append((pred[pi], truth[ti], -neg_v))
    unmatched_pred = [p for i, p in enumerate(pred) if i not in used_p]
    unmatched_truth = [t for i, t in enumerate(truth) if i not in used_t]
    classes = sorted({s.class_id for s in pred} | {s.class_id for s in truth})
    tp = {c: sum(1 for p, _, _ in pairs if p.class_id == c) for c in classes}
    fp = {c: sum(1 for p in unmatched_pred if p.class_id == c) for c in classes}
    fn = {c: sum(1 for t in unmatched_truth if t.class_id == c) for c in classes}
    return MatchResult(pairs, unmatched_pred, unmatched_truth, threshold,
                       tp, fp, fn)


def jump_counts(segments) -> dict:
    """Per-class counts of height-eligible segments, plus their total."""
    names = DEFAULT_VOCAB.names
    counts = {names[i]: 0 for i in DEFAULT_VOCAB.eligible_ids()}
    for seg in segments:
        if DEFAULT_VOCAB.is_jump(seg.class_id):
            counts[names[seg.class_id]] += 1
    counts["total"] = sum(counts.values())
    return counts
