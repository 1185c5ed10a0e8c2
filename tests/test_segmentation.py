import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumppipe import segmentation as seg
from jumppipe.segmentation import (DEFAULT_VOCAB, Segment,
                                   extract_segments, iou, jump_counts,
                                   match_segments, min_duration_filter,
                                   roi_window, select_roi)


class TestVocabulary:
    def test_default_layout(self):
        v = DEFAULT_VOCAB
        assert v.num_classes == 8
        assert v.names[0] == "NULL"
        assert {v.names[i] for i in v.eligible_ids()} == {"CMJ", "Smash",
                                                          "Block", "OS"}

    def test_jump_ordinals(self):
        v = DEFAULT_VOCAB
        ordinals = [v.jump_ordinal(v.index(n)) for n in ("CMJ", "Smash",
                                                         "Block", "OS")]
        assert ordinals == [0, 1, 2, 3]

    def test_default_vocab_names_unique_and_eligible_known(self):
        names = DEFAULT_VOCAB.names
        assert len(set(names)) == len(names)
        assert DEFAULT_VOCAB.height_eligible <= set(names)

    def test_unknown_class_lookup(self):
        with pytest.raises(KeyError):
            DEFAULT_VOCAB.index("Backflip")


class TestExtractSegments:
    def test_basic_runs(self):
        segs = extract_segments([0, 0, 1, 1, 1, 0, 2, 2])
        assert segs == [Segment(2, 5, 1), Segment(6, 8, 2)]

    def test_all_background(self):
        assert extract_segments([0, 0, 0]) == []

    def test_adjacent_different_classes(self):
        assert extract_segments([1, 1, 2, 2]) == [Segment(0, 2, 1),
                                                  Segment(2, 4, 2)]

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=0,
                    max_size=60))
    @settings(max_examples=100)
    def test_round_trip(self, labels):
        segs = extract_segments(labels)
        recon = [0] * len(labels)
        for s in segs:
            recon[s.start:s.end] = [s.class_id] * s.length
        assert recon == labels
        # output covers exactly the non-background samples, sorted, disjoint,
        # and each run is maximal
        for a, b in zip(segs, segs[1:]):
            assert a.end <= b.start
            assert a.end < b.start or a.class_id != b.class_id


class TestMinDurationFilter:
    def test_identity_at_one(self):
        segs = [Segment(0, 1, 1), Segment(5, 9, 2)]
        assert min_duration_filter(segs, 1) == segs

    def test_drops_short(self):
        segs = [Segment(0, 3, 1), Segment(10, 40, 2)]
        assert min_duration_filter(segs, 10) == [Segment(10, 40, 2)]

    @pytest.mark.parametrize("seed", range(5))
    def test_counts_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        segs = []
        pos = 0
        for _ in range(10):
            pos += int(rng.integers(1, 5))
            ln = int(rng.integers(1, 20))
            segs.append(Segment(pos, pos + ln, int(rng.integers(1, 4))))
            pos += ln
        m = int(rng.integers(1, 15))
        assert len(min_duration_filter(segs, m)) == sum(
            1 for s in segs if s.end - s.start >= m
        )


class TestSelectRoi:
    def test_clipped_at_start(self):
        roi = select_roi(Segment(100, 160, 1), n=10000, width=300)
        # mid = 130, window [-20, 280) clipped to [0, 280) with left pad 20
        assert (roi.window_start, roi.window_end) == (0, 280)
        assert (roi.left_pad, roi.right_pad) == (20, 0)
        assert roi_window(roi, np.zeros((10000, 6))).shape[0] == 300

    def test_center_no_padding(self):
        roi = select_roi(Segment(5000, 5050, 1), n=10000, width=300)
        assert roi.left_pad == roi.right_pad == 0
        assert roi.window_end - roi.window_start == 300

    def test_clipped_at_end(self):
        n = 1000
        roi = select_roi(Segment(n - 2, n, 1), n=n, width=300)
        assert roi.right_pad == 149
        assert roi_window(roi, np.zeros((n, 6))).shape[0] == 300

    @pytest.mark.parametrize("seed", range(10))
    def test_total_width_invariant(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 2000))
        start = int(rng.integers(0, n - 1))
        end = int(rng.integers(start + 1, n + 1))
        roi = select_roi(Segment(start, end, 1), n=n, width=300)
        assert roi_window(roi, np.zeros((n, 6))).shape[0] == 300

    def test_window_materialization(self):
        samples = np.arange(60, dtype=float).reshape(10, 6)
        roi = select_roi(Segment(0, 2, 1), n=10, width=8)
        win = roi_window(roi, samples)
        assert win.shape == (8, 6)
        assert np.all(win[: roi.left_pad] == 0)


class TestIou:
    def test_identical(self):
        assert iou(Segment(3, 9, 1), Segment(3, 9, 2)) == 1.0

    def test_disjoint(self):
        assert iou(Segment(0, 5, 1), Segment(5, 10, 1)) == 0.0

    def test_hand_example(self):
        assert iou(Segment(10, 20, 1), Segment(15, 25, 1)) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_symmetric_bounded(self, seed):
        rng = np.random.default_rng(seed)
        a = Segment(int(rng.integers(0, 50)), int(rng.integers(51, 100)), 1)
        b = Segment(int(rng.integers(0, 50)), int(rng.integers(51, 100)), 1)
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0
        assert (v == 1.0) == (a.start == b.start and a.end == b.end)


def brute_force_max_matching(pred, truth, threshold):
    """Maximum-cardinality one-to-one matching by exhaustive assignment."""
    edges = [
        (pi, ti)
        for pi, p in enumerate(pred)
        for ti, t in enumerate(truth)
        if p.class_id == t.class_id and iou(p, t) >= threshold and iou(p, t) > 0
    ]
    best = 0
    for r in range(min(len(pred), len(truth)), 0, -1):
        for combo in itertools.combinations(edges, r):
            ps = [e[0] for e in combo]
            ts = [e[1] for e in combo]
            if len(set(ps)) == r and len(set(ts)) == r:
                return r
    return best


def random_segments(rng, max_segments=6):
    segs = []
    pos = 0
    for _ in range(int(rng.integers(0, max_segments + 1))):
        pos += int(rng.integers(0, 15))
        ln = int(rng.integers(1, 20))
        segs.append(Segment(pos, pos + ln, int(rng.integers(1, 4))))
        pos += ln
    return segs


class TestMatchSegments:
    def test_perfect_prediction(self):
        truth = [Segment(0, 10, 1), Segment(20, 30, 2)]
        m = match_segments(truth, truth, 0.1)
        assert (m.tp, m.fp, m.fn) == (2, 0, 0)

    def test_empty_prediction(self):
        truth = [Segment(0, 10, 1), Segment(20, 30, 2)]
        m = match_segments([], truth, 0.1)
        assert (m.tp, m.fp, m.fn) == (0, 0, 2)

    def test_class_mismatch_not_matched(self):
        m = match_segments([Segment(0, 10, 1)], [Segment(0, 10, 2)], 0.1)
        assert (m.tp, m.fp, m.fn) == (0, 1, 1)

    def test_counts_partition(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pred = random_segments(rng)
            truth = random_segments(rng)
            m = match_segments(pred, truth, 0.1)
            assert m.tp + m.fp == len(pred)
            assert m.tp + m.fn == len(truth)
            assert sum(m.per_class_tp.values()) == m.tp
            assert sum(m.per_class_fp.values()) == m.fp
            assert sum(m.per_class_fn.values()) == m.fn

    def test_greedy_equals_brute_force_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            pred = random_segments(rng)
            truth = random_segments(rng)
            m = match_segments(pred, truth, 0.1)
            assert m.tp == brute_force_max_matching(pred, truth, 0.1)

    def test_adversarial_greedy_fixture(self):
        # Greedy takes the single highest-IoU pair (p0, t0) even when the
        # optimal assignment (p0-t1, p1-t0) would match both. The documented
        # behavior is the greedy result: 1 TP.
        pred = [Segment(0, 100, 1), Segment(40, 60, 1)]
        truth = [Segment(0, 90, 1), Segment(95, 100, 1)]
        m = match_segments(pred, truth, threshold=0.05)
        assert m.tp == 1
        assert m.pairs[0][0] == Segment(0, 100, 1)
        assert m.pairs[0][1] == Segment(0, 90, 1)
        assert brute_force_max_matching(pred, truth, 0.05) == 2

    def test_threshold_one_requires_exact_match(self):
        pred = [Segment(0, 10, 1), Segment(20, 31, 2)]
        truth = [Segment(0, 10, 1), Segment(20, 30, 2)]
        m = match_segments(pred, truth, threshold=1.0)
        assert m.tp == 1

    def test_matched_pairs_obey_threshold_and_class(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pred = random_segments(rng)
            truth = random_segments(rng)
            m = match_segments(pred, truth, 0.3)
            for p, t, v in m.pairs:
                assert p.class_id == t.class_id
                assert v >= 0.3
                assert v == pytest.approx(iou(p, t))


class TestJumpCounts:
    def test_empty(self):
        counts = jump_counts([])
        assert counts["total"] == 0
        assert all(v == 0 for v in counts.values())

    def test_one_per_eligible_class(self):
        v = DEFAULT_VOCAB
        segs = [Segment(i * 100, i * 100 + 50, v.index(n))
                for i, n in enumerate(("CMJ", "Smash", "Block", "OS"))]
        counts = jump_counts(segs)
        assert counts == {"CMJ": 1, "Smash": 1, "Block": 1, "OS": 1, "total": 4}

    def test_ineligible_classes_ignored(self):
        v = DEFAULT_VOCAB
        segs = [Segment(0, 50, v.index("Squat")), Segment(100, 150, v.index("Hop"))]
        assert jump_counts(segs)["total"] == 0

    def test_scripted_session_counts(self):
        from jumppipe import dataio
        cfg = dataio.SyntheticConfig(
            num_subjects=1, jumps_per_class={"CMJ": 5, "Block": 3},
            session_duration_s=40.0, seed=0,
        )
        sessions, _ = dataio.synth_generate(cfg)
        segs = extract_segments(sessions[0].labels)
        counts = jump_counts(segs)
        assert counts["CMJ"] == 5
        assert counts["Block"] == 3
        assert counts["Smash"] == counts["OS"] == 0
        assert counts["total"] == 8
