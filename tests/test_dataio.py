import json
import math

import numpy as np
import pytest

from jumppipe import dataio, regression, segmentation as seg, tcn
from jumppipe.dataio import (HeightRecord, ImuSession, ParseError,
                             SyntheticConfig, flight_time_s, load_checkpoint,
                             read_annotations, read_heights, read_session_csv,
                             save_checkpoint, synth_generate,
                             write_annotations, write_heights,
                             write_session_csv)
from jumppipe.segmentation import Segment


class TestSessionCsv:
    def test_small_round_trip(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "t,ax,ay,az,gx,gy,gz\n"
            "0,0.1,1,0,0,0,0\n"
            "0.01,0.2,1,0,0,0,0\n"
            "0.02,0.3,1,0,0,0,0\n"
        )
        sess = read_session_csv(path)
        assert sess.samples.shape == (3, 6)
        assert sess.labels is None
        assert sess.subject_id == "s"

    def test_header_typo_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,ax,az,ay,gx,gy,gz\n0,0,0,0,0,0,0\n")
        with pytest.raises(ParseError, match="header"):
            read_session_csv(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,ax,ay,az,gx,gy,gz\n0,0,0,0,0,0,0\n0.01,x,0,0,0,0,0\n")
        with pytest.raises(ParseError, match=":3:"):
            read_session_csv(path)

    @pytest.mark.parametrize("row", ["0.01,nan,1,0,0,0,0",
                                     "0.01,0,1,0,0,0,inf",
                                     "0.01,0,-inf,0,0,0,0",
                                     "nan,0,1,0,0,0,0"])
    def test_non_finite_cell_names_line(self, tmp_path, row):
        path = tmp_path / "s.csv"
        path.write_text(f"t,ax,ay,az,gx,gy,gz\n0,0,1,0,0,0,0\n{row}\n"
                        "0.02,0,1,0,0,0,0\n")
        with pytest.raises(ParseError, match=r"s\.csv:3:"):
            read_session_csv(path)

    def test_irregular_timestamps_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,ax,ay,az,gx,gy,gz\n0,0,0,0,0,0,0\n0.5,0,0,0,0,0,0\n")
        with pytest.raises(ParseError, match="timestamp"):
            read_session_csv(path)

    def test_write_read_fixpoint_large(self, tmp_path):
        rng = np.random.default_rng(0)
        sess = ImuSession("big", rng.normal(size=(10_000, 6)),
                          rng.integers(0, 8, size=10_000))
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_session_csv(sess, p1)
        once = read_session_csv(p1)
        write_session_csv(once, p2)
        assert p1.read_text() == p2.read_text()
        twice = read_session_csv(p2)
        np.testing.assert_array_equal(once.samples, twice.samples)
        np.testing.assert_array_equal(once.labels, twice.labels)

    def test_labeled_round_trip(self, tmp_path):
        sess = ImuSession("x", np.zeros((5, 6)), [0, 1, 1, 0, 2])
        path = tmp_path / "x.csv"
        write_session_csv(sess, path)
        back = read_session_csv(path)
        np.testing.assert_array_equal(back.labels, sess.labels)


class TestAnnotationsAndHeights:
    def test_empty_annotations(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("start_sample,end_sample,label\n")
        assert read_annotations(path) == []

    def test_annotation_round_trip(self, tmp_path):
        segs = [Segment(10, 50, 1), Segment(100, 130, 3)]
        path = tmp_path / "a.csv"
        write_annotations(segs, path)
        assert read_annotations(path) == segs

    def test_overlap_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("start_sample,end_sample,label\n0,10,CMJ\n5,15,Smash\n")
        with pytest.raises(ParseError, match="overlap"):
            read_annotations(path)

    def test_reversed_interval_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("start_sample,end_sample,label\n10,5,CMJ\n")
        with pytest.raises(ParseError, match="reversed"):
            read_annotations(path)

    def test_unknown_label_lists_vocabulary(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("start_sample,end_sample,label\n0,10,Backflip\n")
        with pytest.raises(ParseError, match="NULL"):
            read_annotations(path)

    def test_heights_round_trip(self, tmp_path):
        records = [HeightRecord("S00", Segment(10, 50, 1), 0.42)]
        path = tmp_path / "h.csv"
        write_heights(records, path)
        back = read_heights(path)
        assert back == records

    def test_non_positive_height_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("subject_id,start_sample,end_sample,label,height_m\n"
                        "S00,0,10,CMJ,-0.1\n")
        with pytest.raises(ParseError, match="height"):
            read_heights(path)

    @pytest.mark.parametrize("height", ["nan", "inf"])
    def test_non_finite_height_rejected(self, tmp_path, height):
        path = tmp_path / "h.csv"
        path.write_text("subject_id,start_sample,end_sample,label,height_m\n"
                        f"S00,0,10,CMJ,{height}\n")
        with pytest.raises(ParseError, match=r"h\.csv:2: .*finite"):
            read_heights(path)

    def test_ineligible_class_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("subject_id,start_sample,end_sample,label,height_m\n"
                        "S00,0,10,Squat,0.3\n")
        with pytest.raises(ParseError, match="eligible"):
            read_heights(path)


class TestCheckpoints:
    def test_tcn_round_trip(self, tmp_path):
        config = tcn.MsTcnConfig(
            num_stages=2,
            stage=tcn.SsTcnConfig(num_layers=2, num_filters=4,
                                  in_channels=6, num_classes=8),
            epochs=1, seed=4,
        )
        weights = tcn.build_mstcn(config)
        path = tmp_path / "m.ckpt"
        save_checkpoint(weights, path)
        loaded = load_checkpoint(path, expect="mstcn")
        rng = np.random.default_rng(1)
        for _ in range(5):
            sess = ImuSession("a", rng.normal(size=(40, 6)))
            p1, l1 = tcn.predict(weights, sess)
            p2, l2 = tcn.predict(loaded, sess)
            assert p1.tobytes() == p2.tobytes()
            assert np.array_equal(l1, l2)
        resaved = tmp_path / "m2.ckpt"
        save_checkpoint(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("kind", ["rf", "gbt", "mlp"])
    def test_regressor_round_trip_bit_identical(self, kind, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 5))
        y = X.sum(axis=1)
        configs = {
            "rf": regression.RfConfig(n_estimators=5, seed=0),
            "gbt": regression.GbtConfig(n_estimators=10),
            "mlp": regression.MlpRegConfig(hidden_layers=(8,), max_iter=50),
        }
        model = regression.fit(kind, X, y, configs[kind])
        path = tmp_path / "r.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, expect="regressor")
        Xtest = rng.normal(size=(100, 5))
        a = regression.predict(model, Xtest)
        b = regression.predict(loaded, Xtest)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        resaved = tmp_path / "r2.ckpt"
        save_checkpoint(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()
        doc = json.loads(path.read_text())
        for tree in doc.get("trees", []):
            n = len(tree["feature"])
            assert n >= 1
            assert all(len(tree[f]) == n for f in ("threshold", "left",
                                                    "right", "value"))
            for i, f in enumerate(tree["feature"]):
                assert -1 <= f < doc["input_dim"]
                if f >= 0:
                    assert i < tree["left"][i] < n and i < tree["right"][i] < n

    @staticmethod
    def _saved_doc(kind, tmp_path):
        """A small saved checkpoint of `kind`, as its JSON document."""
        if kind == "mstcn":
            model = tcn.build_mstcn(tcn.MsTcnConfig(
                num_stages=1, stage=tcn.SsTcnConfig(num_layers=1,
                                                    num_filters=2)))
        else:
            X = np.random.default_rng(3).normal(size=(20, 3))
            configs = {
                "rf": regression.RfConfig(n_estimators=2),
                "gbt": regression.GbtConfig(n_estimators=2),
                "mlp": regression.MlpRegConfig(hidden_layers=(4,),
                                               max_iter=2),
            }
            model = regression.fit(kind, X, X[:, 0], configs[kind])
        path = tmp_path / "c.ckpt"
        save_checkpoint(model, path)
        return json.loads(path.read_text())

    @pytest.mark.parametrize("kind, field", [
        ("mstcn", "kind"), ("mstcn", "config"), ("mstcn", "params"),
        ("rf", "trees"), ("gbt", "eta"), ("gbt", "base"), ("mlp", "layers"),
        ("mlp", "catalog_version"),
    ])
    def test_missing_field_named(self, kind, field, tmp_path):
        doc = self._saved_doc(kind, tmp_path)
        del doc[field]
        path = tmp_path / "missing.ckpt"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError,
                           match=rf"missing\.ckpt: .*missing field '{field}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind, field, value, message", [
        ("rf", "catalog_version", 99, "catalog version 99.*version 1"),
        ("gbt", "eta", 0.0, "eta"),
        ("gbt", "eta", 1.5, "eta"),
        ("mlp", "input_dim", 2, "input_dim' is 2, but mu"),
    ])
    def test_out_of_range_field_rejected(self, kind, field, value, message,
                                         tmp_path):
        doc = self._saved_doc(kind, tmp_path)
        doc[field] = value
        path = tmp_path / "bad.ckpt"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("keys, value, message", [
        (("trees", 0, "left", 0), 0, r"trees\[0\]\.left\[0\] is 0"),
        (("trees", 1, "threshold"), [0.5] * 40,
         r"trees\[1\]\.threshold must be a list of \d+ floats"),
        (("trees", 0, "feature", 0), 3,
         r"trees\[0\]\.feature must lie in \[-1, 3\)"),
        (("trees",), 5, "'trees' must be a list"),
        (("trees",), [], "'trees' must be a list of trees, one or more for rf"),
        (("trees",), [{"leaf": 2.5}], "missing field 'feature'"),
    ], ids=["self-loop", "threshold-length", "feature-range", "trees-int",
            "rf-no-trees", "nested-body"])
    def test_malformed_tree_rejected(self, keys, value, message, tmp_path):
        doc = self._saved_doc("rf", tmp_path)
        target = doc
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = value
        path = tmp_path / "bad.ckpt"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"bad\.ckpt: .*{message}"):
            load_checkpoint(path)

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text(json.dumps({"magic": "NOPE", "format_version": 1}))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        path.write_text('{"magic": "JUMPPIPE-CKPT", "format')
        with pytest.raises(ValueError, match="truncated|corrupt"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.ckpt"
        path.write_text(json.dumps({"magic": dataio.CHECKPOINT_MAGIC,
                                    "format_version": 99, "kind": "rf"}))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_kind_tag_enforced(self, tmp_path):
        config = tcn.MsTcnConfig(
            num_stages=1,
            stage=tcn.SsTcnConfig(num_layers=1, num_filters=2,
                                  in_channels=6, num_classes=8),
        )
        path = tmp_path / "m.ckpt"
        save_checkpoint(tcn.build_mstcn(config, seed=0), path)
        with pytest.raises(ValueError, match="regressor"):
            load_checkpoint(path, expect="regressor")


class TestSyntheticGenerator:
    def test_deterministic_per_seed(self):
        cfg = SyntheticConfig(num_subjects=2,
                              jumps_per_class={"CMJ": 2, "Smash": 1},
                              session_duration_s=15.0, seed=9)
        s1, h1 = synth_generate(cfg)
        s2, h2 = synth_generate(cfg)
        for a, b in zip(s1, s2):
            assert a.samples.tobytes() == b.samples.tobytes()
            assert np.array_equal(a.labels, b.labels)
        assert h1 == h2

    def test_two_seed_design_shares_script(self):
        base = dict(num_subjects=1, jumps_per_class={"CMJ": 3},
                    session_duration_s=15.0, script_seed=77)
        s1, h1 = synth_generate(SyntheticConfig(seed=1, **base))
        s2, h2 = synth_generate(SyntheticConfig(seed=2, **base))
        assert np.array_equal(s1[0].labels, s2[0].labels)  # same script
        assert h1 == h2
        assert s1[0].samples.tobytes() != s2[0].samples.tobytes()  # noise only

    def test_flight_time_formula(self):
        assert flight_time_s(0.45) == pytest.approx(math.sqrt(8 * 0.45 / 9.81))

    def test_flight_plateau_length(self):
        # h = 0.45 m -> ~0.606 s -> ~61 samples of near-zero vertical accel
        sig, span, n_flight = dataio._jump_event("CMJ", 0.45, fs=100)
        assert n_flight == round(flight_time_s(0.45) * 100)
        assert n_flight == 61
        ay = sig[:, 1]
        assert (np.abs(ay) < 1e-12).sum() >= n_flight

    def test_noiseless_generation_matches_template(self):
        cfg = SyntheticConfig(num_subjects=1, jumps_per_class={"CMJ": 1},
                              session_duration_s=10.0, noise_std_g=0.0, seed=3)
        sessions, records = synth_generate(cfg)
        sess = sessions[0]
        rec = records[0]
        sig, span, _ = dataio._jump_event("CMJ", rec.height_m, fs=100)
        start = rec.segment.start - span[0]
        np.testing.assert_allclose(
            sess.samples[start : start + sig.shape[0]], sig
        )

    def test_labels_round_trip_to_script(self):
        cfg = SyntheticConfig(num_subjects=1,
                              jumps_per_class={"CMJ": 2, "Squat": 1},
                              session_duration_s=20.0, seed=4)
        sessions, records = synth_generate(cfg)
        segs = seg.extract_segments(sessions[0].labels)
        eligible = [s for s in segs
                    if seg.DEFAULT_VOCAB.is_jump(s.class_id)]
        assert sorted(eligible) == sorted(r.segment for r in records)

    def test_heights_recorded_exactly(self):
        cfg = SyntheticConfig(num_subjects=1, jumps_per_class={"Block": 3},
                              session_duration_s=15.0, seed=6)
        _, records = synth_generate(cfg)
        assert len(records) == 3
        lo, hi = cfg.height_range_m
        for r in records:
            assert lo <= r.height_m <= hi

    def test_overflow_rejected(self):
        cfg = SyntheticConfig(num_subjects=1, jumps_per_class={"CMJ": 50},
                              session_duration_s=5.0, seed=0)
        with pytest.raises(ValueError, match="fit"):
            synth_generate(cfg)

    def test_oracle_height_recovery(self):
        cfg = SyntheticConfig(num_subjects=1, seed=8)
        sessions, records = synth_generate(cfg)
        sess = sessions[0]
        for r in records:
            roi = seg.select_roi(r.segment, sess.samples.shape[0], 300)
            win = seg.roi_window(roi, sess.samples)
            est = dataio.oracle_height_from_window(win)
            assert abs(est - r.height_m) < 0.08
