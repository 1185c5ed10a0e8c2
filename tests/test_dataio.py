import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jumppipe import dataio, features, regression, segmentation as seg, tcn
from jumppipe.dataio import (HeightRecord, ImuSession, ParseError,
                             SyntheticConfig, flight_time_s, load_checkpoint,
                             read_annotations, read_feature_csv, read_heights,
                             read_session_csv, save_checkpoint,
                             synth_generate, write_annotations,
                             write_feature_csv, write_heights,
                             write_session_csv)
from jumppipe.segmentation import Segment

# Every table read through `dataio.read_csv`: its reader, its header, a valid
# row for a given line number, and the index of a numeric cell in that row.
CSV_TABLES = {
    "session": (read_session_csv, dataio.SESSION_HEADER,
                lambda ln: [f"{(ln - 2) / 100}", "0", "1", "0", "0", "0", "0"],
                1),
    "annotations": (read_annotations, dataio.ANNOTATIONS_HEADER,
                    lambda ln: [f"{100 * ln}", f"{100 * ln + 10}", "CMJ"], 0),
    "heights": (read_heights, dataio.HEIGHTS_HEADER,
                lambda ln: ["S00", f"{100 * ln}", f"{100 * ln + 10}", "CMJ",
                            "0.3"], 4),
    "features": (read_feature_csv, features.feature_names() + ["height_m"],
                 lambda ln: ["0.5"] * 146, 0),
}


class TestCsvCodec:
    @pytest.mark.parametrize("table", CSV_TABLES)
    def test_bad_header_names_line_1(self, tmp_path, table):
        read, header, row, _ = CSV_TABLES[table]
        path = tmp_path / f"{table}.csv"
        path.write_text(",".join(["bogus", *header[1:]]) + "\n"
                        + ",".join(row(2)) + "\n")
        with pytest.raises(ParseError, match=rf"{table}\.csv:1: bad header"):
            read(path)

    @pytest.mark.parametrize("blank", [False, True],
                             ids=["no-blank-line", "after-blank-line"])
    @pytest.mark.parametrize(("table", "fault"), [
        *((t, f) for t in CSV_TABLES
          for f in ("short-row", "non-numeric", "nan", "inf")),
        *((t, f) for t in ("annotations", "heights")
          for f in ("negative-start", "background-label")),
        *((t, f) for t in CSV_TABLES for f in ("underscore", "fullwidth")),
    ])
    def test_bad_row_names_its_line(self, tmp_path, table, fault, blank):
        read, header, row, numeric = CSV_TABLES[table]
        lines = [",".join(header), ",".join(row(2))] + [""] * blank
        bad_line = len(lines) + 1
        cells = row(bad_line)
        if fault == "short-row":
            cells.pop()
        elif fault == "negative-start":
            cells[header.index("start_sample")] = "-5"
        elif fault == "background-label":
            cells[header.index("label")] = "NULL"
        elif fault == "underscore":  # float() and int() read 0_3 as 3
            cells[numeric] = "0_" + cells[numeric]
        elif fault == "fullwidth":  # and a fullwidth '３' as 3
            cells[numeric] = chr(ord(cells[numeric][0]) + 0xFEE0) \
                + cells[numeric][1:]
        else:
            cells[numeric] = {"non-numeric": "x"}.get(fault, fault)
        lines += [",".join(cells), ",".join(row(bad_line + 1))]
        path = tmp_path / f"{table}.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf"{table}\.csv:{bad_line}: "):
            read(path)

    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.just(146)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_write_read_write_is_a_fixpoint(self, table, data):
        # the height column is positive, as the reader requires
        table[:, -1] = data.draw(arrays(np.float64, table.shape[0],
                                        elements=st.floats(
                                            min_value=0, exclude_min=True,
                                            allow_infinity=False)))
        with tempfile.TemporaryDirectory() as d:
            once, twice = Path(d, "a.csv"), Path(d, "b.csv")
            write_feature_csv(table[:, :-1], table[:, -1], once)
            X, y = read_feature_csv(once)
            write_feature_csv(X, y, twice)
            assert twice.read_text() == once.read_text()
            # nine significant digits are kept
            np.testing.assert_allclose(np.column_stack([X, y]), table,
                                       rtol=1e-8, atol=0)


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


# cells that float() and numpy's reader might take differently, or not at
# all; "\x0c" and "\x0b" are line breaks to splitlines() alone
SESSION_CELL_FAULTS = ["", "nan", "inf", "-inf", "NaN", "Infinity", "1_0",
                       " 0.5 ", "1e", "0x10", "\uff11", "#0", "1\x0c",
                       "\x0b1"]


@st.composite
def session_texts(draw):
    """The text of a session CSV, with or without labels, that may carry
    blank or `#` lines, odd cells, a cell too many or too few, a bad label
    or timestamp, CRLF line ends and no final newline."""
    labelled = draw(st.booleans())
    n = draw(st.integers(1, 8))
    values = draw(arrays(np.float64, (n, 6), elements=st.floats(
        -1e4, 1e4, allow_nan=False, allow_infinity=False)))
    rows = [["%.9g" % (i * 0.01), *map(repr, row.tolist())] for i, row in
            enumerate(values)]
    if labelled:
        for row in rows:
            row.append(draw(st.sampled_from(seg.DEFAULT_VOCAB.names)))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["blank", "comment", "cell", "extra",
                                     "missing", "label", "timestamp"]))
        r = draw(st.integers(0, len(rows) - 1))
        if rows[r] is None:
            continue
        c = draw(st.integers(0, len(rows[r]) - 1))
        if kind == "blank":
            rows.insert(r, None)
        elif kind == "comment":
            rows.insert(r, ["# " + ",".join(rows[r])])
        elif kind == "cell":
            rows[r][c] = draw(st.sampled_from(SESSION_CELL_FAULTS))
        elif kind == "extra":
            rows[r].append("0")
        elif kind == "missing":
            del rows[r][c]
        elif kind == "label":
            rows[r][-1] = draw(st.sampled_from(["cmj", " CMJ", "CMJx", "Smashing"]))
        else:
            rows[r][0] = "%.9g" % ((r + 1) * 0.01)
    header = dataio.SESSION_HEADER + ["label"] * labelled
    lines = [",".join(header)] + ["" if r is None else ",".join(r) for r in rows]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end * draw(st.booleans())


class TestSessionCsvFastPath:
    """numpy's reader and the line reader must agree on every file: the same
    arrays and labels, or the same ParseError."""

    @given(session_texts())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_line_reader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_bytes(text.encode())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    table, labels = dataio._read_session_lines(path)
                except ParseError as e:
                    with pytest.raises(ParseError) as got:
                        read_session_csv(path)
                    assert str(got.value) == str(e)
                    return
                sess = read_session_csv(path)
        assert sess.samples.tobytes() == \
            np.ascontiguousarray(table[:, 1:]).tobytes()
        if labels is None:
            assert sess.labels is None
        else:
            assert sess.labels.tobytes() == np.asarray(labels, np.int64).tobytes()

    @pytest.mark.parametrize("body", ["", "\n", "\n\n", " \n", "\r\n"])
    def test_no_data_rows(self, tmp_path, body):
        path = tmp_path / "s.csv"
        path.write_bytes((",".join(dataio.SESSION_HEADER) + "\n" + body).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as want:
                dataio._read_session_lines(path)
            with pytest.raises(ParseError) as got:
                read_session_csv(path)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("labelled", [False, True])
    @pytest.mark.parametrize("end,final", [("\n", True), ("\r\n", True),
                                           ("\n", False)])
    def test_written_sessions_take_it(self, tmp_path, labelled, end, final):
        rng = np.random.default_rng(1)
        sess = ImuSession("s", rng.normal(size=(50, 6)),
                          rng.integers(0, 8, size=50) if labelled else None)
        path = tmp_path / "s.csv"
        write_session_csv(sess, path)
        text = path.read_text().replace("\n", end)
        path.write_bytes((text if final else text.rstrip(end)).encode())
        assert dataio._read_session_fast(path) is not None
        back = read_session_csv(path)
        table, labels = dataio._read_session_lines(path)
        assert back.samples.tobytes() == \
            np.ascontiguousarray(table[:, 1:]).tobytes()
        if labelled:
            np.testing.assert_array_equal(back.labels, labels)


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
        for rows in ("0,10,CMJ\n5,15,Smash\n", "0,10,CMJ\n0,10,CMJ\n"):
            path.write_text(f"start_sample,end_sample,label\n{rows}")
            with pytest.raises(ParseError, match=r"a\.csv:3: overlap"):
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

    def test_duplicate_height_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("subject_id,start_sample,end_sample,label,height_m\n"
                        "S00,10,50,CMJ,0.3\nS00,10,50,CMJ,0.5\n")
        with pytest.raises(ParseError,
                           match=r"h\.csv:3: duplicate .* line 2"):
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
            "gbt": regression.GbtConfig(),
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
                "gbt": regression.GbtConfig(),
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
            load_checkpoint(path, "mstcn" if kind == "mstcn" else "regressor")

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
            load_checkpoint(path, "regressor")

    @pytest.mark.parametrize("key, value", [("kernel_size", 5),
                                            ("lambda_tmse", 0.3),
                                            ("tau", 2.0)])
    def test_fixed_constant_other_than_recorded_refused(self, key, value,
                                                        tmp_path):
        doc = self._saved_doc("mstcn", tmp_path)
        doc["config"][key] = value
        path = tmp_path / "bad.ckpt"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"bad\.ckpt: field "
                                             rf"'config\.{key}' is {value}"):
            load_checkpoint(path, "mstcn")

    @pytest.mark.parametrize("keys, value, message", [
        (("trees", 0, "left", 0), 0, r"trees\[0\]\.left\[0\] is 0"),
        (("trees", 1, "threshold"), [0.5] * 40,
         r"trees\[1\]\.threshold must be a list of \d+ floats"),
        (("trees", 0, "feature", 0), 3,
         r"trees\[0\]\.feature must lie in \[-1, 3\)"),
        (("trees",), 5, "'trees' must be a list"),
        (("trees",), [], "'trees' must be a list of trees, one or more for rf"),
        (("trees",), [{"leaf": 2.5}],
         r"missing field 'trees\[0\]\.feature'"),
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
            load_checkpoint(path, "regressor")

    @pytest.mark.parametrize("kind, keys, value, field", [
        ("mstcn", ("params",), 5, "params"),
        ("mstcn", ("config",), 5, "config"),
        ("mstcn", ("params", "stage0.conv_in.w"), 5, "params.stage0.conv_in.w"),
        ("mstcn", ("config", "num_layers"), "3", "config.num_layers"),
        ("mstcn", ("config", "lr"), None, "config.lr"),
        ("mlp", ("mu",), 5, "mu"),
        ("mlp", ("layers",), 5, "layers"),
        ("mlp", ("mu",), {"shape": [3], "data": [1.0]}, "mu"),
        ("mlp", ("layers", 0), 5, "layers[0]"),
        ("mlp", ("layers", 1), {"w": {"shape": [1, 3, 1], "data": [0, 0, 0]},
                                "b": {"shape": [1], "data": [0]}}, "layers[1]"),
        ("gbt", ("base",), "x", "base"),
        ("gbt", ("input_dim",), "145", "input_dim"),
        ("gbt", ("eta",), True, "eta"),
        ("gbt", ("trees", 0), 5, "trees[0]"),
    ], ids=["tcn-params", "tcn-config", "tcn-param", "tcn-num-layers",
            "tcn-lr", "mlp-mu", "mlp-layers", "mlp-mu-size", "mlp-layer",
            "mlp-layer-width", "gbt-base", "gbt-input-dim", "gbt-eta-bool",
            "gbt-tree"])
    def test_wrongly_typed_field_named(self, kind, keys, value, field,
                                       tmp_path):
        doc = self._saved_doc(kind, tmp_path)
        target = doc
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = value
        path = tmp_path / "bad.ckpt"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError,
                           match=rf"bad\.ckpt: field '{re.escape(field)}'"):
            load_checkpoint(path, "mstcn" if kind == "mstcn" else "regressor")

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text(json.dumps({"magic": "NOPE", "format_version": 1}))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path, "regressor")

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        path.write_text('{"magic": "JUMPPIPE-CKPT", "format')
        with pytest.raises(ValueError, match="truncated|corrupt"):
            load_checkpoint(path, "regressor")

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.ckpt"
        path.write_text(json.dumps({"magic": dataio.CHECKPOINT_MAGIC,
                                    "format_version": 99, "kind": "rf"}))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path, "regressor")

    def test_kind_tag_enforced(self, tmp_path):
        config = tcn.MsTcnConfig(
            num_stages=1,
            stage=tcn.SsTcnConfig(num_layers=1, num_filters=2,
                                  in_channels=6, num_classes=8),
        )
        path = tmp_path / "m.ckpt"
        save_checkpoint(tcn.build_mstcn(config), path)
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

    def test_flight_time_formula(self):
        assert flight_time_s(0.45) == pytest.approx(math.sqrt(8 * 0.45 / 9.81))

    def test_flight_plateau_length(self):
        # h = 0.45 m -> ~0.606 s -> ~61 samples of near-zero vertical accel
        sig, _ = dataio._jump_event("CMJ", 0.45)
        n_flight = round(flight_time_s(0.45) * 100)
        assert n_flight == 61
        ay = sig[:, 1]
        assert (np.abs(ay) < 1e-12).sum() >= n_flight

    def test_noiseless_generation_matches_template(self):
        cfg = SyntheticConfig(num_subjects=1, jumps_per_class={"CMJ": 1},
                              session_duration_s=10.0, noise_std_g=0.0, seed=3)
        sessions, records = synth_generate(cfg)
        sess = sessions[0]
        rec = records[0]
        sig, length = dataio._jump_event("CMJ", rec.height_m)
        assert rec.segment.end - rec.segment.start == length
        start = rec.segment.start
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
        lo, hi = dataio.HEIGHT_RANGE_M
        for r in records:
            assert lo <= r.height_m <= hi

    def test_overflow_rejected(self):
        cfg = SyntheticConfig(num_subjects=1, jumps_per_class={"CMJ": 50},
                              session_duration_s=5.0, seed=0)
        with pytest.raises(ValueError, match="fit"):
            synth_generate(cfg)

    @pytest.mark.parametrize("field, value", [
        ("num_subjects", 0), ("num_subjects", -1),
        ("noise_std_g", math.nan), ("noise_std_g", math.inf),
        ("session_duration_s", math.inf), ("session_duration_s", math.nan),
        ("session_duration_s", 1e308), ("session_duration_s", 1e9),
        ("seed", -1), ("seed", 0.5), ("num_subjects", 2.5),
        ("jumps_per_class", {"NULL": 2, "CMJ": 1}),
        ("jumps_per_class", {"XYZ": 1}), ("jumps_per_class", {"CMJ": -3}),
        ("jumps_per_class", {"CMJ": 1.5}),
    ])
    def test_invalid_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticConfig(**{field: value})

    def test_oracle_height_recovery(self):
        cfg = SyntheticConfig(num_subjects=1, seed=8)
        sessions, records = synth_generate(cfg)
        sess = sessions[0]
        for r in records:
            roi = seg.select_roi(r.segment, sess.samples.shape[0], 300)
            win = seg.roi_window(roi, sess.samples)
            est = dataio.oracle_height_from_window(win)
            assert abs(est - r.height_m) < 0.08
