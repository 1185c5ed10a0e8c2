import argparse
import json
import os
import shutil

import numpy as np
import pytest

from jumppipe import dataio, features, regression, tcn
from jumppipe import segmentation as seg
from jumppipe.cli import (EXIT_IO, EXIT_OK, EXIT_VALIDATION, _tcn_config,
                          build_parser, cli_dispatch)
from jumppipe.segmentation import Segment

TINY_TCN = ["--stages", "1", "--layers", "3", "--filters", "4", "--epochs", "2"]


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """Two short labeled sessions plus heights.csv, written via the library."""
    root = tmp_path_factory.mktemp("data")
    cfg = dataio.SyntheticConfig(
        num_subjects=2,
        jumps_per_class={"CMJ": 2, "Block": 2},
        session_duration_s=25.0,
        seed=11,
    )
    sessions, heights = dataio.synth_generate(cfg)
    for sess in sessions:
        dataio.write_session_csv(sess, root / f"{sess.subject_id}.csv")
    dataio.write_heights(heights, root / "heights.csv")
    return root


def _refuse_training(*args, **kwargs):
    raise AssertionError("a fold was trained before the bad flag was refused")


class TestSynth:
    def test_writes_sessions_heights_manifest(self, tmp_path):
        out = tmp_path / "out"
        rc = cli_dispatch(["synth", "--subjects", "3", "--seed", "7",
                           "--out", str(out)])
        assert rc == EXIT_OK
        names = sorted(os.listdir(out))
        assert names == ["S00.csv", "S01.csv", "S02.csv",
                         "heights.csv", "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["seed"] == 7
        assert len(manifest["outputs"]) == 4

    def test_same_seed_same_bytes(self, tmp_path):
        args = ["synth", "--subjects", "1", "--duration", "120",
                "--seed", "5", "--out"]
        cli_dispatch(args + [str(tmp_path / "a")])
        cli_dispatch(args + [str(tmp_path / "b")])
        assert ((tmp_path / "a" / "S00.csv").read_text()
                == (tmp_path / "b" / "S00.csv").read_text())
        assert ((tmp_path / "a" / "heights.csv").read_text()
                == (tmp_path / "b" / "heights.csv").read_text())


class TestErrors:
    def test_unknown_flag_is_usage_error(self, capsys):
        rc = cli_dispatch(["synth", "--bogus", "1"])
        assert rc == EXIT_VALIDATION
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["predict", "--model", "m.ckpt", "--session", "s.csv"],
        ["eval-seg", "--pred", "p.csv", "--truth", "t.csv"],
        ["extract-features", "--data", "d"],
        ["eval-reg", "--model", "m.ckpt", "--features", "f.csv"],
    ], ids=lambda argv: argv[0])
    def test_seed_refused_where_unused(self, argv, capsys):
        assert cli_dispatch([*argv, "--seed", "1"]) == EXIT_VALIDATION
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert cli_dispatch(["frobnicate"]) == EXIT_VALIDATION

    def test_missing_data_dir_is_io_error(self, tmp_path):
        rc = cli_dispatch(["train", "--data", str(tmp_path / "nope"),
                           "--out", str(tmp_path)])
        assert rc == EXIT_IO

    def test_malformed_session_is_validation_error(self, tmp_path):
        bad = tmp_path / "S00.csv"
        bad.write_text("t,ax,ay\n0,0,0\n")  # wrong channel count
        rc = cli_dispatch(["extract-features", "--data", str(tmp_path),
                           "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        assert not (tmp_path / "out").exists()  # nothing written, no --out

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_feature_cell_names_line(self, tmp_path, capsys, cell):
        header = ",".join(features.feature_names() + ["height_m"])
        row = ",".join(["0.5"] * 146)
        path = tmp_path / "features.csv"
        path.write_text(f"{header}\n{row}\n\n{row[:-3]}{cell}\n")
        rc = cli_dispatch(["fit-reg", "--features", str(path),
                           "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        assert "features.csv:4: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["underscore", "fullwidth"])
    @pytest.mark.parametrize("table", ["session", "heights", "annotations",
                                       "features"])
    def test_unplain_number_names_line(self, small_dataset, tmp_path, capsys,
                                       table, fault):
        # float() and int() read both spellings as the plain number
        unplain = {"underscore": lambda c: "0_" + c,
                   "fullwidth": lambda c: chr(ord(c[0]) + 0xFEE0) + c[1:]}
        data = tmp_path / "data"
        data.mkdir()
        for name in os.listdir(small_dataset):
            (data / name).write_text((small_dataset / name).read_text())
        if table == "annotations":
            segs = [Segment(100, 150, 1), Segment(300, 340, 3)]
            dataio.write_annotations(segs, tmp_path / "pred.csv")
            dataio.write_annotations(segs, data / "truth.csv")
            argv = ["eval-seg", "--pred", str(tmp_path / "pred.csv"),
                    "--truth", str(data / "truth.csv")]
        elif table == "features":
            rng = np.random.default_rng(0)
            dataio.write_feature_csv(rng.uniform(1, 2, size=(10, 145)),
                                     rng.uniform(0.2, 0.5, size=10),
                                     data / "features.csv")
            argv = ["fit-reg", "--features", str(data / "features.csv")]
        else:
            argv = ["extract-features", "--data", str(data)]
        path, cell = {"session": ("S00.csv", 0), "heights": ("heights.csv", 1),
                      "annotations": ("truth.csv", 0),
                      "features": ("features.csv", 0)}[table]
        lines = (data / path).read_text().splitlines()
        cells = lines[2].split(",")
        cells[cell] = unplain[fault](cells[cell])
        lines[2] = ",".join(cells)
        (data / path).write_text("\n".join(lines) + "\n")
        rc = cli_dispatch([*argv, "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        assert f"{path}:3: " in self._one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _one_error_line(capsys) -> str:
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        return lines[0]

    @pytest.mark.parametrize("filters", ["0", "-2"])
    @pytest.mark.parametrize("command", ["train", "pipeline"])
    def test_filters_below_one_rejected(self, small_dataset, tmp_path, capsys,
                                        monkeypatch, command, filters):
        monkeypatch.setattr(tcn, "train", _refuse_training)
        argv = [command, "--data", str(small_dataset), *TINY_TCN,
                "--filters", filters, "--out", str(tmp_path / "out")]
        assert cli_dispatch(argv) == EXIT_VALIDATION
        assert "num_filters must be >= 1" in self._one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--epochs", "-3", "epochs must be >= 0"),
        ("--lr", "-1", "lr must be positive and finite"),
        ("--lr", "0", "lr must be positive and finite"),
        ("--lr", "nan", "lr must be positive and finite"),
        ("--lr", "inf", "lr must be positive and finite"),
    ])
    @pytest.mark.parametrize("command", ["train", "pipeline"])
    def test_bad_epochs_or_lr_rejected(self, small_dataset, tmp_path, capsys,
                                       monkeypatch, command, flag, value,
                                       message):
        monkeypatch.setattr(tcn, "train", _refuse_training)
        argv = [command, "--data", str(small_dataset), *TINY_TCN,
                flag, value, "--out", str(tmp_path / "out")]
        assert cli_dispatch(argv) == EXIT_VALIDATION
        assert message in self._one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        "synth --seed -1",
        "train --data d --seed -1",
        "fit-reg --features f.csv --seed -1",
        "pipeline --data d --seed -1",
        "importance --model m.ckpt --features f.csv --seed -1",
        "train --data d --epochs -1",
        "pipeline --data d --lr 0",
    ])
    def test_bad_flag_refused_before_any_input_is_read(self, tmp_path, capsys,
                                                        monkeypatch, argv):
        # the inputs do not exist, so reading one would be an I/O error
        monkeypatch.chdir(tmp_path)
        message = {"--seed": "--seed must be >= 0",
                   "--epochs": "epochs must be >= 0",
                   "--lr": "lr must be positive and finite"}[argv.split()[-2]]
        assert cli_dispatch([*argv.split(), "--out", "out"]) == EXIT_VALIDATION
        assert message in self._one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("extract-features", "--width", "3", "--width must be >= 4"),
        ("extract-features", "--width", "0", "--width must be >= 4"),
        ("extract-features", "--width", "-5", "--width must be >= 4"),
        ("pipeline", "--width", "3", "--width must be >= 4"),
        ("predict", "--min-duration", "-3", "--min-duration must be >= 0"),
        ("pipeline", "--min-duration", "-1", "--min-duration must be >= 0"),
    ])
    def test_bad_width_or_min_duration_rejected(self, chain, tmp_path, capsys,
                                                monkeypatch, command, flag,
                                                value, message):
        monkeypatch.setattr(tcn, "train", _refuse_training)
        inputs = {"extract-features": ["--data", chain["data"]],
                  "predict": ["--model", chain["model"],
                              "--session", chain["session"]],
                  "pipeline": ["--data", chain["data"], *TINY_TCN]}
        rc = cli_dispatch([command, *inputs[command], flag, value,
                           "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        assert message in self._one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threshold", ["2", "-1", "nan"])
    @pytest.mark.parametrize("command", ["eval-seg", "pipeline"])
    def test_iou_threshold_outside_unit_interval_rejected(
            self, small_dataset, tmp_path, capsys, monkeypatch, command,
            threshold):
        monkeypatch.setattr(tcn, "train", _refuse_training)
        segs = tmp_path / "segs.csv"
        dataio.write_annotations([Segment(10, 60, 1)], segs)
        inputs = {"eval-seg": ["--pred", str(segs), "--truth", str(segs)],
                  "pipeline": ["--data", str(small_dataset), *TINY_TCN]}
        rc = cli_dispatch([command, *inputs[command], "--threshold", threshold,
                           "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        assert "IoU threshold must lie in [0, 1]" in self._one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_eval_reg_on_constant_heights_rejected(self, tmp_path, capsys):
        X = np.random.default_rng(0).normal(size=(20, 145))
        model = regression.fit("rf", X, X[:, 0], regression.RfConfig(
            n_estimators=2))
        dataio.save_checkpoint(model, tmp_path / "r.ckpt")
        dataio.write_feature_csv(X, np.full(20, 0.3), tmp_path / "f.csv")
        rc = cli_dispatch(["eval-reg", "--model", str(tmp_path / "r.ckpt"),
                           "--features", str(tmp_path / "f.csv"),
                           "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        assert "constant truth" in self._one_error_line(capsys)

    @pytest.mark.parametrize("flag, value, message", [
        ("--subjects", "0", "num_subjects must be >= 1"),
        ("--noise", "nan", "noise_std_g must be >= 0 and finite"),
        ("--duration", "inf", "session_duration_s must be positive and finite"),
        ("--duration", "nan", "session_duration_s must be positive and finite"),
        ("--duration", "1e308", "session_duration_s must be positive and finite"),
        ("--duration", "1e9", "session_duration_s must be positive and finite"),
    ])
    def test_synth_bad_value_rejected(self, tmp_path, capsys, flag, value,
                                      message):
        rc = cli_dispatch(["synth", "--subjects", "1", flag, value,
                           "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        assert message in self._one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_importance_repeats_below_one_rejected(self, tmp_path, capsys,
                                                   repeats):
        X = np.random.default_rng(0).normal(size=(20, 145))
        model = regression.fit("rf", X, X[:, 0], regression.RfConfig(
            n_estimators=2))
        dataio.save_checkpoint(model, tmp_path / "r.ckpt")
        dataio.write_feature_csv(X, X[:, 0], tmp_path / "f.csv")
        rc = cli_dispatch(["importance", "--model", str(tmp_path / "r.ckpt"),
                           "--features", str(tmp_path / "f.csv"),
                           "--repeats", repeats, "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        assert "repeats must be >= 1" in self._one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_importance_too_many_repeats_is_one_error_line(self, tmp_path,
                                                          capsys):
        # 10**12 stacked copies of 20 x 145 floats are about 21 PiB, beyond
        # any address space, so the allocation fails at once
        X = np.random.default_rng(0).normal(size=(20, 145))
        heights = np.abs(X[:, 0]) + 0.1
        model = regression.fit("rf", X, heights, regression.RfConfig(
            n_estimators=2))
        dataio.save_checkpoint(model, tmp_path / "r.ckpt")
        dataio.write_feature_csv(X, heights, tmp_path / "f.csv")
        rc = cli_dispatch(["importance", "--model", str(tmp_path / "r.ckpt"),
                           "--features", str(tmp_path / "f.csv"),
                           "--repeats", str(10**12),
                           "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        assert "allocate" in self._one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["extract-features", "pipeline"])
    def test_missing_height_names_heights_file(self, small_dataset, tmp_path,
                                               capsys, monkeypatch, command):
        monkeypatch.setattr(tcn, "train", _refuse_training)
        data = tmp_path / "data"
        data.mkdir()
        for name in ("S00.csv", "S01.csv"):
            (data / name).write_bytes((small_dataset / name).read_bytes())
        rows = (small_dataset / "heights.csv").read_text().splitlines()
        (data / "heights.csv").write_text("\n".join(rows[:-1]) + "\n")
        rc = cli_dispatch([command, "--data", str(data), *(
            TINY_TCN if command == "pipeline" else []),
            "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        line = self._one_error_line(capsys)
        assert line.startswith(f"error: {data / 'heights.csv'}: missing "
                               f"height for segment"), line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval-reg", "importance"])
    def test_one_row_feature_file_named(self, tmp_path, capsys, command):
        X = np.random.default_rng(0).normal(size=(20, 145))
        model = regression.fit("rf", X, X[:, 0], regression.RfConfig(
            n_estimators=2))
        dataio.save_checkpoint(model, tmp_path / "r.ckpt")
        dataio.write_feature_csv(X[:1], [0.3], tmp_path / "f.csv")
        rc = cli_dispatch([command, "--model", str(tmp_path / "r.ckpt"),
                           "--features", str(tmp_path / "f.csv"),
                           "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        assert f"{tmp_path / 'f.csv'}: " in self._one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_missing_checkpoint_is_io_error(self, tmp_path):
        rc = cli_dispatch(["eval-reg", "--model", str(tmp_path / "no.ckpt"),
                           "--features", str(tmp_path / "no.csv"),
                           "--out", str(tmp_path)])
        assert rc == EXIT_IO


class TestEvalSeg:
    def test_identical_annotations_give_perfect_f1(self, tmp_path):
        segs = [Segment(10, 60, 1), Segment(100, 140, 3), Segment(200, 230, 2)]
        path = tmp_path / "segs.csv"
        dataio.write_annotations(segs, path)
        out = tmp_path / "out"
        rc = cli_dispatch(["eval-seg", "--pred", str(path),
                           "--truth", str(path), "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads((out / "seg_metrics.json").read_text())
        assert doc["overall"]["f1"] == 1.0
        assert doc["overall"]["tp"] == 3


class TestTrainPredict:
    def test_train_then_predict(self, small_dataset, tmp_path):
        model_dir = tmp_path / "model"
        rc = cli_dispatch(["train", "--data", str(small_dataset),
                           "--stages", "1", "--layers", "3", "--filters", "4",
                           "--epochs", "2", "--out", str(model_dir)])
        assert rc == EXIT_OK
        ckpt = model_dir / "model.ckpt"
        assert ckpt.exists()
        pred_dir = tmp_path / "pred"
        rc = cli_dispatch(["predict", "--model", str(ckpt),
                           "--session", str(small_dataset / "S00.csv"),
                           "--out", str(pred_dir)])
        assert rc == EXIT_OK
        # output must parse back as annotations (possibly empty at 2 epochs)
        dataio.read_annotations(pred_dir / "pred_segments.csv")


class TestShortSessions:
    """Sessions shorter than the ROI width and than the TCN's reach: predict
    and extract-features run, and a jump's ROI is its zero-padded window."""

    @pytest.mark.parametrize("T", [1, 2, 150])
    def test_predict(self, tmp_path, T):
        weights = tcn.build_mstcn(tcn.MsTcnConfig(
            num_stages=2, stage=tcn.SsTcnConfig(num_layers=7, num_filters=4)))
        dataio.save_checkpoint(weights, tmp_path / "m.ckpt")
        session = dataio.ImuSession(
            "s", np.random.default_rng(T).normal(size=(T, 6)))
        dataio.write_session_csv(session, tmp_path / "s.csv")
        rc = cli_dispatch(["predict", "--model", str(tmp_path / "m.ckpt"),
                           "--session", str(tmp_path / "s.csv"),
                           "--out", str(tmp_path / "pred")])
        assert rc == EXIT_OK
        for s in dataio.read_annotations(tmp_path / "pred" / "pred_segments.csv"):
            assert 0 <= s.start < s.end <= T

    @pytest.mark.parametrize("T,start,end", [(1, 0, 1), (2, 0, 2),
                                             (150, 60, 90)])
    def test_extract_features(self, tmp_path, T, start, end):
        data = tmp_path / "data"
        data.mkdir()
        labels = np.zeros(T, dtype=np.int64)
        labels[start:end] = seg.DEFAULT_VOCAB.index("CMJ")
        session = dataio.ImuSession(
            "S00", np.random.default_rng(T).normal(size=(T, 6)), labels)
        dataio.write_session_csv(session, data / "S00.csv")
        jump = Segment(start, end, seg.DEFAULT_VOCAB.index("CMJ"))
        dataio.write_heights([dataio.HeightRecord("S00", jump, 0.3)],
                             data / "heights.csv")
        rc = cli_dispatch(["extract-features", "--data", str(data),
                           "--out", str(tmp_path / "feat")])
        assert rc == EXIT_OK
        samples = dataio.read_session_csv(data / "S00.csv").samples
        roi = seg.select_roi(jump, T)
        assert roi.left_pad and roi.right_pad
        window = seg.roi_window(roi, samples)
        assert window.shape == (seg.DEFAULT_ROI_WIDTH, 6)
        expected = features.extract_feature_vector(window, jump.class_id)
        dataio.write_feature_csv(expected[None], [0.3], tmp_path / "ref.csv")
        assert (tmp_path / "feat" / "features.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("T", [1, 2, 150])
    def test_pipeline_without_jumps_refused_before_training(
            self, tmp_path, capsys, monkeypatch, T):
        monkeypatch.setattr(tcn, "train", _refuse_training)
        data = tmp_path / "data"
        data.mkdir()
        for s in range(3):
            session = dataio.ImuSession(
                f"S{s}", np.random.default_rng(s).normal(size=(T, 6)),
                np.zeros(T, dtype=np.int64))
            dataio.write_session_csv(session, data / f"S{s}.csv")
        dataio.write_heights([], data / "heights.csv")
        rc = cli_dispatch(["pipeline", "--data", str(data), *TINY_TCN,
                           "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "error: fold 1/3 (test subject S0): no training subject has a "
            "height-eligible jump"]
        assert not (tmp_path / "out").exists()


class TestRegressionChain:
    def test_extract_fit_eval(self, small_dataset, tmp_path):
        feat_dir = tmp_path / "feat"
        rc = cli_dispatch(["extract-features", "--data", str(small_dataset),
                           "--out", str(feat_dir)])
        assert rc == EXIT_OK
        features_csv = feat_dir / "features.csv"
        header, *rows = features_csv.read_text().splitlines()
        assert len(header.split(",")) == 146  # 145 features + height
        assert len(rows) == 8  # 2 subjects x 4 jumps

        fit_dir = tmp_path / "fit"
        rc = cli_dispatch(["fit-reg", "--features", str(features_csv),
                           "--kind", "rf", "--seed", "1",
                           "--out", str(fit_dir)])
        assert rc == EXIT_OK

        eval_dir = tmp_path / "eval"
        rc = cli_dispatch(["eval-reg", "--model", str(fit_dir / "regressor.ckpt"),
                           "--features", str(features_csv),
                           "--out", str(eval_dir)])
        assert rc == EXIT_OK
        doc = json.loads((eval_dir / "reg_metrics.json").read_text())
        assert doc["n"] == 8
        assert doc["rmse"] < 0.2  # in-sample fit on its own training rows

    def test_gbt_checkpoint_does_not_depend_on_seed(self, small_dataset,
                                                    tmp_path):
        cli_dispatch(["extract-features", "--data", str(small_dataset),
                      "--out", str(tmp_path / "feat")])
        checkpoints = []
        for seed in ("0", "7"):
            out = tmp_path / f"gbt{seed}"
            rc = cli_dispatch(["fit-reg",
                               "--features", str(tmp_path / "feat/features.csv"),
                               "--kind", "gbt", "--seed", seed,
                               "--out", str(out)])
            assert rc == EXIT_OK
            checkpoints.append((out / "regressor.ckpt").read_bytes())
        assert checkpoints[0] == checkpoints[1]

    def test_importance_ranks_features(self, small_dataset, tmp_path):
        feat_dir = tmp_path / "feat"
        cli_dispatch(["extract-features", "--data", str(small_dataset),
                      "--out", str(feat_dir)])
        fit_dir = tmp_path / "fit"
        cli_dispatch(["fit-reg", "--features", str(feat_dir / "features.csv"),
                      "--out", str(fit_dir)])
        imp_dir = tmp_path / "imp"
        rc = cli_dispatch(["importance",
                           "--model", str(fit_dir / "regressor.ckpt"),
                           "--features", str(feat_dir / "features.csv"),
                           "--repeats", "2", "--out", str(imp_dir)])
        assert rc == EXIT_OK
        lines = (imp_dir / "importance.csv").read_text().splitlines()
        assert lines[0] == "feature,importance"
        assert len(lines) == 1 + 145


class TestConfigFile:
    def test_config_file_supplies_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("subjects = 2\nduration = 120  # short sessions\n")
        out = tmp_path / "out"
        rc = cli_dispatch(["synth", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        assert sorted(p for p in os.listdir(out) if p.startswith("S")) \
            == ["S00.csv", "S01.csv"]

    def test_explicit_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("subjects = 2\nduration = 120\n")
        out = tmp_path / "out"
        rc = cli_dispatch(["synth", "--config", str(cfg),
                           "--subjects", "1", "--out", str(out)])
        assert rc == EXIT_OK
        assert sorted(p for p in os.listdir(out) if p.startswith("S")) \
            == ["S00.csv"]

    @pytest.mark.parametrize("spelling", ["equals", "abbreviated"])
    def test_other_config_flag_spellings_are_read(self, tmp_path, spelling):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("subjects = 1\nduration = 120\n")
        flag = {"equals": [f"--config={cfg}"],
                "abbreviated": ["--conf", str(cfg)]}[spelling]
        out = tmp_path / "out"
        rc = cli_dispatch(["synth", *flag, "--out", str(out)])
        assert rc == EXIT_OK
        assert sorted(p for p in os.listdir(out) if p.startswith("S")) \
            == ["S00.csv"]

    def test_bad_config_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("subjects without equals\n")
        assert cli_dispatch(["synth", "--config", str(cfg),
                             "--out", str(tmp_path)]) == EXIT_VALIDATION


class TestPipeline:
    @pytest.mark.parametrize("tp_jumps", [0, 1])
    def test_fewer_than_two_tp_jumps_gives_null_height_metrics(
            self, small_dataset, tmp_path, monkeypatch, capsys, tp_jumps):
        def predict(weights, session):
            """Background everywhere but the first `tp_jumps` jumps of S00."""
            labels = np.zeros_like(session.labels)
            if session.subject_id == "S00":
                for s in seg.extract_segments(session.labels)[:tp_jumps]:
                    labels[s.start:s.end] = s.class_id
            return None, labels

        monkeypatch.setattr(tcn, "train", lambda config, sessions: (None, []))
        monkeypatch.setattr(tcn, "predict", predict)
        out = tmp_path / "out"
        rc = cli_dispatch(["pipeline", "--data", str(small_dataset),
                           "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["reg_metrics"] is None
        assert report["bland_altman_points"] == []
        assert report["seg_metrics"]["overall"]["tp"] == tp_jumps
        assert report["seg_metrics"]["overall"]["fn"] == 8 - tp_jumps
        assert report["count_loa"]["total"]["n"] == 2
        assert (out / "bland_altman.csv").read_text() == "mean_m,diff_m\n"
        assert (f"no height metrics: {tp_jumps} true-positive jumps"
                in capsys.readouterr().err)


@pytest.fixture(scope="module")
def chain(small_dataset, tmp_path_factory):
    """An input of each kind the CLI reads, made from `small_dataset`."""
    root = tmp_path_factory.mktemp("chain")
    sess = dataio.read_session_csv(small_dataset / "S00.csv")
    dataio.write_annotations(seg.extract_segments(sess.labels),
                             root / "truth.csv")
    for argv in (["train", "--data", str(small_dataset), *TINY_TCN],
                 ["extract-features", "--data", str(small_dataset)],
                 ["fit-reg", "--features", str(root / "features.csv")]):
        assert cli_dispatch([*argv, "--out", str(root)]) == EXIT_OK
    return {"data": str(small_dataset), "session": str(small_dataset / "S00.csv"),
            "model": str(root / "model.ckpt"), "truth": str(root / "truth.csv"),
            "features": str(root / "features.csv"),
            "regressor": str(root / "regressor.ckpt")}


# Each command: its input flags (flag -> key in `chain`) and other flags.
COMMANDS = {
    "synth": ({}, ["--subjects", "1", "--duration", "120"]),
    "train": ({"data": "data"}, TINY_TCN),
    "predict": ({"model": "model", "session": "session"}, []),
    "eval-seg": ({"pred": "truth", "truth": "truth"}, []),
    "extract-features": ({"data": "data"}, []),
    "fit-reg": ({"features": "features"}, []),
    "eval-reg": ({"model": "regressor", "features": "features"}, []),
    "pipeline": ({"data": "data"}, TINY_TCN),
    "importance": ({"model": "regressor", "features": "features"},
                   ["--repeats", "1"]),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_written_by_every_command(chain, tmp_path, command):
    input_flags, extra = COMMANDS[command]
    inputs = [chain[key] for key in input_flags.values()]
    out = tmp_path / "out"
    argv = [command, *(a for flag, path in zip(input_flags, inputs)
                       for a in (f"--{flag}", path)),
            *extra, "--out", str(out)]
    assert cli_dispatch(argv) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["inputs"] == inputs
    assert manifest["outputs"]
    assert all(os.path.dirname(p) == str(out) and os.path.isfile(p)
               for p in manifest["outputs"])
    assert sorted(os.listdir(out)) == sorted(
        [os.path.basename(p) for p in manifest["outputs"]] + ["manifest.json"])
    assert manifest["versions"]["feature_catalog"] == 1
    assert np.isfinite(manifest["wall_clock_s"])
    assert sorted(manifest["config"]) == sorted(
        dest for option, (dest, *_, required) in PARSER_SURFACE[command].items()
        if not required and option not in _COMMON)


# Each command's other flags set away from their defaults, so that a config
# file that failed to reach them would show.
ROUND_TRIP_FLAGS = {
    "synth": ["--seed", "5", "--noise", "0.02"],
    "train": ["--seed", "3", "--lr", "0.002"],
    "predict": ["--min-duration", "5"],
    "eval-seg": ["--threshold", "0.3"],
    "extract-features": ["--width", "200"],
    "fit-reg": ["--seed", "3", "--kind", "gbt"],
    "eval-reg": [],
    "pipeline": ["--seed", "3", "--regressor", "mlp", "--width", "200",
                 "--threshold", "0.3", "--min-duration", "5"],
    "importance": ["--seed", "3"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_config_reproduces_the_outputs(chain, tmp_path, command):
    """A command run again with its manifest's config as its `--config`
    file, and with its input paths, writes the same bytes; only the
    manifest's wall clock differs."""
    input_flags, extra = COMMANDS[command]
    inputs = [a for flag, key in input_flags.items()
              for a in (f"--{flag}", chain[key])]
    out = tmp_path / "out"

    def run(*flags):
        if out.exists():
            shutil.rmtree(out)
        assert cli_dispatch([command, *inputs, *flags, "--out", str(out)]) \
            == EXIT_OK
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        manifest = json.loads(files.pop("manifest.json"))
        del manifest["wall_clock_s"]
        return files, manifest

    first = run(*extra, *ROUND_TRIP_FLAGS[command])
    config = tmp_path / "config.txt"
    config.write_text("".join(f"{key}={value}\n"
                              for key, value in first[1]["config"].items()))
    assert run("--config", str(config)) == first


# Every flag of every subcommand: option -> (dest, default, type, choices,
# required). A parser change that adds, drops or alters a flag shows here.
_PATH = (None, None, None, True)
_COMMON = {"--config": ("config", None, "str", None, False),
           "--out": ("out", ".", "str", None, False)}
_SEED = {"--seed": ("seed", 0, "int", None, False)}
_TCN = {"--stages": ("stages", 2, "int", None, False),
        "--layers": ("layers", 7, "int", None, False),
        "--filters": ("filters", 16, "int", None, False),
        "--epochs": ("epochs", 20, "int", None, False),
        "--lr": ("lr", 0.001, "float", None, False)}
_KINDS = ("rf", "gbt", "mlp")
PARSER_SURFACE = {
    "synth": {**_SEED, **_COMMON,
              "--subjects": ("subjects", 10, "int", None, False),
              "--duration": ("duration", 170.0, "float", None, False),
              "--noise": ("noise", 0.05, "float", None, False)},
    "train": {"--data": ("data", *_PATH), **_SEED, **_COMMON, **_TCN},
    "predict": {"--model": ("model", *_PATH), "--session": ("session", *_PATH),
                **_COMMON,
                "--min-duration": ("min_duration", 10, "int", None, False)},
    "eval-seg": {"--pred": ("pred", *_PATH), "--truth": ("truth", *_PATH),
                 **_COMMON,
                 "--threshold": ("threshold", 0.1, "float", None, False)},
    "extract-features": {"--data": ("data", *_PATH), **_COMMON,
                         "--width": ("width", 300, "int", None, False)},
    "fit-reg": {"--features": ("features", *_PATH), **_SEED, **_COMMON,
                "--kind": ("kind", "rf", None, _KINDS, False)},
    "eval-reg": {"--model": ("model", *_PATH),
                 "--features": ("features", *_PATH), **_COMMON},
    "pipeline": {"--data": ("data", *_PATH), **_SEED, **_COMMON, **_TCN,
                 "--regressor": ("regressor", "rf", None, _KINDS, False),
                 "--width": ("width", 300, "int", None, False),
                 "--threshold": ("threshold", 0.1, "float", None, False),
                 "--min-duration": ("min_duration", 10, "int", None, False)},
    "importance": {"--model": ("model", *_PATH),
                   "--features": ("features", *_PATH), **_SEED, **_COMMON,
                   "--repeats": ("repeats", 10, "int", None, False)},
}


def _flag_surface(subparser) -> dict:
    surface = {}
    for action in subparser._actions:
        if action.dest == "help":
            continue
        assert len(action.option_strings) == 1, action.option_strings
        surface[action.option_strings[0]] = (
            action.dest, action.default,
            action.type.__name__ if action.type else None,
            tuple(action.choices) if action.choices else None,
            action.required)
    return surface


def test_flag_defaults_are_the_config_defaults():
    parser = build_parser()
    assert _tcn_config(parser.parse_args(["train", "--data", "d"])) \
        == tcn.MsTcnConfig()
    args, synth = parser.parse_args(["synth"]), dataio.SyntheticConfig()
    assert (args.subjects, args.duration, args.noise) == (
        synth.num_subjects, synth.session_duration_s, synth.noise_std_g)


def test_parser_surface_is_pinned():
    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(PARSER_SURFACE)
    for name, subparser in sub.choices.items():
        surface = _flag_surface(subparser)
        assert surface == PARSER_SURFACE[name], name
        # equal values of another type (10 vs 10.0) compare equal above
        assert ({k: type(v[1]) for k, v in surface.items()}
                == {k: type(v[1]) for k, v in PARSER_SURFACE[name].items()}), name
