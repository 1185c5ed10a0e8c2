import json
import os

import numpy as np
import pytest

from jumppipe import dataio, features
from jumppipe.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, cli_dispatch
from jumppipe.segmentation import Segment


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

    def test_bad_config_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("subjects without equals\n")
        assert cli_dispatch(["synth", "--config", str(cfg),
                             "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_manifest_written_by_every_command(small_dataset, tmp_path):
    out = tmp_path / "out"
    cli_dispatch(["extract-features", "--data", str(small_dataset),
                  "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "extract-features"
    assert manifest["inputs"] == [str(small_dataset)]
    assert manifest["versions"]["feature_catalog"] == 1
    assert np.isfinite(manifest["wall_clock_s"])
