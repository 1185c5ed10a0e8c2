"""Fault injection through `cli_dispatch`.

Each file the CLI reads (a session, annotations, heights, features, and an
mstcn, rf, gbt and mlp checkpoint) is truncated at a random byte, has one
byte replaced, gets a JSON node of the wrong type, a non-finite number or a
key that the writer does not write, a duplicated or an overlapping row, a
feature row with a height that is not positive, or is emptied, and then goes
through a command that reads it. A file that is still valid gives exit 0;
any other gives exit 1 or 2 and exactly one `error:` line that names the
file's path.
"""

import contextlib
import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumppipe import dataio, evaluation, regression, tcn
from jumppipe import segmentation as seg
from jumppipe.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, cli_dispatch

CSV_KINDS = ("session", "annotations", "heights", "features")
CHECKPOINT_KINDS = ("mstcn", "rf", "gbt", "mlp")
FUZZ = settings(max_examples=12, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One valid file of each kind, and where each mutated copy goes: a
    mutated heights file sits beside the session it describes."""
    root = tmp_path_factory.mktemp("faults")
    sessions, heights = dataio.synth_generate(dataio.SyntheticConfig(
        num_subjects=1, jumps_per_class={"CMJ": 3, "Block": 3},
        session_duration_s=30.0, seed=5))
    session = sessions[0]
    X, y = evaluation.feature_table(sessions, heights, seg.DEFAULT_ROI_WIDTH)
    configs = {"rf": regression.RfConfig(n_estimators=3),
               "gbt": regression.GbtConfig(),
               "mlp": regression.MlpRegConfig(hidden_layers=(3,), max_iter=5)}
    valid = root / "valid"
    valid.mkdir()
    dataio.write_session_csv(session, valid / "S00.csv")
    dataio.write_annotations(seg.extract_segments(session.labels),
                             valid / "annotations.csv")
    dataio.write_heights(heights, valid / "heights.csv")
    dataio.write_feature_csv(X, y, valid / "features.csv")
    dataio.save_checkpoint(tcn.build_mstcn(tcn.MsTcnConfig(
        num_stages=1, stage=tcn.SsTcnConfig(num_layers=2, num_filters=3))),
        valid / "mstcn.ckpt")
    for kind, config in configs.items():
        dataio.save_checkpoint(regression.fit(kind, X, y, config),
                               valid / f"{kind}.ckpt")
    case = root / "case"
    (case / "data").mkdir(parents=True)
    shutil.copy(valid / "S00.csv", case / "data" / "S00.csv")
    paths = {"session": valid / "S00.csv",
             "annotations": valid / "annotations.csv",
             "heights": valid / "heights.csv",
             "features": valid / "features.csv",
             **{kind: valid / f"{kind}.ckpt" for kind in CHECKPOINT_KINDS}}
    targets = {kind: case / path.name for kind, path in paths.items()}
    targets["heights"] = case / "data" / "heights.csv"
    return {"valid": paths, "target": targets, "out": root / "out"}


def _argv(files, kind):
    """A command that reads the mutated file of `kind` and valid others."""
    valid, target = files["valid"], files["target"]
    mutated = str(target[kind])
    if kind == "session":
        argv = ["predict", "--model", str(valid["mstcn"]),
                "--session", mutated]
    elif kind == "mstcn":
        argv = ["predict", "--model", mutated,
                "--session", str(valid["session"])]
    elif kind == "annotations":
        argv = ["eval-seg", "--pred", mutated,
                "--truth", str(valid["annotations"])]
    elif kind == "heights":
        argv = ["extract-features", "--data", str(target["heights"].parent)]
    elif kind == "features":
        argv = ["eval-reg", "--model", str(valid["rf"]), "--features", mutated]
    else:
        argv = ["eval-reg", "--model", mutated,
                "--features", str(valid["features"])]
    return [*argv, "--out", str(files["out"])]


def _dispatch(argv) -> tuple[int, str]:
    """Exit code and stderr of a command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli_dispatch(argv)
    return rc, err.getvalue()


def _run(files, kind, data: bytes) -> int:
    """Write `data` as the file of `kind`, run a command on it and check the
    outcome; return the exit code."""
    path = files["target"][kind]
    path.write_bytes(data)
    rc, err = _dispatch(_argv(files, kind))
    if rc != EXIT_OK:
        errors = [line for line in err.splitlines() if "error:" in line]
        assert rc in (EXIT_VALIDATION, EXIT_IO), err
        assert len(errors) == 1 and str(path) in errors[0], err
    return rc


def _valid(files, kind) -> bytes:
    return files["valid"][kind].read_bytes()


@pytest.mark.parametrize("kind", CSV_KINDS + CHECKPOINT_KINDS)
def test_valid_file_exits_0(files, kind):
    assert _run(files, kind, _valid(files, kind)) == EXIT_OK


@pytest.mark.parametrize("kind", CSV_KINDS + CHECKPOINT_KINDS)
def test_empty_file_refused(files, kind):
    assert _run(files, kind, b"") == EXIT_VALIDATION


@pytest.mark.parametrize("kind", CSV_KINDS + CHECKPOINT_KINDS)
@FUZZ
@given(data=st.data())
def test_truncated_file(files, kind, data):
    valid = _valid(files, kind)
    _run(files, kind, valid[:data.draw(st.integers(0, len(valid) - 1))])


@pytest.mark.parametrize("kind", CSV_KINDS + CHECKPOINT_KINDS)
@FUZZ
@given(data=st.data(), byte=st.integers(0x00, 0xff))
def test_one_byte_replaced(files, kind, data, byte):
    valid = bytearray(_valid(files, kind))
    valid[data.draw(st.integers(0, len(valid) - 1))] = byte
    _run(files, kind, bytes(valid))


def _nodes(doc, path=()):
    """The path of every node in a JSON document, the root included."""
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _nodes(value, (*path, key))


def _node(doc, path):
    """The node at `path` of a JSON document."""
    for key in path:
        doc = doc[key]
    return doc


OTHER_TYPES = [None, True, 7, 0.5, "x", [], {}]


@pytest.mark.parametrize("kind", CHECKPOINT_KINDS)
@FUZZ
@given(data=st.data())
def test_json_node_of_wrong_type(files, kind, data):
    doc = json.loads(_valid(files, kind))
    path = data.draw(st.sampled_from(list(_nodes(doc))))
    parent = _node(doc, path[:-1])
    node = parent[path[-1]] if path else doc
    value = data.draw(st.sampled_from(
        [v for v in OTHER_TYPES if type(v) is not type(node)]))
    if path:
        parent[path[-1]] = value
    else:
        doc = value
    _run(files, kind, json.dumps(doc).encode())


NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"]


@pytest.mark.parametrize("kind", CHECKPOINT_KINDS)
@FUZZ
@given(data=st.data(), token=st.sampled_from(NON_FINITE))
def test_non_finite_number_refused(files, kind, data, token):
    """Any number of the file, in an array or alone, made non-finite as
    Python's JSON reader takes it."""
    doc = json.loads(_valid(files, kind))
    numbers = [path for path in _nodes(doc) if path and type(
        _node(doc, path)) in (int, float)]
    path = data.draw(st.sampled_from(numbers))
    _node(doc, path[:-1])[path[-1]] = "@"
    text = json.dumps(doc).replace('"@"', token)
    assert _run(files, kind, text.encode()) == EXIT_VALIDATION


@pytest.mark.parametrize("kind", CHECKPOINT_KINDS)
@FUZZ
@given(data=st.data(), value=st.sampled_from(OTHER_TYPES))
def test_added_key_refused(files, kind, data, value):
    """A key that the writer does not write, added to any dict of the file,
    the top level included."""
    doc = json.loads(_valid(files, kind))
    dicts = [path for path in _nodes(doc)
             if isinstance(_node(doc, path), dict)]
    node = _node(doc, data.draw(st.sampled_from(dicts)))
    key = data.draw(st.sampled_from(["extra", "", "data", "w", "wb", "trees",
                                     "lr", "stage9.conv_in.w"]).filter(
                                         lambda k: k not in node))
    node[key] = value
    assert _run(files, kind, json.dumps(doc).encode()) == EXIT_VALIDATION


@FUZZ
@given(data=st.data(), height=st.sampled_from(
    ["0", "-0", "0.0", "-0.2", "-1e-300", "-5"]))
def test_non_positive_feature_height_refused(files, data, height):
    """A zero or negative height_m, which `read_heights` refuses too."""
    rows = _rows(files, "features")
    i = data.draw(st.integers(1, len(rows) - 1))
    cells = rows[i].decode().rstrip("\n").split(",")
    cells[-1] = height
    rows[i] = (",".join(cells) + "\n").encode()
    assert _run(files, "features", b"".join(rows)) == EXIT_VALIDATION


def _rows(files, kind) -> list[bytes]:
    return _valid(files, kind).splitlines(keepends=True)


@pytest.mark.parametrize("kind, rc", [
    ("session", EXIT_VALIDATION),  # its timestamp repeats
    ("annotations", EXIT_VALIDATION),
    ("heights", EXIT_VALIDATION),
    ("features", EXIT_OK),
])
@FUZZ
@given(data=st.data())
def test_duplicate_row(files, kind, rc, data):
    rows = _rows(files, kind)
    i = data.draw(st.integers(1, len(rows) - 1))
    j = data.draw(st.integers(1, len(rows)))
    assert _run(files, kind, b"".join(rows[:j] + [rows[i]] + rows[j:])) == rc


@pytest.mark.parametrize("kind", ["annotations", "heights"])
@FUZZ
@given(data=st.data())
def test_overlapping_row(files, kind, data):
    """A row whose interval starts one sample after another row's start."""
    rows = _rows(files, kind)
    i = data.draw(st.integers(1, len(rows) - 1))
    cells = rows[i].decode().rstrip("\n").split(",")
    start = -4 if kind == "heights" else -3
    cells[start] = str(int(cells[start]) + 1)
    overlap = (",".join(cells) + "\n").encode()
    assert _run(files, kind, b"".join(rows + [overlap])) == EXIT_VALIDATION


@pytest.mark.parametrize("kind", CSV_KINDS + CHECKPOINT_KINDS)
def test_bad_utf8_byte_names_file_and_line(files, kind):
    """A 0xff byte on line 2 (a checkpoint is one line) is refused by the
    reader, naming the file and the line."""
    valid = _valid(files, kind)
    at = valid.index(b"\n") + 3 if kind in CSV_KINDS else 40
    files["target"][kind].write_bytes(valid[:at] + b"\xff" + valid[at:])
    line = 2 if kind in CSV_KINDS else 1
    assert _dispatch(_argv(files, kind)) == (
        EXIT_VALIDATION, f"error: {files['target'][kind]}:{line}: byte 0xff "
                         f"is not UTF-8 text\n")


def test_bad_utf8_config_file_names_file_and_line(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"subjects = 1\r\nseed = 3\r\nnoise = \xff\n")
    assert _dispatch(["synth", "--config", str(config),
                      "--out", str(tmp_path / "out")]) == (
        EXIT_VALIDATION, f"error: {config}:3: byte 0xff is not UTF-8 text\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [("in_channels", 5),
                                          ("num_classes", 3),
                                          ("num_classes", 9)])
def test_predict_refuses_mstcn_of_other_shape(files, tmp_path, field, value):
    """Refused on load, before the session is read: here it does not exist."""
    stage = {"num_layers": 2, "num_filters": 3, field: value}
    model = tmp_path / "m.ckpt"
    dataio.save_checkpoint(tcn.build_mstcn(tcn.MsTcnConfig(
        num_stages=1, stage=tcn.SsTcnConfig(**stage))), model)
    have = (value, 8) if field == "in_channels" else (6, value)
    assert _dispatch(["predict", "--model", str(model),
                      "--session", str(tmp_path / "missing.csv"),
                      "--out", str(tmp_path / "out")]) == (
        EXIT_VALIDATION, f"error: {model}: the model takes {have} (channels, "
                         f"classes), not the (6, 8) of jumppipe's data\n")


def test_regressor_of_other_width_refused(files, tmp_path):
    X = np.random.default_rng(0).normal(size=(10, 4))
    model = tmp_path / "r.ckpt"
    dataio.save_checkpoint(regression.fit(
        "rf", X, X[:, 0], regression.RfConfig(n_estimators=2)), model)
    assert _dispatch(["eval-reg", "--model", str(model),
                      "--features", str(files["valid"]["features"]),
                      "--out", str(tmp_path / "out")]) == (
        EXIT_VALIDATION, f"error: {model}: the model takes 4 features, not "
                         f"the 145 of jumppipe's data\n")


def test_mstcn_params_must_match_config(files, tmp_path):
    """A 2-stage, 2-layer model whose config is edited to 1 stage and 1
    layer would load as a model that uses 8 of the file's 24 parameters."""
    model = tmp_path / "m.ckpt"
    dataio.save_checkpoint(tcn.build_mstcn(tcn.MsTcnConfig(
        num_stages=2, stage=tcn.SsTcnConfig(num_layers=2, num_filters=3))),
        model)
    doc = json.loads(model.read_text())
    doc["config"].update(num_stages=1, num_layers=1)
    model.write_text(json.dumps(doc))
    assert _dispatch(["predict", "--model", str(model),
                      "--session", str(files["valid"]["session"]),
                      "--out", str(tmp_path / "out")]) == (
        EXIT_VALIDATION,
        f"error: {model}: unknown field 'params.stage0.block1.dilated.w'\n")


@pytest.mark.parametrize("kind, path, token, field, shown", [
    ("mstcn", ("params", "stage0.conv_in.w", "data", 0), "Infinity",
     "params.stage0.conv_in.w", "inf"),
    ("rf", ("trees", 0, "threshold", 0), "NaN", "trees[0].threshold", "nan"),
    ("gbt", ("base",), "1e999", "base", "inf"),
    ("gbt", ("eta",), "NaN", "eta", "nan"),
    ("mstcn", ("config", "lr"), "-Infinity", "config.lr", "-inf"),
], ids=["mstcn-weight", "rf-threshold", "gbt-base", "gbt-eta", "mstcn-lr"])
def test_non_finite_number_named(files, kind, path, token, field, shown):
    """An infinite weight gave non-finite probabilities, a NaN threshold
    sent every row right and an infinite base gave infinite heights."""
    doc = json.loads(_valid(files, kind))
    _node(doc, path[:-1])[path[-1]] = "@"
    target = files["target"][kind]
    target.write_text(json.dumps(doc).replace('"@"', token))
    assert _dispatch(_argv(files, kind)) == (
        EXIT_VALIDATION, f"error: {target}: field '{field}' holds {shown}, "
                         f"not a finite number\n")


TOO_LARGE = "1" + "0" * 400  # a JSON integer beyond the largest float


@pytest.mark.parametrize("kind, path, field, fits", [
    ("rf", ("trees", 0, "threshold", 0), "trees[0].threshold", "a float"),
    ("rf", ("trees", 0, "left", 0), "trees[0].left", "an int64"),
    ("gbt", ("base",), "base", "a float"),
    ("mlp", ("mu", "data", 0), "mu", "a float"),
    ("mstcn", ("params", "stage0.conv_in.b", "data", 0),
     "params.stage0.conv_in.b", "a float"),
    ("mstcn", ("config", "lr"), "config.lr", "a float"),
], ids=["rf-threshold", "rf-left", "gbt-base", "mlp-mu", "mstcn-weight",
        "mstcn-lr"])
def test_number_too_large_named(files, kind, path, field, fits):
    """It was refused as `int too large to convert to float`, without the
    field."""
    doc = json.loads(_valid(files, kind))
    _node(doc, path[:-1])[path[-1]] = "@"
    target = files["target"][kind]
    target.write_text(json.dumps(doc).replace('"@"', TOO_LARGE))
    assert _dispatch(_argv(files, kind)) == (
        EXIT_VALIDATION, f"error: {target}: field '{field}' holds a number "
                         f"too large for {fits}\n")


@pytest.mark.parametrize("value, shown", [(0, "0.0"), (-0.0, "-0.0"),
                                          (-2.5, "-2.5")])
def test_non_positive_mlp_sigma_refused(files, tmp_path, value, shown):
    """A sigma of 0 made eval-reg exit 0 and write NaN metrics."""
    doc = json.loads(_valid(files, "mlp"))
    doc["sigma"]["data"][7] = value
    target = files["target"]["mlp"]
    target.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert _dispatch(["eval-reg", "--model", str(target), "--features",
                      str(files["valid"]["features"]), "--out", str(out)]) == (
        EXIT_VALIDATION, f"error: {target}: field 'sigma[7]' is {shown}, "
                         f"not positive\n")
    assert not out.exists()


@pytest.mark.parametrize("field, value, error", [
    ("num_filters", 10**12, "field 'params.stage0.conv_in.w' has shape "
     "(1, 6, 3), but the config lays out (1, 6, 1000000000000)"),
    ("num_layers", 10**9, "mstcn checkpoint is missing field "
     "'params.stage0.block2.dilated.w'"),
], ids=["num-filters", "num-layers"])
def test_mstcn_config_checked_against_params_before_allocating(
        files, monkeypatch, field, value, error):
    """A config edited to a huge model died with an uncaught
    ArrayMemoryError: the model was built from it before `params` was read.
    Building a kernel here fails the test, so no such memory is asked for."""
    def refuse(*args):
        raise AssertionError("a kernel was allocated")
    monkeypatch.setattr(tcn, "_init_kernel", refuse)
    monkeypatch.setattr(tcn, "ConvKernel", refuse)
    doc = json.loads(_valid(files, "mstcn"))
    doc["config"][field] = value
    target = files["target"]["mstcn"]
    target.write_text(json.dumps(doc))
    assert _dispatch(_argv(files, "mstcn")) == (
        EXIT_VALIDATION, f"error: {target}: {error}\n")


def test_fit_reg_refuses_non_positive_height(files, tmp_path):
    rows = _rows(files, "features")
    cells = rows[3].decode().rstrip("\n").split(",")
    rows[3] = (",".join(cells[:-1] + ["-0.2"]) + "\n").encode()
    features = tmp_path / "features.csv"
    features.write_bytes(b"".join(rows))
    assert _dispatch(["fit-reg", "--features", str(features),
                      "--out", str(tmp_path / "out")]) == (
        EXIT_VALIDATION, f"error: {features}:4: height must be positive and "
                         f"finite, got -0.2\n")
    assert not (tmp_path / "out").exists()
