"""The benchmark's view of the API.

The files under `bench/` call jumppipe through module attributes, such as
`seg.extract_segments(labels, VOCAB)` or `tcn.MsTcnConfig(...)`. This test
reads those files and never edits them. Every such attribute must exist, and
the positional count and keyword names of every call must bind to the
current signature, so that a change to the API fails here and not only in a
benchmark run. The tracer's targets are named by strings and are left out:
the tracer skips a function the program no longer has on purpose.

The stream workload's committed model must also still load and save to the
same bytes, so that a change to the checkpoint format fails here too.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from jumppipe import dataio

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _references():
    """(where, module, attribute, call or None) of every attribute of a
    jumppipe module that a bench file uses."""
    refs = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {alias.asname or alias.name:
                   importlib.import_module(f"jumppipe.{alias.name}")
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and node.module == "jumppipe"
                   for alias in node.names}
        calls = {id(node.func): node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                refs.append((f"{path.name}:{node.lineno} "
                             f"{node.value.id}.{node.attr}",
                             modules[node.value.id], node.attr,
                             calls.get(id(node))))
    return refs


REFERENCES = _references()


def test_bench_references_found():
    assert {where.split(":")[0] for where, *_ in REFERENCES} == {
        "make_stream_model.py", "workloads.py"}


@pytest.mark.parametrize("module, attr, call",
                         [ref[1:] for ref in REFERENCES],
                         ids=[ref[0] for ref in REFERENCES])
def test_reference_binds(module, attr, call):
    assert hasattr(module, attr), f"{module.__name__} has no {attr}"
    if call is None or any(isinstance(a, ast.Starred) for a in call.args) \
            or any(k.arg is None for k in call.keywords):
        return
    inspect.signature(getattr(module, attr)).bind(
        *call.args, **{k.arg: k.value for k in call.keywords})


def test_stream_model_loads_and_resaves_to_the_same_bytes(tmp_path):
    committed = BENCH / "stream_model.ckpt"
    weights = dataio.load_checkpoint(committed, expect="mstcn")
    dataio.save_checkpoint(weights, tmp_path / "resaved.ckpt")
    assert (tmp_path / "resaved.ckpt").read_bytes() == committed.read_bytes()
