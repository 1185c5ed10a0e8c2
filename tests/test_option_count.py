"""The settable values in `src/jumppipe` are pinned by name.

A settable value is a dataclass field with a default or a function parameter
with a default (nested functions and lambdas included). Each is a knob that a
caller may turn; one that only ever holds its default is a constant in
disguise. When an option is added or removed on purpose, change
`EXPECTED_OPTIONS` in the same change and say so in CHANGES.md; a failure
names each value added and removed.
"""

import ast
from collections import Counter
from pathlib import Path

import jumppipe

EXPECTED_OPTIONS = [
    "dataio:ImuSession.labels",
    "dataio:SyntheticConfig.jumps_per_class",
    "dataio:SyntheticConfig.noise_std_g",
    "dataio:SyntheticConfig.num_subjects",
    "dataio:SyntheticConfig.seed",
    "dataio:SyntheticConfig.session_duration_s",
    "evaluation:precision_recall_f1.vocab",
    "evaluation:run_pipeline_eval.min_duration",
    "evaluation:run_pipeline_eval.progress",
    "evaluation:run_pipeline_eval.regressor_kind",
    "evaluation:run_pipeline_eval.threshold",
    "evaluation:run_pipeline_eval.width",
    "features:extract_feature_vector.vocab",
    "nncore:AdamState.first_moment",
    "nncore:AdamState.second_moment",
    "nncore:AdamState.step",
    "regression:MlpRegConfig.hidden_layers",
    "regression:MlpRegConfig.max_iter",
    "regression:MlpRegConfig.seed",
    "regression:RfConfig.n_estimators",
    "regression:RfConfig.seed",
    "segmentation:extract_segments.vocab",
    "segmentation:match_segments.threshold",
    "segmentation:min_duration_filter.min_len",
    "segmentation:select_roi.width",
    "tcn:MsTcnConfig.epochs",
    "tcn:MsTcnConfig.lr",
    "tcn:MsTcnConfig.num_stages",
    "tcn:MsTcnConfig.seed",
    "tcn:MsTcnConfig.stage",
    "tcn:SsTcnConfig.in_channels",
    "tcn:SsTcnConfig.num_classes",
    "tcn:SsTcnConfig.num_filters",
    "tcn:SsTcnConfig.num_layers",
]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else target.id
        if name == "dataclass":
            return True
    return False


def settable_values() -> list[str]:
    """`module:owner.name` of every settable value, in source order."""
    found = []
    for path in sorted(Path(jumppipe.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            owner = getattr(node, "name", "<lambda>")
            names = []
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                names = [st.target.id for st in node.body
                         if isinstance(st, ast.AnnAssign) and st.value]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                names = [a.arg for a in positional[len(positional)
                                                   - len(args.defaults):]]
                names += [a.arg for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults) if d]
            found += [f"{path.stem}:{owner}.{name}" for name in names]
    return found


def test_settable_value_count_is_pinned():
    found = sorted(settable_values())
    added = sorted(set(found) - set(EXPECTED_OPTIONS))
    removed = sorted(set(EXPECTED_OPTIONS) - set(found))
    assert found == EXPECTED_OPTIONS, (
        f"{len(found)} settable values, expected {len(EXPECTED_OPTIONS)}; "
        f"added: {added}, removed: {removed}")


# ------------------------------------------------------- every name has a caller

def _definitions(tree):
    """(name, node) of each top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _reads(node) -> Counter:
    """How often the code under `node` reads each name: as a variable, an
    attribute or an import."""
    reads = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            reads[n.id] += 1
        elif isinstance(n, ast.Attribute):
            reads[n.attr] += 1
        elif isinstance(n, ast.alias):
            reads[n.name] += 1
    return reads


def test_every_name_has_a_caller():
    """Each top-level name of `src/jumppipe` is read by the package itself
    (outside its own definition), by a `bench/*.py` attribute reference or
    by the acceptance tests. A name that only other tests read is test code
    and belongs in the tests."""
    from test_bench_api import _references
    tests = Path(__file__).resolve().parent
    outside = {attr for _, _, attr, _ in _references()}
    outside |= set(_reads(ast.parse(
        (tests / "test_acceptance.py").read_text())))
    trees = {path.stem: ast.parse(path.read_text()) for path in
             sorted(Path(jumppipe.__file__).parent.glob("*.py"))}
    package = sum(map(_reads, trees.values()), Counter())
    unread = [f"{stem}.{name}" for stem, tree in trees.items()
              for name, node in _definitions(tree)
              if name not in outside
              and package[name] - _reads(node)[name] <= 0]
    assert not unread, f"read only by tests, or by nothing: {unread}"
