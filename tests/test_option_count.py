"""The settable values in `src/jumppipe` are pinned by name.

A settable value is a dataclass field with a default or a function parameter
with a default (nested functions and lambdas included). Each is a knob that a
caller may turn; one that only ever holds its default is a constant in
disguise. When an option is added or removed on purpose, change
`EXPECTED_OPTIONS` in the same change and say so in CHANGES.md; a failure
names each value added and removed.
"""

import ast
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
    "nncore:ConvKernel.dilation",
    "regression:GbtConfig.eta",
    "regression:GbtConfig.max_depth",
    "regression:GbtConfig.n_estimators",
    "regression:MlpRegConfig.hidden_layers",
    "regression:MlpRegConfig.max_iter",
    "regression:MlpRegConfig.seed",
    "regression:RfConfig.n_estimators",
    "regression:RfConfig.seed",
    "regression:fit_tree.features_per_split",
    "regression:fit_tree.max_depth",
    "regression:fit_tree.max_leaf_nodes",
    "regression:fit_tree.rng",
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
    "tcn:SsTcnConfig.kernel_size",
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
