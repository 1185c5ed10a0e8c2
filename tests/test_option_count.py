"""The number of settable values in `src/jumppipe` is pinned.

A settable value is a dataclass field with a default or a function parameter
with a default (nested functions and lambdas included). Each is a knob that a
caller may turn; one that only ever holds its default is a constant in
disguise. When an option is added or removed on purpose, change
`EXPECTED_OPTIONS` in the same change and say so in CHANGES.md.
"""

import ast
from pathlib import Path

import jumppipe

EXPECTED_OPTIONS = 69


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
    found = settable_values()
    assert len(found) == EXPECTED_OPTIONS, (
        f"{len(found)} settable values, expected {EXPECTED_OPTIONS}:\n"
        + "\n".join(found))
