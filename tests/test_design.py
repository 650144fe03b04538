"""Design checks on the package source.

The settable values of the package are its defaulted parameters (of
functions and lambdas, keyword-only ones included) and the annotated fields
of its dataclasses that carry a value.  Each is a knob someone may turn and
a reader has to know about, so their count is pinned: a change that adds or
removes one updates SETTABLE_VALUES and says why.
"""
import ast
from pathlib import Path

import stefanlab

SETTABLE_VALUES = 68
SRC = Path(stefanlab.__file__).parent


def settable_values(tree: ast.AST) -> int:
    """Defaulted parameters plus valued dataclass fields in tree."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                # @dataclass or @dataclass(...)
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in node.decorator_list):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         for stmt in node.body)
    return count


def test_settable_value_count_is_pinned():
    total = sum(settable_values(ast.parse(path.read_text(encoding="utf-8")))
                for path in sorted(SRC.glob("*.py")))
    assert total == SETTABLE_VALUES
