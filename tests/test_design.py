"""Design checks on the package source.

The settable values of the package are its defaulted parameters (of
functions and lambdas, keyword-only ones included) and the annotated fields
of its dataclasses that carry a value.  Each is a knob someone may turn and
a reader has to know about, so their count is pinned: a change that adds or
removes one updates SETTABLE_VALUES and says why.

Every module of the package but __init__ and cli (the entry points) is
imported by another of its modules, so src holds only what a run reads:
test support lives under tests/.  __init__'s re-exports do not count as a
caller.
"""
import ast
from pathlib import Path

import stefanlab

SETTABLE_VALUES = 67
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


def imported_modules(tree: ast.AST) -> set:
    """Names under stefanlab that tree imports: its modules, and for
    `from stefanlab import name` the name, which may be one."""
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is the package's own
            module = ".".join(filter(None, ["stefanlab" if node.level else None,
                                            node.module]))
            dotted += [module, *(f"{module}.{a.name}" for a in node.names)]
    return {name.split(".")[1] for name in dotted if name.startswith("stefanlab.")}


def test_every_module_has_a_caller():
    modules = {path.stem: path for path in sorted(SRC.glob("*.py"))}
    called = set()
    for name, path in modules.items():
        if name != "__init__":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            called |= imported_modules(tree) - {name}
    uncalled = sorted(set(modules) - called - {"__init__", "cli"})
    assert not uncalled
