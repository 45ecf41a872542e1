"""Properties of the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "edgesat"


def test_no_assert_statements():
    # `python -O` strips assert statements; correctness checks must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")) and found == []


# Calls whose result is a mutable container.
MUTABLE_CALLS = {
    "dict", "list", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"
}
MUTABLE_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _modules() -> list[tuple[str, ast.Module]]:
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return [(path.stem, ast.parse(path.read_text())) for path in paths]


def _is_mutable(value: ast.expr | None, classes: set[str]) -> bool:
    """A mutable container, or an instance of a class defined in the package."""
    if isinstance(value, MUTABLE_NODES):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in MUTABLE_CALLS or name in classes
    return False


def test_the_cache_owner_is_the_only_module_level_state():
    # No module-global mutable state beyond the one cache owner: a
    # module-level container, an instance of one of the package's classes,
    # or a function memoised by functools (imported by name or reached as an
    # attribute), would carry answers from one graph to the next.
    modules = _modules()
    classes = {node.name for _, tree in modules for node in tree.body if isinstance(node, ast.ClassDef)}
    containers = []
    for name, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_mutable(node.value, classes):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                containers += [f"{name}.{ast.unparse(t)}" for t in targets]
    assert "_Cache" in classes and containers == ["matching._CACHE"]
    memoised = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in {"cache", "lru_cache"}
        or isinstance(node, ast.alias) and node.name in {"cache", "lru_cache"}
    ]
    assert memoised == []


def test_no_unused_imports():
    # Every name a module imports is read somewhere in it; a removal that
    # leaves its import behind fails here.  `__init__` imports to re-export.
    unused = []
    for name, tree in _modules():
        if name == "__init__":
            continue
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {alias}" for alias, line in imported.items() if alias not in used]
    assert unused == []
