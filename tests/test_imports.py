from __future__ import annotations

import ast
from pathlib import Path

import padlver

SOURCES = Path(padlver.__file__).parent

# topology imports parallel without reading it: the benchmark's tracer
# test asserts that every module's name for parallel is the one wrapper.
KEPT = {("topology.py", "parallel")}


def unused_imports(tree: ast.Module) -> set[str]:
    """Names a module imports and never reads; a name listed in
    __all__ counts as read."""
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_no_module_imports_a_name_it_never_reads():
    found = {(path.name, name)
             for path in sorted(SOURCES.glob("*.py"))
             for name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == KEPT


def test_an_unread_import_is_found():
    tree = ast.parse("import os\nimport a.b\nfrom x import y as z, w\n"
                     "__all__ = ['w']\nos.sep\n")
    assert unused_imports(tree) == {"a", "z"}
