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


# Public top-level names that no program module reads: the library API
# that only tests and library users reach.  A new name here is dead code
# unless the program starts reading it.
UNREAD = {"check_behavioral_conformity", "eval_formula", "pretty_print", "saturate",
          "shortest_trace"}


def public_names(tree: ast.Module) -> set[str]:
    """The public names a module defines at top level."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def read_names(tree: ast.Module) -> set[str]:
    """Names a module reads, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unread_public_names(trees: dict[str, ast.Module]) -> set[str]:
    """Public names of the modules that no module but __init__, whose
    re-exports are not reads, reads (its own module included)."""
    program = [tree for name, tree in trees.items() if name != "__init__.py"]
    return set().union(*map(public_names, program)) - set().union(*map(read_names, program))


def test_the_public_names_no_program_module_reads_are_pinned():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCES.glob("*.py"))}
    assert unread_public_names(trees) == UNREAD


def test_an_unread_public_name_is_found():
    trees = {
        "__init__.py": ast.parse("from .a import f, g, h\n__all__ = ['f', 'g', 'h']\n"),
        "a.py": ast.parse("X = 1\n_y = 2\ndef f():\n    return g()\ndef g():\n    pass\n"
                          "def h():\n    pass\nclass C:\n    pass\n"),
        "b.py": ast.parse("from . import a\ndef k():\n    return a.C, a.X\n"),
    }
    assert unread_public_names(trees) == {"f", "h", "k"}
