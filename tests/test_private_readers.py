"""Every module-level private function, class or constant in the package has
a reader in the package or in the benchmark harness.  A read is a name or
attribute load, an imported name, or a string equal to the name (the traced
run's probes name their bindings as strings); the definition does not count.
A deletion that leaves a private helper without a caller fails here."""

import ast
from pathlib import Path

import dafm

PACKAGE = Path(dafm.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
READERS = MODULES + sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_private_definition_has_a_reader():
    assert READERS != MODULES, "the benchmark harness was not found"
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in READERS}
    read = {name for tree in trees.values() for name in _read(tree)}
    defined = [(path.name, name) for path in MODULES for name in _defined(trees[path])
               if _is_private(name)]
    assert defined
    unread = [f"{module}: {name}" for module, name in defined if name not in read]
    assert not unread, f"private definitions without a reader: {', '.join(unread)}"
