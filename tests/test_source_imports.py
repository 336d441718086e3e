"""Every top-level import in the package's modules has a use: the module
reads the name, or re-exports it through ``__all__``.  No linter runs on
this repository, so a deletion that leaves an import behind fails here."""

import ast
from pathlib import Path

import pytest

import dafm

MODULES = sorted(Path(dafm.__file__).parent.glob("*.py"))


def _bound_names(node):
    for alias in node.names:
        # `import a.b` binds `a`; `from m import x as y` binds `y`
        yield alias.asname or alias.name.partition(".")[0]


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
            isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for name in _bound_names(node)
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - _exported(tree)) == []
