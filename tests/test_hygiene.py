"""Static checks over the package sources, standing in for a linter.

Every imported name must be used, and every module-level ``_private``
function, class or constant must be referenced somewhere in the package.
An import statement carrying ``# noqa: F401`` binds names on purpose, and
a name that ``__init__`` lists in ``__all__`` is a re-export.
"""

import ast
from pathlib import Path

import pytest

import cplogic

PACKAGE = Path(cplogic.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _variables_read(tree: ast.AST) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _attributes_read(tree: ast.AST) -> set:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _exports(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_the_checks_see_every_module():
    assert {p.name for p in SOURCES} >= {"cli.py", "engine.py", "ground.py",
                                         "oracle.py", "syntax.py", "__init__.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_imported_name_is_used(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    used = _variables_read(tree) | _exports(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"line {node.lineno}: {bound}")
    assert not unused, f"unused imports in {path.name}: {unused}"


def test_every_private_module_name_is_referenced():
    trees = {path: _tree(path) for path in SOURCES}
    referenced = set().union(*(_variables_read(t) | _attributes_read(t)
                               for t in trees.values()))
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{path.name}: {name}" for name in names
                     if name.startswith("_") and not name.startswith("__")
                     and name not in referenced]
    assert not dead, f"private names nothing refers to: {dead}"
