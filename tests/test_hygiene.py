"""Static checks over the package sources, standing in for a linter.

Every imported name must be used.  Every module-level ``_private``
function, class or constant must be read somewhere in the package outside
its own definition, and so must every public one, unless the README,
``docs/`` or ``demos/`` name it; exporting a name in ``__all__`` does not
excuse it.  Code that only the tests read belongs with the tests.  The
same holds for every public method and property of a class that
``__all__`` exports: the package must read it outside its own definition,
or the documents name it.  An import statement
carrying ``# noqa: F401`` binds names on purpose, and a name that
``__init__`` lists in ``__all__`` is a re-export.  The modules form layers
(`LAYERS`): each imports only from layers below its own, and only at the
top of the module, never inside a function.  Each rule of the language
is worded once (`RULE_MESSAGES`), in `syntax.Rules`.  Importing the CLI
loads none of the slow stdlib modules that `dataclasses` brings in
(`HEAVY`), since every `cpl` process pays for its imports.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cplogic

PACKAGE = Path(cplogic.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))
ROOT = PACKAGE.parents[1]


# Each package module by layer, lowest first; ``__init__`` re-exports all.
LAYERS = {"syntax": 0, "threeval": 1, "theories": 1, "ground": 2, "engine": 3,
          "oracle": 4, "transform": 4, "cli": 5}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _variables_read(tree: ast.AST) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _attributes_read(tree: ast.AST) -> set:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _attribute_reads(*trees: ast.AST) -> list:
    """The name of every attribute that ``trees`` read, once per read."""
    return [node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)]


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


def _unread(public: bool) -> list:
    """``module: name`` for each private (or public) module-level function,
    class and assigned name that no statement of the package reads, other
    than the one that defines it."""
    found = []  # (module, names the statement defines, names it reads)
    for path in SOURCES:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            found.append((path.relative_to(PACKAGE), names,
                          _variables_read(node) | _attributes_read(node)))
    readers = Counter(name for _, _, reads in found for name in reads)
    return [f"{module}: {name}" for module, names, reads in found for name in names
            if not name.startswith("__") and name.startswith("_") != public
            and readers[name] == (name in reads)]


def test_every_private_module_name_is_referenced():
    dead = _unread(public=False)
    assert not dead, f"private names nothing refers to: {dead}"


def _documented() -> set:
    """Every word of the README, ``docs/`` and ``demos/``."""
    documents = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
                 *sorted((ROOT / "demos").glob("*.py"))]
    return set(re.findall(r"\w+", "\n".join(
        p.read_text(encoding="utf-8") for p in documents)))


def test_every_public_module_name_is_read_or_documented():
    named = _documented()
    unused = [entry for entry in _unread(public=True)
              if entry.split(": ")[1] not in named]
    assert not unused, f"public names only the tests can use: {unused}"


def test_every_public_method_of_an_exported_class_is_read_or_documented():
    exported = _exports(_tree(PACKAGE / "__init__.py"))
    trees = [_tree(path) for path in SOURCES]
    reads = Counter(_attribute_reads(*trees))
    named = _documented()
    unused = [f"{cls.name}.{node.name}"
              for tree in trees for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name in exported
              for node in cls.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and reads[node.name] == _attribute_reads(node).count(node.name)
              and node.name not in named]
    assert not unused, f"public methods only the tests can use: {unused}"


def _module(path: Path) -> str:
    """The package module that ``path`` holds, by its first part."""
    return path.relative_to(PACKAGE).with_suffix("").parts[0]


def _imported(node: ast.Import | ast.ImportFrom) -> list:
    """The package modules that an import statement imports from."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("cplogic.")]
    module = node.module or ""
    if not node.level:
        if module.split(".")[0] != "cplogic":
            return []
        module = module.partition(".")[2]
    return [module.split(".")[0]] if module else [a.name for a in node.names]


@pytest.mark.parametrize("path", [p for p in SOURCES if p != PACKAGE / "__init__.py"],
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_module_imports_only_from_the_layers_below_it(path):
    tree = _tree(path)
    layer = LAYERS[_module(path)]
    wrong = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if node not in tree.body:
                wrong.append(f"line {node.lineno}: an import inside a block")
            wrong.extend(f"line {node.lineno}: {target}" for target in _imported(node)
                         if LAYERS[target] >= layer)
    assert not wrong, f"{path.name} breaks the layering: {wrong}"


# A fragment of the message of each rule that `syntax.Rules` states.
RULE_MESSAGES = ("listed twice in domain", "a plain integer", "undeclared domain",
                 "bound twice", "used with arity", "undeclared constant",
                 "may not occur in a head", "appears in two disjuncts",
                 "is not in (0, 1]", "head probabilities sum to")


def _strings(tree: ast.AST) -> list:
    """Every string constant in ``tree``, the parts of f-strings included
    and docstrings excluded."""
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    return [node for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and id(node) not in docstrings]


def _worded_once(fragment: str):
    sites = [f"{path.relative_to(PACKAGE)}:{node.lineno}" for path in SOURCES
             for node in _strings(_tree(path)) if fragment in node.value]
    assert len(sites) == 1, f"{fragment!r} is worded at {sites or 'no site'}"


@pytest.mark.parametrize("fragment", RULE_MESSAGES)
def test_each_rule_of_the_language_is_worded_once(fragment):
    _worded_once(fragment)


def test_the_leaf_sum_check_is_worded_once():
    """`distribution` and the order sweep count mass over one ``M`` per
    program and check the sum in one place, `engine._thaw`."""
    _worded_once("leaf probabilities sum to")


# Standard modules that `import cplogic.cli` must not load: `dataclasses`
# and the modules it imports, which cost more than the package's own code.
HEAVY = {"dataclasses", "inspect", "ast", "dis"}


def test_importing_the_cli_loads_no_heavy_module():
    probe = ("import sys; bare = set(sys.modules); import cplogic.cli; "
             "print(*sorted(set(sys.modules) - bare))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    added = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "cplogic.cli" in added
    assert not HEAVY & set(added), f"import cplogic.cli loads {HEAVY & set(added)}"


def test_no_module_imports_dataclasses():
    sites = [f"{path.relative_to(PACKAGE)}:{node.lineno}" for path in SOURCES
             for node in ast.walk(_tree(path))
             if (isinstance(node, ast.Import) and any(
                 a.name.split(".")[0] == "dataclasses" for a in node.names))
             or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")]
    assert not sites, f"dataclasses imported at {sites}"
