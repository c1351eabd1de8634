"""Every name a library module imports is used in that module, and every
private name a module or class defines is used somewhere in the library.

``__init__.py`` is skipped by the import check: its imports are the
package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ergopress"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items()
              if name not in used}
    assert unused == {}, f"{path.name}: imported but unused (name: line)"


def _private_definitions(tree):
    """(name, line, level) of the private names bound at module level
    and at class level."""
    bodies = [(tree.body, "module")] + [
        (node.body, "class") for node in tree.body
        if isinstance(node, ast.ClassDef)]
    for body, level in bodies:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield name, node.lineno, level


def test_private_names_are_used():
    """A module-level name counts as used where it is read or imported by
    name, a class-level one where it is read as an attribute, anywhere in
    the library; a helper left behind by a deletion fails this."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = {"module": set(), "class": set()}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used["module"].add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used["module"].update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                used["class"].add(node.attr)
    unused = [f"{module}:{line} {name}" for module, tree in trees.items()
              for name, line, level in _private_definitions(tree)
              if name not in used[level]]
    assert unused == [], "private names defined but never used"
