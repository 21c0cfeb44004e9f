"""Every module-level import in ``src/dualnum`` is used by its module.

A name counts as used where it is read anywhere in the module, in a
quoted annotation too.  ``from __future__ import annotations`` and the
names ``__init__`` lists in ``__all__`` are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dualnum"
MODULES = sorted(SRC.glob("*.py"))


def module_imports(tree: ast.Module):
    """``(name bound, line)`` for each import outside any def or class."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)
        elif isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def names_read(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "Callable[[Dual3], Dual3]"
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(expr)
                         if isinstance(n, ast.Name))
    return names


def exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            # the string entries; a starred one adds lazy names, no import
            return {e.value for e in node.value.elts
                    if isinstance(e, ast.Constant)}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = names_read(tree)
    if path.name == "__init__.py":
        used |= exported(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in module_imports(tree) if name not in used]
    assert not unused


def test_an_unused_import_is_found():
    tree = ast.parse("import math\nfrom .core import Dual3, _chain\n"
                     "def f(x: 'Dual3'):\n    return math.sin(x)\n")
    used = names_read(tree)
    assert [n for n, _ in module_imports(tree) if n not in used] == ["_chain"]
