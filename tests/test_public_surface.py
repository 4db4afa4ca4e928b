"""The package reads no private name of another module.

A name with a leading underscore is a module's own business: a refactor may
rename or delete it without looking at other modules. Every module under
src/ is parsed, and two kinds of read are refused: `m._name` (an attribute
with a leading underscore, at any depth, of a name that an import bound)
and `from m import _name`. Dunder names such as `__file__` are not
private.
"""

import ast
from pathlib import Path

import cwflab

SRC = Path(cwflab.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_reads(tree: ast.AST) -> list:
    """(line, text) of each private name the module reads from another."""
    imported = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.add(bound)
                if isinstance(node, ast.ImportFrom) and _private(alias.name):
                    module = "." * node.level + (node.module or "")
                    found.append((node.lineno,
                                  f"from {module} import {alias.name}"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = [node.attr]
        root = node.value
        while isinstance(root, ast.Attribute):
            chain.append(root.attr)
            root = root.value
        if (isinstance(root, ast.Name) and root.id in imported
                and _private(node.attr)):
            found.append((node.lineno,
                          ".".join([root.id, *reversed(chain)])))
    return found


def test_guard_sees_both_kinds_of_read():
    tree = ast.parse("from .. import weakmeas\n"
                     "from ..polar import _pos_index, pos_index\n"
                     "import numpy as np\n"
                     "a = weakmeas._Cells(1)\n"
                     "b = np.random._philox\n"
                     "c = weakmeas.Cells(1)._rows\n"
                     "d = self._matrix\n"
                     "e = weakmeas.__name__\n")
    assert sorted(text for _, text in private_reads(tree)) == [
        "from ..polar import _pos_index", "np.random._philox",
        "weakmeas._Cells"]


def test_no_private_name_is_read_across_modules():
    reads = []
    for path in sorted(SRC.rglob("*.py")):
        for line, text in private_reads(ast.parse(path.read_text())):
            reads.append(f"{path.relative_to(SRC)}:{line}: {text}")
    assert reads == []
