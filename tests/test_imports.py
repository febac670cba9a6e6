"""Every module of the package reads each name it imports.

A name left imported after the code that read it is gone fails here,
with the standard library's ast alone.  __init__.py imports names to
re-export them and is exempt.
"""

import ast
import pathlib

import pytest

import spps

MODULES = sorted(p.name for p in pathlib.Path(spps.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names source imports and never reads, in import order; an
    `import a.b` binds a.  from __future__ imports are directives."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy.linalg\nimport math as m\n"
              "from .grid import Grid, _stencil as st, derivative\n"
              "def f(x: Grid):\n    return numpy.linalg.norm(x) + st(x)\n")
    assert unused_imports(source) == ["os", "m", "derivative"]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    source = (pathlib.Path(spps.__file__).parent / module).read_text()
    assert unused_imports(source) == []
