"""Every name a library module imports is used in that module.

``__init__`` is exempt: it imports names to export them.  A name counts as
used when it appears as an identifier anywhere in the module, annotations
included.
"""

import ast
from pathlib import Path

import pytest

import ctxve

MODULES = sorted(p for p in Path(ctxve.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from .tables import Table, product\nimport numpy as np\nx: Table = np.ones(1)\n"
    assert unused_imports(source) == ["product (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
