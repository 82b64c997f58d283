"""The package's export list: ``__all__`` and the names ``__init__`` imports
must agree, and every listed name must resolve."""

import ast
from pathlib import Path

import ctxve


def imported_names() -> set[str]:
    tree = ast.parse(Path(ctxve.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_listed_name_resolves():
    missing = [name for name in ctxve.__all__ if not hasattr(ctxve, name)]
    assert missing == []


def test_every_import_is_listed():
    unlisted = imported_names() - set(ctxve.__all__)
    assert sorted(unlisted) == []
