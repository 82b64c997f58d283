"""The package's export list: ``__all__`` and the names ``__init__`` imports
must agree, and every listed name must resolve.  The engine table is the
single list of engines: each one supplies the per-variable step, and the
CLI offers exactly those engines plus the ``enum`` oracle.  The benchmark's
tracer patches library functions by name, so every name it lists must exist."""

import ast
import importlib.util
from pathlib import Path

import ctxve
from ctxve.cli import _build_parser


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


def test_every_engine_defines_the_per_variable_step():
    assert "eliminate" in vars(ctxve.Engine)
    for name, cls in ctxve.ENGINES.items():
        assert issubclass(cls, ctxve.Engine), name
        for method in ("begin", "step", "finish"):
            assert method in vars(cls), (name, method)
        assert "query" not in vars(cls), name


def test_query_functions_are_the_engines_answer():
    for name, cls in ctxve.ENGINES.items():
        assert getattr(ctxve, f"{name}_query") == cls.answer, name


def test_every_traced_name_resolves():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [name for name, owner, attr in tracer.TRACED if not hasattr(owner, attr)]
    assert tracer.TRACED and missing == []


def test_cli_engine_choices_are_the_engine_table_plus_enum():
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    (engine,) = [a for a in commands.choices["infer"]._actions if a.dest == "engine"]
    assert list(engine.choices) == [*ctxve.ENGINES, "enum"]
