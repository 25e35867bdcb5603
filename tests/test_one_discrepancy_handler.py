"""One handler reports every discrepancy.

A command that meets a mathematical discrepancy raises AssertionError (or a
subclass of it), and `cli.main` turns it into `discrepancy: <message>` and
exit code 2; the acceptance suite's `run_check` turns it into a FAIL row.
A second handler would give one failure two wordings, so this scan parses
every module of src/discarr with `ast` and allows an `except` clause that
catches AssertionError only in those two functions.
"""

import ast
import builtins
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "discarr"
ALLOWED = {("cli.py", "main"), ("acceptance.py", "run_check")}


def catching_names():
    """Names of the classes whose `except` catches an AssertionError: its
    bases among the builtins, and it with its subclasses in the package."""
    spaces = [vars(builtins)] + [
        vars(importlib.import_module(f"discarr.{path.stem}"))
        for path in SRC.glob("*.py")
        if path.stem != "__init__"
    ]
    return {
        name
        for space in spaces
        for name, obj in space.items()
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and (issubclass(obj, AssertionError) or issubclass(AssertionError, obj))
    }


def handlers(tree, function=None):
    """(enclosing function, handler) for every `except` clause in `tree`."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.ExceptHandler):
            yield function, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from handlers(child, inner)


def catches(handler, names) -> bool:
    if handler.type is None:  # a bare `except:`
        return True
    items = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any((x.attr if isinstance(x, ast.Attribute) else getattr(x, "id", None)) in names
               for x in items)


def test_assertion_error_is_caught_only_by_the_two_reporters():
    names = catching_names()
    found = {
        (path.name, function, handler.lineno)
        for path in sorted(SRC.glob("*.py"))
        for function, handler in handlers(ast.parse(path.read_text(), filename=str(path)))
        if catches(handler, names)
    }
    stray = sorted(f"{name}:{line} in {function}" for name, function, line in found
                   if (name, function) not in ALLOWED)
    assert not stray, "AssertionError handled outside cli.main and run_check: " + ", ".join(stray)
    # the scan sees the two reporters, so it cannot pass vacuously
    assert {(name, function) for name, function, _ in found} == ALLOWED
