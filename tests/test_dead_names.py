"""Every function and public method in discarr has a reader in the package.

A public name that nothing in src/discarr reads is library surface no
command, check or analysis needs, and a private helper that only tests read
is dead code; this test flags both.  The scan is purely syntactic: each
module except __init__.py is parsed with `ast`, every `Name` id and
`Attribute` attr read in a load context is collected, and each module-level
function, private or not, and each public method of a public class, must
appear in that set.  Definitions are not `Name` nodes and an assignment
such as `rank = ...` is a store, so a name counts only where something
reads it.

A second guard reads the calls in src/discarr the same way: every parameter
with a default, on any function, must be passed by some call to a function
of that name, by position or by keyword.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "discarr"


def modules():
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def definitions(tree):
    """(qualified name, bare name) of each module-level function and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def read_names(trees):
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_function_is_read_in_the_package():
    trees = modules()
    used = read_names(trees.values())
    dead = sorted(
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, bare in definitions(tree)
        if bare not in used
    )
    assert not dead, "no reader in src/discarr: " + ", ".join(dead)



# `cli.main(argv=None)` is the console script's entry point: the script
# calls it with no argument, and only tests pass argv
ENTRY_POINTS = {("cli", "main", "argv")}


def defaulted_parameters(tree):
    """(function, parameter, position) of each parameter with a default, on
    any function of the module.  The position counts what a call passes, so
    a method's `self` or `cls` is not counted; keyword-only parameters have
    position None."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            first = len(positional) - len(args.defaults)
            for i, name in enumerate(positional[first:], first):
                yield node.name, name, i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def passes(call, parameter, position):
    """Whether the call passes the parameter, by keyword or by position; a
    `*` or `**` argument counts as passing whatever it could reach."""
    if any(keyword.arg in (parameter, None) for keyword in call.keywords):
        return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return i <= position
    return len(call.args) > position


def test_every_default_is_passed_in_the_package():
    # a default that no call in src/discarr overrides is a knob that no
    # command, check or analysis turns: its value belongs in the body or in
    # a module constant
    trees = modules()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = sorted(
        f"{module}.{function}({parameter})"
        for module, tree in trees.items()
        for function, parameter, position in defaulted_parameters(tree)
        if (module, function, parameter) not in ENTRY_POINTS
        and not any(passes(call, parameter, position) for call in calls.get(function, ()))
    )
    assert not unpassed, "no call in src/discarr passes: " + ", ".join(unpassed)
