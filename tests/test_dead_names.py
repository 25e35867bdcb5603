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
