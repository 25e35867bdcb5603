"""No `assert` statement in src/discarr.

`python -O` strips assert statements, so a check written as one would
silently stop checking.  The package raises AssertionError explicitly
instead (`relations` on an OTHER flat, the cross-checks,
`acceptance._require`); this scan parses every module with `ast` and flags
any `Assert` node.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "discarr"


def test_no_assert_statement_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements vanish under python -O: " + ", ".join(found)
