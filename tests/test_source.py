"""Source-level checks on the library modules."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qhammock"


def test_library_has_no_assert_statements():
    # asserts vanish under python -O; invariants raise InvariantViolation
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")), SRC
    assert not found, found
