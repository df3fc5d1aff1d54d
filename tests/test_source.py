"""Source-level checks on the library modules."""

import ast
import importlib
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


def test_all_names_exist():
    # a deleted function must leave its module's __all__ too
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "qhammock" if path.stem == "__init__" else f"qhammock.{path.stem}"
        module = importlib.import_module(name)
        missing += [
            f"{name}.{entry}"
            for entry in getattr(module, "__all__", ())
            if not hasattr(module, entry)
        ]
    assert not missing, missing


def test_no_hand_written_cache():
    # every memo is a functools.lru_cache keyed by its own arguments, which
    # gives cache_clear() and cache_info(); no module keeps a *CACHE table
    found = []
    for path in sorted(SRC.glob("*.py")):
        name = "qhammock" if path.stem == "__init__" else f"qhammock.{path.stem}"
        found += [
            f"{name}.{entry}"
            for entry in vars(importlib.import_module(name))
            if entry.endswith("CACHE")
        ]
    assert not found, found
