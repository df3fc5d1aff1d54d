"""Source-level checks on the library modules."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from qhammock import build_quiver
from qhammock.cluster import Seed, initial_seed
from qhammock.laurent import LaurentPoly

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qhammock"


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


def test_library_imports_no_fractions():
    # the package computes in integers only; Fraction lives in the test referees
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
    ]
    assert not found, found


def test_one_division_loop():
    # integer division lives in the Laurent ring: the cluster layer divides
    # through its row kernel and never carries a long division of its own
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "laurent.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "divmod"
    ]
    assert not found, found


def _callers(tree: ast.AST, names: set[str]) -> set[str]:
    """The scopes (Class.function, or "<module>") that call one of names,
    directly or through an attribute of it (names.x(...))."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func.value if isinstance(child.func, ast.Attribute) else child.func
                if isinstance(f, ast.Name) and f.id in names:
                    found.add(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return found


def _functions(path: Path) -> dict[str, ast.FunctionDef]:
    """The module-level functions of a library file, by name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}


def _attributes_read(fn: ast.FunctionDef) -> set[str]:
    return {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}


def test_round_trip_reads_exponents_by_slot():
    # Y[β]'s function is written from the b-vector and read back by slot:
    # only _exponent_rows reads a function's generators for the dominant
    # readers, and neither direction looks a height up or runs the tensor
    # pass
    path = SRC / "objects.py"
    fns = _functions(path)
    readers = {"root_of_dominant", "factor_dominant"}
    assert _callers(ast.parse(path.read_text()), {"_exponent_rows"}) == readers
    for name in readers:
        assert not _attributes_read(fns[name]) & {"fun", "gens", "deltas"}, name
    for name in ("_exponent_rows", "leading_object"):
        assert "ht" not in _attributes_read(fns[name]), name
    assert not _callers(fns["leading_object"], {"_tensor_powers", "_scaled_sum"})


def test_seeds_hold_each_entry_once():
    # a seed keeps its entries only as exponent rows: the census builds a
    # LaurentPoly for the variables it returns, and Seed.cluster converts
    # on each read, a read-only view like the rows
    assert tuple(f.name for f in dataclasses.fields(Seed)) == ("vertices", "matrix", "rows")
    path = SRC / "cluster.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    makers = _callers(tree, {"_poly_from_rows", "LaurentPoly"})
    assert makers == {"Seed.cluster", "enumerate_cluster_variables"}, makers
    seed = initial_seed(build_quiver("A", 2, [(1, 2)]))
    with pytest.raises(TypeError):
        seed.cluster[(1, 0)] = LaurentPoly.one()
    with pytest.raises(AttributeError):
        seed.cluster = {}


def test_rows_are_packed_only_in_the_laurent_ring():
    # an exponent row is one int whose fields only laurent.py writes and
    # reads: no other module shifts bits, converts ints to bytes or
    # imports struct, and the division takes its leading row from a heap;
    # the graded-lex scan that picked it before is gone
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "laurent.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.LShift, ast.RShift)):
                found.append(f"{path.name}:{node.lineno} shift")
            elif isinstance(node, ast.Attribute) and node.attr in {"to_bytes", "from_bytes"}:
                found.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.Import) and any(a.name in {"struct", "heapq"} for a in node.names):
                found.append(f"{path.name}:{node.lineno} import")
            elif isinstance(node, ast.ImportFrom) and node.module in {"struct", "heapq"}:
                found.append(f"{path.name}:{node.lineno} import")
    assert not found, found
    fns = _functions(SRC / "laurent.py")
    assert "_lead" not in fns
    called = {n.func.id for n in ast.walk(fns["_div_rows"]) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert {"heapify", "heappop", "heappush"} <= called, called


def test_library_imports_only_what_it_uses():
    # an import nothing reads is dead code; __init__ re-exports, so it is
    # exempt, and a name in a module's __all__ counts as used
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(vars(importlib.import_module(f"qhammock.{path.stem}")).get("__all__", ()))
        found += [
            f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used
        ]
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


# public names that nothing in the repository reads yet, with the reason each stays
_UNREAD_PUBLIC = {
    "complexes.tensor_complex": "ROADMAP item 1 builds C[γ] of a decomposable γ as the tensor of its factors' complexes",
    "qchar.nakajima_leq": "the public dominance order that extremal_monomials decides",
}


def _identifiers_read(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    }


def test_every_public_name_is_read():
    # a public name read only by its own unit tests is a second spelling of
    # a value: each must be read, as an identifier and not in a docstring,
    # by the library, the gate, a test referee, the benchmark or a demo
    tests = ROOT / "tests"
    readers = [
        *SRC.glob("*.py"),
        tests / "test_acceptance.py",
        *tests.glob("*_oracle.py"),
        ROOT / "perfbench" / "workloads.py",
        *(ROOT / "demos").glob("*.py"),
    ]
    read = set().union(*map(_identifiers_read, readers))
    unread = {
        f"{stem}.{name}"
        for stem in ("laurent", "objects", "complexes", "hammock", "qchar")
        for name in importlib.import_module(f"qhammock.{stem}").__all__
        if name not in read
    }
    assert unread == set(_UNREAD_PUBLIC), sorted(unread ^ set(_UNREAD_PUBLIC))


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


_COUNTS = ("zero one two three four five six seven eight nine ten eleven twelve").split()


def _lru_caches() -> set[str]:
    """module.function for every function decorated with lru_cache."""
    return {
        f"{path.stem}.{fn.name}"
        for path in sorted(SRC.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, ast.FunctionDef)
        for dec in fn.decorator_list
        if "lru_cache" in ast.unparse(dec)
    }


def test_readme_names_every_cache():
    # README's cache paragraph names each lru_cache as `module.function`,
    # names no other, and counts them in words
    readme = (ROOT / "README.md").read_text()
    paragraph = readme[readme.index("- Per-process caches") :].split("\n\n")[0]
    modules = {path.stem for path in SRC.glob("*.py")}
    named = {
        name
        for name in re.findall(r"`([A-Za-z_]\w*\.[A-Za-z_]\w*)`", paragraph)
        if name.split(".")[0] in modules
    }
    caches = _lru_caches()
    assert len(caches) >= 7, caches
    assert named == caches, (sorted(named - caches), sorted(caches - named))
    assert f"all {_COUNTS[len(caches)]} are" in " ".join(paragraph.split()), len(caches)


def test_complexes_spell_no_variable_key():
    # a class in Y(i, p) and f_i is spelled only in objects (_section_class
    # and its neighbours): complexes reads head classes, never builds keys
    path = SRC / "complexes.py"
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Tuple) and node.elts
        and isinstance(node.elts[0], ast.Constant) and node.elts[0].value in ("Y", "f")
    ]
    assert not found, found


def test_complexes_multiply_classes_as_ints():
    # a summand class is one int of its height's packing, so the complex
    # layer multiplies and divides classes with + and −: it imports
    # neither monomial product
    path = SRC / "complexes.py"
    imported = {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"mono_mul", "mono_div"}, imported


def _object_dunder(call: ast.Call, name: str) -> str | None:
    """For a call C.<name>(x, ...), the class C, or for object.<name>(x, ...)
    the name x ("?" when x is not a plain name); None for other calls."""
    f = call.func
    if not (isinstance(f, ast.Attribute) and f.attr == name and isinstance(f.value, ast.Name)):
        return None
    if f.value.id != "object":
        return f.value.id
    return call.args[0].id if call.args and isinstance(call.args[0], ast.Name) else "?"


def test_trusted_constructors_stay_in_one_place():
    # Obj and QFun skip their checks only in objects._obj and hammock._qfun:
    # no other function makes one with __new__, and object.__setattr__ sets
    # only `self` in a class's own method (in Obj and QFun, only __init__,
    # and Obj.__getattr__'s one-time fill of a product's mult) or an
    # instance that the same function made with __new__
    guarded, trusted = {"Obj", "QFun"}, {"objects._obj", "hammock._qfun"}
    found, makers = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {
            fn: cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            where = f"{path.stem}.{fn.name}"
            made = {
                t.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and _object_dunder(node.value, "__new__")
                for t in node.targets
                if isinstance(t, ast.Name)
            }
            for call in (node for node in ast.walk(fn) if isinstance(node, ast.Call)):
                if _object_dunder(call, "__new__") in guarded:
                    makers.add(where)
                    if where not in trusted:
                        found.append(f"{where}:{call.lineno} calls __new__")
                target = _object_dunder(call, "__setattr__")
                if target is None or target in made:
                    continue
                own = fn in owner and (owner[fn] not in guarded or fn.name == "__init__")
                fill = (owner.get(fn), fn.name) == ("Obj", "__getattr__") and [
                    a.value for a in call.args[1:2] if isinstance(a, ast.Constant)
                ] == ["mult"]
                if not (target == "self" and (own or fill)):
                    found.append(f"{where}:{call.lineno} sets attributes on {target}")
    assert makers == trusted, makers
    assert not found, found
