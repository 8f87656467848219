"""Every definition in `src/neron` is reached from the package or exported.

A top-level function or class, a record made by a top-level
`Name = namedtuple(...)`, or a method of a top-level class, must be
named somewhere in `src/neron` (as a name, an attribute or an imported
name) or be in `neron.__all__`.  A definition that only tests reach
belongs with those tests.  Dunder methods run through Python's protocols,
and `_FileParser.build_*` is dispatched by `getattr`, so both are exempt.
"""

import ast
from pathlib import Path

import neron

SRC = Path(neron.__file__).resolve().parent


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _named(trees) -> set:
    """Every identifier used as a name, an attribute or an imported name.
    A name being assigned is not a use, so a record does not reach itself."""
    out = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
    return out


def _record(node) -> str | None:
    """The name a top-level `Name = namedtuple(...)` binds, else None."""
    if (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "namedtuple"):
        return node.targets[0].id
    return None


def _definitions(trees):
    """(file, qualified name, name) of each top-level function, class and
    namedtuple record and of each method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for file, tree in trees.items():
        for node in tree.body:
            record = _record(node)
            if record is not None:
                yield file, record, record
            if not isinstance(node, defs):
                continue
            yield file, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs):
                        yield file, f"{node.name}.{item.name}", item.name


def _exempt(qualified: str, name: str) -> bool:
    dunder = name.startswith("__") and name.endswith("__")
    return dunder or qualified.startswith("_FileParser.build_")


def test_every_definition_is_reached():
    trees = _trees()
    named = _named(trees) | set(neron.__all__)
    unreached = [f"{file}: {qualified}" for file, qualified, name in _definitions(trees)
                 if not _exempt(qualified, name) and name not in named]
    assert unreached == []


def test_the_scan_sees_the_package():
    # the guard is only as good as its walk: it must find the definitions
    # and the uses it reasons about
    trees = _trees()
    qualified = {q for _, q, _ in _definitions(trees)}
    assert {"Poly.in_ring", "_FileParser.build_rep", "saturate", "Report",
            "Stage", "TrivialityEntry"} <= qualified
    named = _named(trees)
    assert {"saturate_pi", "in_ring", "_lift_pullback"} <= named
    assert "build_rep" not in named  # reached only through getattr
    lone = {"lone.py": ast.parse('Rec = namedtuple("Rec", "a")')}
    assert list(_definitions(lone)) == [("lone.py", "Rec", "Rec")]
    assert "Rec" not in _named(lone)  # assigning a record does not use it
