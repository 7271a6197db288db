"""No rasched module imports a name it never uses: a class or helper that
goes must take its imports with it. The package root re-exports, so it is
not checked; `seed` keeps `solve_equality_feasibility` as the benchmark's
wrap point for the simplex feasibility calls."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rasched"
#: (module, name) imported for another module to reach it there
ALLOWED = {("seed", "solve_equality_feasibility")}


def unused_imports(source: str) -> list:
    """The names that `source`'s import statements bind and nothing reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "annotations" and isinstance(node, ast.ImportFrom) \
                        and node.module == "__future__":
                    continue
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.stem != "__init__")
    assert len(modules) > 10
    unused = {(p.stem, name) for p in modules for name in unused_imports(p.read_text())}
    assert unused == ALLOWED


def test_an_import_left_behind_is_caught():
    source = ("from __future__ import annotations\n"
              "import enum\nfrom dataclasses import dataclass, field\n"
              "from . import seed\n\n"
              "class A(enum.Enum):\n    x: int = field()\n")
    assert unused_imports(source) == ["dataclass", "seed"]
