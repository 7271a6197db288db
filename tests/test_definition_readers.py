"""Every function, class and method that `rasched` defines has a reader in
`src/`: code that only tests read moves into the tests, as their own
reference. A definition is read when its name appears in some module of the
package as a name or an attribute, or when the package root exports it;
Python itself reads the dunder methods."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rasched"
#: (module, qualified name) -> why it stays with no reader in `src/`
ALLOWED = {
    ("simplex", "solve_equality_feasibility"):
        "the benchmark wraps it to time the seed's simplex feasibility calls",
    ("certificate", "ConfigLPRun.dual_z"):
        "half of the config-LP ray, which tests verify and a report is to print",
    ("certificate", "ConfigLPRun.dual_y"):
        "half of the config-LP ray, which tests verify and a report is to print",
}


def definitions(tree):
    """The qualified names of a module's functions and classes and of
    their methods and nested classes."""
    out = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append(prefix + node.name)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")

    visit(tree.body, "")
    return out


def unread_definitions(sources: dict, exported: set) -> list:
    """(module, qualified name) of each definition in `sources` (module ->
    source text) whose name no module reads and `exported` does not hold."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set(exported)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    out = []
    for module, tree in sorted(trees.items()):
        for qualname in definitions(tree):
            name = qualname.rpartition(".")[2]
            if not (name.startswith("__") and name.endswith("__")) and name not in read:
                out.append((module, qualname))
    return out


def root_exports() -> set:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_definition_has_a_reader():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert len(sources) > 10
    assert set(unread_definitions(sources, root_exports())) == set(ALLOWED)


def test_a_definition_only_tests_read_is_caught():
    sources = {
        "a": ("class Kept:\n    def used(self):\n        pass\n\n"
              "    def unused(self):\n        pass\n\n    def __repr__(self):\n"
              "        return ''\n\n\ndef helper():\n    return Kept().used()\n"),
        "b": "from .a import helper\n\n\ndef exported():\n    return helper()\n",
    }
    assert unread_definitions(sources, {"exported"}) == [("a", "Kept.unused")]
