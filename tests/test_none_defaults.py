"""Every `None` default in `rasched` has a caller in `src/` that relies on
it: a default that every call there overrides is a path only tests take.
A call overrides a parameter when it passes it by keyword or by position;
one that unpacks `*args` or `**kwargs` is taken to pass whatever it could.
Calls are matched to definitions by name, and to a class's `__init__` by
the class name."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rasched"
#: (module, qualified name, parameter) -> why its default stays unused in `src/`
ALLOWED = {
    ("simplex", "solve_equality_feasibility", "artificial_rows"):
        "the benchmark wraps the function, and the tests use it as their referee",
}


def none_defaults(tree):
    """(qualified name, call name, parameter, position or None) of each
    parameter with a `None` default; the position counts the arguments a
    call spells out, so a method's `self` is not one, and keyword-only
    parameters have none."""
    out = []

    def visit(body, prefix, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                skip = 1 if cls and not static else 0
                defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
                called = cls if node.name == "__init__" else node.name
                params = [(arg, default, k - skip)
                          for k, (arg, default) in enumerate(zip(positional, defaults))]
                params += [(arg, default, None)
                           for arg, default in zip(args.kwonlyargs, args.kw_defaults)]
                for arg, default, position in params:
                    if isinstance(default, ast.Constant) and default.value is None:
                        out.append((prefix + node.name, called, arg.arg, position))
                visit(node.body, f"{prefix}{node.name}.", None)

    visit(tree.body, "", None)
    return out


def passes(call: ast.Call, param: str, position) -> bool:
    """Whether `call` passes `param`, by keyword or at `position`."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    if any(isinstance(arg, ast.Starred) for arg in call.args[:position + 1]):
        return True
    return len(call.args) > position


def overridden_defaults(sources: dict) -> list:
    """(module, qualified name, parameter) of each `None` default in
    `sources` (module -> source text) that every call in them passes."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    out = []
    for module, tree in sorted(trees.items()):
        for qualname, called, param, position in none_defaults(tree):
            if all(passes(call, param, position) for call in calls.get(called, [])):
                out.append((module, qualname, param))
    return out


def test_every_none_default_has_a_caller_that_relies_on_it():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert len(sources) > 10
    assert set(overridden_defaults(sources)) == set(ALLOWED)


def test_a_default_every_caller_overrides_is_caught():
    sources = {
        "a": ("class Box:\n    def __init__(self, size=None):\n        pass\n\n"
              "    def get(self, key, default=None, *, strict=None):\n"
              "        return key\n\n\n"
              "def build(name, parts=None):\n    return Box(3).get(name, 0, strict=True)\n"),
        "b": ("from .a import build\n\n\ndef one():\n    return build('x', [1])\n\n\n"
              "def two():\n    return build('y', parts=[2])\n"),
    }
    assert overridden_defaults(sources) == [
        ("a", "Box.__init__", "size"), ("a", "Box.get", "default"),
        ("a", "Box.get", "strict"), ("a", "build", "parts")]
    # calls that unpack their arguments count as passing them
    sources["b"] += "\n\ndef three(args):\n    return Box(**args).get(*args, **args), build(*args)\n"
    assert len(overridden_defaults(sources)) == 4
    sources["b"] += "\n\ndef four():\n    return build('z'), Box().get('k', strict=False)\n"
    assert overridden_defaults(sources) == [("a", "Box.get", "strict")]
