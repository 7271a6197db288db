"""Every `module.name` that README.md names in backticks, with `module` a
rasched submodule (`seed.hall_bound`, `rasched.driver.solve`), must resolve:
a doc that names a deleted or renamed function fails here."""

import importlib
import pkgutil
import re
from pathlib import Path

import rasched

README = Path(__file__).resolve().parent.parent / "README.md"
SUBMODULES = {info.name for info in pkgutil.iter_modules(rasched.__path__)}
#: `module.name.attr...`, with an optional `rasched.` in front and anything
#: after the dotted name (a call's arguments) ignored
NAME = re.compile(r"(?:rasched\.)?([a-z_]+)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")


def readme_names():
    """(module, dotted attribute path) for every backticked name in README.md
    outside fenced code blocks whose module is a rasched submodule."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    names = []
    for span in re.findall(r"`([^`]+)`", text):
        match = NAME.match(span)
        if match and match.group(1) in SUBMODULES:
            names.append(match.groups())
    return names


def test_every_module_name_in_the_readme_resolves():
    names = readme_names()
    assert len(names) >= 4, names
    for module, path in names:
        owner = importlib.import_module(f"rasched.{module}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"README names {module}.{path}, which is gone"
            owner = getattr(owner, attr)
