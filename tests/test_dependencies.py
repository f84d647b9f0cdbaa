"""The package imports only the standard library and numpy; scipy,
hypothesis and pytest are test dependencies and stay in the tests."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "plantedcycles"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(source: str) -> set[str]:
    """Top-level names of the modules `source` imports; relative imports
    stay inside the package and are left out."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_stdlib_and_numpy():
    # the reader finds imports nested in functions and skips relative ones
    source = ("import os.path\nfrom numpy import random\nfrom . import trails\n"
              "def f():\n    import scipy.stats\n")
    assert absolute_imports(source) == {"os", "numpy", "scipy"}
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 1
    foreign = {p.name: sorted(absolute_imports(p.read_text()) - ALLOWED) for p in files}
    assert {name: mods for name, mods in foreign.items() if mods} == {}
