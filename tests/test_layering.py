"""The package's layering: which modules may reach native libraries."""

import ast
import os

import jointvec


def _imported_modules(path) -> set:
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_native_imports_ctypes():
    """Calls into OpenBLAS and libc live in jointvec.native, which the other modules import."""
    package = os.path.dirname(jointvec.__file__)
    importers = sorted(
        name for name in os.listdir(package)
        if name.endswith(".py") and "ctypes" in _imported_modules(os.path.join(package, name))
    )
    assert importers == ["native.py"]
