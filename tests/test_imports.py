"""Each ``codecal`` module uses every name it imports and binds every name it exports.

Package ``__init__.py`` files re-export names, so they are skipped by
the import check; a name listed in a module's ``__all__`` counts as
used.
"""

import ast
import importlib
from pathlib import Path

import pytest

import codecal

MODULES = sorted(
    path for path in Path(codecal.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in ``source`` that nothing reads."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_checker_finds_unused_names():
    source = (
        "import os\nimport numpy as np\nimport os.path\n"
        "from json import dumps, loads as parse\nfrom .errors import DataError\n"
        "__all__ = ['DataError']\nprint(np.pi, parse)\n"
    )
    assert unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "module",
    ["codecal", *(f"codecal.{path.stem}" for path in MODULES)],
)
def test_exports_resolve(module):
    """Every name in a module's ``__all__`` is bound in that module."""
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)] == []
