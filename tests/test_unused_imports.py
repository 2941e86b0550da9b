"""No module of the package imports a name it never uses.

No linter runs on the package, so a name left imported after the code that
used it is gone stays unseen.  ``__init__.py`` imports names to export
them, and is not checked.  A name counts as used where the module reads it
as a bare name, annotations included.
"""

import ast
from pathlib import Path

import pytest

import weilc

MODULES = sorted(p for p in Path(weilc.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                # "import a.b" binds a
                imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from math import pi, tau\nimport os.path\nimport sys\nprint(tau, sys)\n"
    assert _unused_imports(source) == ["line 1: pi", "line 2: os"]
