"""Every name a package module imports is used in that module.

No linter ships with the test environment, so this walks each module's
syntax tree instead.  ``__init__.py`` is left out: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "xrda"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for every import statement in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["line %d: %s" % (line, name) for name, line in imported_names(tree)
            if name not in used]


def test_the_walk_finds_an_unused_import():
    source = ("import numpy as np\nfrom scipy.sparse.linalg import svds\n"
              "import os.path\n\nprint(np.pi, os.sep)\n")
    assert unused_imports(source) == ["line 2: svds"]


def test_package_modules_are_all_found():
    assert "reference.py" in {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
