"""Every name a geoilqr module imports is used in that module.

No linter ships with the project, so this stdlib ``ast`` pass stands in for
an unused-import check. The package ``__init__`` is skipped: its imports are
the public re-exports.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "geoilqr"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom a.b import c, d as e\n"
                           "import numpy as np\nnp.sum(c)\n") == ["e", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []
