"""Every name a geoilqr or test module imports is used in that module, and
every public top-level function or class of geoilqr has a user.

No linter ships with the project, so these stdlib ``ast`` passes stand in
for an unused-import check and a dead-code check. The package ``__init__``
is skipped as a module: its imports are the public re-exports.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "geoilqr"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used(tree: ast.AST) -> set:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    return sorted(_imported(tree) - _used(tree))


def _dead_code(sources: dict, kept: set) -> list[str]:
    """module.name of each public top-level function or class in sources
    (module -> source) that no module refers to and that kept does not
    name."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
        used |= _used(tree)
    return sorted(f"{m}.{name}" for m, name in defined
                  if name not in used | kept)


def _traced() -> set:
    """The function names perfbench's tracer looks up in geoilqr."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    traced = next(node.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TRACED"])
    return {name for names in ast.literal_eval(traced).values()
            for name in names}


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom a.b import c, d as e\n"
                           "import numpy as np\nnp.sum(c)\n") == ["e", "os"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_function():
    sources = {"a": "def used():\n    pass\n\ndef planted(x):\n    return x\n"
                    "\ndef _private():\n    pass\n\nclass Kept:\n    pass\n",
               "b": "from .a import used\n\ndef caller():\n    used()\n"}
    assert _dead_code(sources, {"Kept", "caller"}) == ["a.planted"]


def test_every_public_function_has_a_user():
    # a user: a geoilqr module, the package's re-exports, the benchmark's
    # tracer or the acceptance tests
    kept = (_imported(ast.parse((SRC / "__init__.py").read_text()))
            | _imported(ast.parse((ROOT / "tests" / "test_acceptance.py")
                                  .read_text()))
            | _traced())
    sources = {p.stem: p.read_text() for p in MODULES}
    assert _dead_code(sources, kept) == []
