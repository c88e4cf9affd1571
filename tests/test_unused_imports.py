"""No module of the library or of the tests imports a name it never reads.

Each file is parsed with ``ast``; a module-level ``import`` or ``from ...
import`` binds names, and every name must appear as an ``ast.Name`` (a read,
an annotation) or as the root of an attribute chain somewhere in the file.
``from __future__`` imports are skipped, and so are the re-exports of
``__init__.py`` that it lists in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "sigmak").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _bound_names(tree: ast.Module):
    """(name, line) for each name that a module-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree: ast.Module) -> set[str]:
    """The strings of a module-level ``__all__ = (...)`` or ``[...]``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        read |= _exported(tree)
    return [f"{name} (line {line})" for name, line in _bound_names(tree) if name not in read]


@pytest.mark.parametrize("path", FILES, ids=[f"{p.parent.name}/{p.name}" for p in FILES])
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import json\nimport os.path\nfrom math import pi, tau as turn\n"
        "print(os.path.sep, turn)\n"
    )
    assert unused_imports(source) == ["json (line 2)", "pi (line 4)"]
