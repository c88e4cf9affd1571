"""No module-level name of the library goes unread.

Each ``src/sigmak`` module is parsed with ``ast``.  A module-level ``def``,
``class`` or assignment must be read somewhere in the package, and a read
names the module it reads from: a bare ``ast.Name`` in a load context reads
the module that defines it, or the one it was imported from by a
``from .module import name``, which counts as a read itself; ``alias.name``
reads the module ``alias`` stands for, where that is a package module
(``from . import doubledouble as dd``), and nothing otherwise.  So a local
variable or an attribute of some other object that happens to share a
module-level name does not keep it alive.  A helper whose last caller was
deleted then fails Tier-1 instead of lingering.

Private names (one leading underscore) have no other reader.  A public name
may also be in ``sigmak.__all__`` (``__init__.py`` imports each of those, so
they count as read) or be on ``OUTSIDE_READERS``, which names the reader
outside the package that keeps it.  That list is exact: a name that gains a
reader in the package, or is deleted, must leave it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sigmak"
FILES = sorted(PACKAGE.glob("*.py"))

OUTSIDE_READERS = {
    "symbolic.sym_sigma_k": "perfbench's certify workload",
    "errors.CapabilityError": "perfbench's workloads import it",
}


def _defined(tree: ast.Module, private: bool):
    """(name, line) for each private, or each public, name that a
    module-level statement binds; dunder names are neither."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name[:2] != "__" and (name[:1] == "_") == private:
                yield name, node.lineno


def _reads(module: str, tree: ast.Module, modules: set[str]) -> set[tuple[str, str]]:
    """(module, name) for each read of a module-level name in the tree of
    `module`; `modules` are the modules of the package."""
    aliases = {}  # local name -> the package module it stands for
    imported = {}  # local name -> (module, name) it was imported as
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            source = (node.module or "").split(".")[-1]
            for alias in node.names:
                local = alias.asname or alias.name
                if source in modules:
                    reads.add((source, alias.name))
                    imported[local] = (source, alias.name)
                elif alias.name in modules:  # from . import module
                    aliases[local] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(imported.get(node.id, (module, node.id)))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                reads.add((aliases[node.value.id], node.attr))
    return reads


def _unread(paths, path: Path, private: bool):
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}
    modules = {p.stem for p in paths}
    read = set().union(*(_reads(p.stem, tree, modules) for p, tree in trees.items()))
    return [
        (name, line) for name, line in _defined(trees[path], private)
        if (path.stem, name) not in read
    ]


def dead_private_names(paths, path: Path) -> list[str]:
    """The private names defined at the top of `path` that no file of `paths` reads."""
    return [f"{name} (line {line})" for name, line in _unread(paths, path, private=True)]


def dead_public_names(paths, path: Path) -> set[str]:
    """The public names defined at the top of `path` that no file of `paths`
    reads, as ``module.name``."""
    return {f"{path.stem}.{name}" for name, _ in _unread(paths, path, private=False)}


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_no_dead_private_names(path):
    assert dead_private_names(FILES, path) == []


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_no_dead_public_names(path):
    listed = {name for name in OUTSIDE_READERS if name.split(".")[0] == path.stem}
    assert dead_public_names(FILES, path) == listed


def test_the_scan_sees_a_dead_private_name(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text(
        "_LIMIT = 3\n_a, _b = 1, 2\n__all__ = []\n"
        "def _used():\n    return _a\n"
        "class _Dead:\n    pass\n"
    )
    user.write_text("import lib\nprint(lib._used(), lib._LIMIT)\n")
    assert dead_private_names([lib, user], lib) == ["_b (line 2)", "_Dead (line 6)"]


def test_the_scan_sees_a_dead_public_name(tmp_path):
    lib, init, user = tmp_path / "lib.py", tmp_path / "__init__.py", tmp_path / "user.py"
    lib.write_text(
        "LIMIT = 3\n__version__ = '1'\n_private = 0\n"
        "def used():\n    return LIMIT\n"
        "def exported():\n    pass\n"
        "def dead():\n    pass\n"
        "class Dead:\n    pass\n"
    )
    init.write_text("from .lib import exported\n__all__ = ['exported']\n")
    user.write_text("from . import lib\nprint(lib.used())\n")
    assert dead_public_names([lib, init, user], lib) == {"lib.dead", "lib.Dead"}


def test_a_read_names_its_module(tmp_path):
    # a local variable, a parameter or another object's attribute that
    # shares a name with lib's function does not read it
    lib, other = tmp_path / "lib.py", tmp_path / "other.py"
    lib.write_text(
        "def neg(x):\n    return -x\n"
        "def helper():\n    pass\n"
        "def dotted():\n    pass\n"
        "def imported():\n    pass\n"
        "def local():\n    return 1\n"
        "VALUE = local()\n"
    )
    other.write_text(
        "from . import lib as ops\nfrom .lib import imported as renamed\n"
        "def neg_all(obj, neg, VALUE):\n"
        "    return obj.helper(), ops.dotted(), renamed(), neg, VALUE\n"
    )
    assert dead_public_names([lib, other], lib) == {"lib.neg", "lib.helper", "lib.VALUE"}
