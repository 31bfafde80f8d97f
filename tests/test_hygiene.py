"""Static checks on the package source: every imported name is used,
every private module-level name is referenced somewhere, and the
package's `__all__` lists exactly what `__init__.py` imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "htwk"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_sees_an_unused_name():
    assert unused_imports("import math\nfrom os import path, sep\nsep\n") == [
        "math", "path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and constants named _x (not __x__)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each private module-level name that no module of
    `sources` reads, as a bare name or as an attribute."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{mod}:{name}" for mod, tree in trees.items()
            for name in _private_definitions(tree) if name not in read]


def test_the_scan_sees_an_orphaned_private_name():
    sources = {"a": "_TOL = 1\n_used = 2\n__all__ = []\ndef _f():\n    return _used\n",
               "b": "import a\nclass _C:\n    pass\na._f()\n"}
    assert unreferenced_private_names(sources) == ["a:_TOL", "b:_C"]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert unreferenced_private_names(sources) == []


def export_problems(source: str) -> list[str]:
    """What is wrong with a package `__init__`'s `__all__`: duplicates,
    names the module does not define, and imported names it leaves out."""
    tree = ast.parse(source)
    imported, defined, exported = [], set(), []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name) and t.id == "__all__":
                    exported = [ast.literal_eval(e) for e in node.value.elts]
                elif isinstance(t, ast.Name):
                    defined.add(t.id)
    defined.update(imported)
    dups = sorted({n for n in exported if exported.count(n) > 1})
    return ([f"duplicate:{n}" for n in dups]
            + [f"undefined:{n}" for n in exported if n not in defined]
            + [f"unexported:{n}" for n in imported if n not in exported])


def test_the_scan_sees_a_stale_export_list():
    source = ("from .a import f, g, h\n__version__ = '1'\n"
              "__all__ = ['f', 'g', 'f', 'gone', '__version__']\n")
    assert export_problems(source) == ["duplicate:f", "undefined:gone",
                                       "unexported:h"]


def test_package_exports_match_its_imports():
    assert export_problems((SRC / "__init__.py").read_text()) == []
