"""Static checks on the package source: every imported name is used,
every private module-level name is referenced somewhere, every public
module-level function and class and every public method of a
module-level class is read by the package or the benchmark (or is on
an explicit allow-list), and the package's `__all__` lists exactly
what `__init__.py` imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "htwk"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))
BENCH = sorted((SRC.parent.parent / "perfbench").glob("*.py"))


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


def _names_read(trees) -> set[str]:
    """Every name the trees read, as a bare name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each private module-level name that no module of
    `sources` reads, as a bare name or as an attribute."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = _names_read(trees.values())
    return [f"{mod}:{name}" for mod, tree in trees.items()
            for name in _private_definitions(tree) if name not in read]


def test_the_scan_sees_an_orphaned_private_name():
    sources = {"a": "_TOL = 1\n_used = 2\n__all__ = []\ndef _f():\n    return _used\n",
               "b": "import a\nclass _C:\n    pass\na._f()\n"}
    assert unreferenced_private_names(sources) == ["a:_TOL", "b:_C"]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert unreferenced_private_names(sources) == []


def _public_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions and classes whose names do not start with _."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def unread_public_names(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """module:name for each public module-level function or class of
    `sources` that no module of `sources` or `readers` reads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = _names_read([*trees.values(), *map(ast.parse, readers.values())])
    return [f"{mod}:{name}" for mod, tree in trees.items()
            for name in _public_definitions(tree) if name not in read]


# public names that neither the package nor the benchmark reads, each
# kept for the reason given
UNREAD_PUBLIC_ALLOWED = {
    "cli.py:classify": "click command, registered by its decorator",
    "cli.py:tails": "click command, registered by its decorator",
    "cli.py:simulate": "click command, registered by its decorator",
    "cli.py:verify": "click command, registered by its decorator",
    "cli.py:renewal": "click command, registered by its decorator",
    "distspec.py:parse_spec": "public reader of distribution expressions",
    "serialize.py:read_cycles": "public reader of the cycles.bin format",
    "tailmath.py:renewal_integrated_tail_forms":
        "the tests' pointwise reference for the integrated-tail curves",
}


def test_the_scan_sees_an_unread_public_name():
    sources = {"a": "def f():\n    return g()\ndef g():\n    pass\n"
                    "class C:\n    pass\nclass D:\n    pass\ndef _h():\n    pass\n",
               "b": "from a import D\nD()\ndef main():\n    pass\n"}
    readers = {"bench": "import a\na.C()\n"}
    assert unread_public_names(sources, readers) == ["a:f", "b:main"]


def test_every_public_name_is_read_or_allowed():
    sources = {p.name: p.read_text() for p in MODULES}
    readers = {p.name: p.read_text() for p in BENCH}
    defined = {f"{mod}:{name}" for mod, src in sources.items()
               for name in _public_definitions(ast.parse(src))}
    assert set(UNREAD_PUBLIC_ALLOWED) <= defined
    unread = unread_public_names(sources, readers)
    assert [n for n in unread if n not in UNREAD_PUBLIC_ALLOWED] == []


def _public_methods(tree: ast.Module) -> list[str]:
    """Class.method for each method not named _x of a module-level class."""
    return [f"{cls.name}.{node.name}" for cls in tree.body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def unread_public_methods(sources: dict[str, str],
                          readers: dict[str, str]) -> list[str]:
    """module:Class.method for each public method of a class in `sources`
    that no module of `sources` or `readers` reads as an attribute."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = {node.attr for tree in [*trees.values(), *map(ast.parse, readers.values())]
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [f"{mod}:{name}" for mod, tree in trees.items()
            for name in _public_methods(tree) if name.split(".")[1] not in read]


# public methods that neither the package nor the benchmark reads, each
# kept for the reason given
UNREAD_METHOD_ALLOWED = {
    "tailmath.py:GridDistribution.from_point":
        "the tests' point-mass grid for the convolution checks",
}


def test_the_scan_sees_an_unread_method():
    sources = {"a": "class C:\n    def f(self):\n        return self.g()\n"
                    "    def g(self):\n        pass\n    def h(self):\n        pass\n"
                    "    def _p(self):\n        pass\n"
                    "def h():\n    pass\nh()\n"}
    readers = {"bench": "import a\na.C().f()\n"}
    assert unread_public_methods(sources, readers) == ["a:C.h"]


def test_every_public_method_is_read_or_allowed():
    sources = {p.name: p.read_text() for p in MODULES}
    readers = {p.name: p.read_text() for p in BENCH}
    defined = {f"{mod}:{name}" for mod, src in sources.items()
               for name in _public_methods(ast.parse(src))}
    assert set(UNREAD_METHOD_ALLOWED) <= defined
    unread = unread_public_methods(sources, readers)
    assert [n for n in unread if n not in UNREAD_METHOD_ALLOWED] == []


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
