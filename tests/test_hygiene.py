"""Static checks on the package source: every imported name is used,
every private module-level name is referenced somewhere, every public
module-level function, class and constant, every public method of a
module-level class and every field of a module-level dataclass is read
by the package or the benchmark (a reader's own module-level name is
not the package's name of the same spelling), every defaulted field
of such a dataclass is set by some construction or attribute store in
the package or the benchmark, every defaulted parameter of those
functions and methods is passed by some call in the package or the
benchmark, no parameter of theirs gets one and the same value from
every such call (each scan has an explicit allow-list), no class in
`tailmath` but the increment model defines `sample` and `walksim`
calls `.sample(` at one site only, the package's `__all__` lists
exactly what `__init__.py` imports, the package reads no environment
variable, and the benchmark's tracer finds every name it wraps."""

import ast
import importlib.util
import sys
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


def _top_level_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(kind, name) for each module-level function or class ("def") and
    each name that a module-level assignment binds ("constant")."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(("def", node.name))
        elif isinstance(node, ast.Assign):
            found += [("constant", t.id) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.append(("constant", node.target.id))
    return found


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and constants named _x (not __x__)."""
    return [n for _, n in _top_level_names(tree)
            if n.startswith("_") and not n.startswith("__")]


def _attributes_read(trees) -> set[str]:
    """Every attribute name the trees load."""
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _name_reads(trees: dict[str, ast.Module], readers=()):
    """is_read(module, name) for a module-level name of a module of
    `trees`: some tree of `trees` or `readers` loads it as an attribute,
    or loads it as a bare name and is its module or binds no
    module-level name of its own by that name.  A reader's own constant
    or function is not the package's name of the same spelling."""
    attributes = _attributes_read([*trees.values(), *readers])
    bare = [(mod, {n.id for n in ast.walk(tree)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)},
             {n for _, n in _top_level_names(tree)})
            for mod, tree in [*trees.items(), *((None, r) for r in readers)]]

    def is_read(module, name):
        return name in attributes or any(
            name in loads and (mod == module or name not in own)
            for mod, loads, own in bare)
    return is_read


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each private module-level name that no module of
    `sources` reads, as a bare name or as an attribute."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    is_read = _name_reads(trees)
    return [f"{mod}:{name}" for mod, tree in trees.items()
            for name in _private_definitions(tree) if not is_read(mod, name)]


def test_the_scan_sees_an_orphaned_private_name():
    sources = {"a": "_TOL = 1\n_used = 2\n__all__ = []\ndef _f():\n    return _used\n",
               "b": "import a\nclass _C:\n    pass\na._f()\n"}
    assert unreferenced_private_names(sources) == ["a:_TOL", "b:_C"]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert unreferenced_private_names(sources) == []


def _public_definitions(tree: ast.Module, kind: str = "def") -> list[str]:
    """Module-level functions and classes ("def") or constants
    ("constant") whose names do not start with _."""
    return [n for k, n in _top_level_names(tree)
            if k == kind and not n.startswith("_")]


def unread_public_names(sources: dict[str, str], readers: dict[str, str],
                        kind: str = "def") -> list[str]:
    """module:name for each public module-level function or class
    ("def") or constant ("constant") of `sources` that no module of
    `sources` or `readers` reads (`_name_reads`)."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    is_read = _name_reads(trees, [ast.parse(src) for src in readers.values()])
    return [f"{mod}:{name}" for mod, tree in trees.items()
            for name in _public_definitions(tree, kind) if not is_read(mod, name)]


# public names that neither the package nor the benchmark reads, each
# kept for the reason given
UNREAD_PUBLIC_ALLOWED = {
    "cli.py:classify": "click command, registered by its decorator",
    "cli.py:tails": "click command, registered by its decorator",
    "cli.py:simulate": "click command, registered by its decorator",
    "cli.py:verify": "click command, registered by its decorator",
    "cli.py:renewal": "click command, registered by its decorator",
    "serialize.py:read_cycles": "public reader of the cycles.bin format",
    "tailmath.py:renewal_integrated_tail_forms":
        "the tests' pointwise reference for the integrated-tail curves "
        "(ROADMAP direction 12)",
}


def test_the_scan_sees_an_unread_public_name():
    sources = {"a": "def f():\n    return g()\ndef g():\n    pass\n"
                    "class C:\n    pass\nclass D:\n    pass\ndef _h():\n    pass\n",
               "b": "from a import D\nD()\ndef main():\n    pass\n"}
    # the benchmark's own main is not b's
    readers = {"bench": "import a\na.C()\ndef main():\n    pass\nmain()\n"}
    assert unread_public_names(sources, readers) == ["a:f", "b:main"]


def test_every_public_name_is_read_or_allowed():
    sources = {p.name: p.read_text() for p in MODULES}
    readers = {p.name: p.read_text() for p in BENCH}
    defined = {f"{mod}:{name}" for mod, src in sources.items()
               for name in _public_definitions(ast.parse(src))}
    assert set(UNREAD_PUBLIC_ALLOWED) <= defined
    unread = unread_public_names(sources, readers)
    assert [n for n in unread if n not in UNREAD_PUBLIC_ALLOWED] == []


def test_the_scan_sees_an_unread_public_constant():
    sources = {"a": "TOL = 1\nMODEL = 'x'\nSEEN: int = 2\n_P = 3\n__all__ = []\n"
                    "def f():\n    return TOL\n",
               "b": "from a import SEEN\nLIMIT = SEEN\n"}
    # the benchmark binds and reads a MODEL of its own, which is not a's
    readers = {"bench": "import b\nMODEL = 'y'\nprint(MODEL, b.LIMIT)\n"}
    assert unread_public_names(sources, readers, "constant") == ["a:MODEL"]


def test_every_public_constant_is_read():
    sources = {p.name: p.read_text() for p in MODULES}
    readers = {p.name: p.read_text() for p in BENCH}
    assert unread_public_names(sources, readers, "constant") == []


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
    read = _attributes_read([*trees.values(), *map(ast.parse, readers.values())])
    return [f"{mod}:{name}" for mod, tree in trees.items()
            for name in _public_methods(tree) if name.split(".")[1] not in read]


# public methods that neither the package nor the benchmark reads, each
# kept for the reason given
UNREAD_METHOD_ALLOWED = {
    "tailmath.py:GridDistribution.from_point":
        "the tests' point-mass grid for the convolution checks (ROADMAP direction 7)",
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


def _dataclasses(tree: ast.Module) -> list[tuple[ast.ClassDef, list[ast.AnnAssign]]]:
    """Each module-level dataclass with the fields of its own body, in
    declaration order."""
    def dataclass(decorator):
        f = decorator.func if isinstance(decorator, ast.Call) else decorator
        return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "dataclass"

    return [(cls, [node for node in cls.body
                   if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                   and "ClassVar" not in ast.unparse(node.annotation)])
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and any(map(dataclass, cls.decorator_list))]


def _dataclass_fields(tree: ast.Module) -> list[str]:
    """Class.field for each field of a module-level dataclass."""
    return [f"{cls.name}.{node.target.id}" for cls, fields in _dataclasses(tree)
            for node in fields]


def unread_fields(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """module:Class.field for each field of a dataclass in `sources` that
    no module of `sources` or `readers` loads as an attribute; building a
    record with keyword arguments reads none of its fields."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = _attributes_read([*trees.values(), *map(ast.parse, readers.values())])
    return [f"{mod}:{name}" for mod, tree in trees.items()
            for name in _dataclass_fields(tree) if name.split(".")[1] not in read]


def test_the_scan_sees_an_unread_field():
    sources = {"a": "import dataclasses\nfrom dataclasses import dataclass\n"
                    "from typing import ClassVar\n"
                    "@dataclass(frozen=True)\nclass R:\n    kind: str\n"
                    "    value: float\n    label: str = ''\n    N: ClassVar[int] = 1\n"
                    "@dataclasses.dataclass\nclass S:\n    n: int\n"
                    "class P:\n    m: int\n"
                    "r = R(kind='x', value=1.0)\nr.value\n"}
    readers = {"bench": "import a\nkind = 'x'\nprint(kind)\na.S(n=2).n\n"}
    assert unread_fields(sources, readers) == ["a:R.kind", "a:R.label"]


def test_every_dataclass_field_is_read():
    sources = {p.name: p.read_text() for p in MODULES}
    readers = {p.name: p.read_text() for p in BENCH}
    assert unread_fields(sources, readers) == []


def _calls_by_name(trees) -> dict[str, list[ast.Call]]:
    """Every call of the trees, keyed by the called name or attribute."""
    calls = {}
    for tree in trees:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                f = call.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(call)
    return calls


def _forwards(call: ast.Call) -> bool:
    """Whether a call forwards *args or **kwargs."""
    return any(isinstance(a, ast.Starred) for a in call.args) \
        or any(k.arg is None for k in call.keywords)


def unset_fields(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """module:Class.field for each defaulted field of a dataclass in
    `sources` that no code of `sources` or `readers` sets.  A call of the
    class, by its name or as `cls` in one of its classmethods, sets the
    fields it passes by keyword or by position, and every field when it
    forwards *args or **kwargs; a `replace(...)` call sets the fields it
    names; an attribute store (`x.f = ...`, `x.f += ...`) sets f."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    every = [*trees.values(), *map(ast.parse, readers.values())]
    calls = _calls_by_name(every)
    stored = {node.attr for tree in every for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    replaced = {k.arg for call in calls.get("replace", ()) for k in call.keywords}
    unset = []
    for mod, tree in trees.items():
        for cls, fields in _dataclasses(tree):
            classmethods = [fn for fn in cls.body if isinstance(fn, ast.FunctionDef)
                            and any(isinstance(d, ast.Name) and d.id == "classmethod"
                                    for d in fn.decorator_list)]
            made = [*calls.get(cls.name, ()),
                    *_calls_by_name(classmethods).get("cls", ())]
            for pos, node in enumerate(fields):
                name = node.target.id
                if node.value is None or name in stored or name in replaced:
                    continue
                if not any(_forwards(c) or pos < len(c.args)
                           or name in {k.arg for k in c.keywords} for c in made):
                    unset.append(f"{mod}:{cls.name}.{name}")
    return unset


# defaulted dataclass fields that neither the package nor the benchmark
# sets, each kept for the reason given
UNSET_FIELD_ALLOWED = {
    "tailmath.py:Weibull.scale":
        "a grammar parameter: spec text sets it through `distspec._LAWS`",
}


def test_the_scan_sees_an_unset_field():
    sources = {"a": "from dataclasses import dataclass, field, replace\n"
                    "from typing import ClassVar\n"
                    "@dataclass\nclass R:\n    kind: str\n    n: int = 0\n"
                    "    label: str = ''\n    tags: list = field(default_factory=list)\n"
                    "    schema: str = 'v1'\n    total: float = 0.0\n"
                    "    N: ClassVar[int] = 1\n"
                    "    @classmethod\n    def make(cls):\n        return cls('x', 1)\n"
                    "@dataclass\nclass S:\n    m: int = 0\n"
                    "class P:\n    label: str = ''\n"
                    "r = replace(R.make(), label='y')\nr.total += 1.0\n"}
    # the benchmark passes R's tags and forwards keywords to S
    readers = {"bench": "import a\nkw = {}\na.S(**kw)\na.R('z', tags=[])\n"}
    assert unset_fields(sources, readers) == ["a:R.schema"]


def test_every_defaulted_field_is_set_or_allowed():
    sources = {p.name: p.read_text() for p in MODULES}
    readers = {p.name: p.read_text() for p in BENCH}
    defined = {f"{mod}:{name}" for mod, src in sources.items()
               for name in _dataclass_fields(ast.parse(src))}
    assert set(UNSET_FIELD_ALLOWED) <= defined
    unset = unset_fields(sources, readers)
    assert [n for n in unset if n not in UNSET_FIELD_ALLOWED] == []


def classes_defining(source: str, method: str) -> list[str]:
    """The module-level classes of `source` that define `method`."""
    return [cls.name for cls in ast.parse(source).body
            if isinstance(cls, ast.ClassDef)
            and any(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == method for node in cls.body)]


def test_the_scan_sees_a_second_sampler():
    source = ("class A:\n    def sample(self):\n        pass\n"
              "class B(A):\n    def draw(self):\n        pass\n"
              "class C(B):\n    async def sample(self):\n        pass\n")
    assert classes_defining(source, "sample") == ["A", "C"]


def test_only_the_model_defines_sample():
    # every law draws through the rules `_compile_tape` builds; a law
    # class with a sampler of its own would be a second implementation
    # of the stream contract
    source = (SRC / "tailmath.py").read_text()
    assert classes_defining(source, "sample") == ["IncrementModel"]


def sample_call_lines(source: str) -> list[int]:
    """The lines of `source` that call a `.sample(` method."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "sample")


def test_the_scan_sees_a_second_sample_call():
    source = ("def walk(model, gen, n):\n"
              "    s = model.sample(gen, n)\n"
              "    sample = model.sample\n"
              "    return s + [m.sample(gen, 1) for m in (model,)][0]\n")
    assert sample_call_lines(source) == [2, 4]


def test_walksim_has_one_stepper():
    # `_walk` draws every step of every kernel with one `model.sample`
    # call; a second call site would be a second stepper
    assert len(sample_call_lines((SRC / "walksim.py").read_text())) == 1


def _parameters(tree: ast.Module) -> list[tuple[str, str, int | None, ast.expr | None]]:
    """(name, parameter, position, default) for each parameter of a
    public module-level function or of a public method of a module-level
    class, but self, cls, *args and **kwargs.  A method's positions do
    not count self or cls, a keyword-only parameter has no position, and
    a parameter without a default has default None."""
    found = []

    def scan(fn, name, skip):
        a = fn.args
        positional = [*a.posonlyargs, *a.args]
        defaults = [None] * (len(positional) - len(a.defaults)) + a.defaults
        found.extend((name, arg.arg, i - skip, d)
                     for i, (arg, d) in enumerate(zip(positional, defaults))
                     if i >= skip)
        found.extend((name, arg.arg, None, d)
                     for arg, d in zip(a.kwonlyargs, a.kw_defaults))

    public = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, public) and not node.name.startswith("_"):
            scan(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, public) and not fn.name.startswith("_"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in fn.decorator_list)
                    scan(fn, f"{node.name}.{fn.name}", 0 if static else 1)
    return found


def _defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(name, parameter, position) for each defaulted parameter that
    `_parameters` lists."""
    return [(name, param, pos) for name, param, pos, d in _parameters(tree)
            if d is not None]


def unpassed_defaults(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """module:name(parameter) for each defaulted parameter of a public
    function or method of `sources` that no call in `sources` or
    `readers` passes, by keyword or by position.  Calls match by the
    called name, and a call that forwards *args or **kwargs passes
    every parameter."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    calls = _calls_by_name([*trees.values(), *map(ast.parse, readers.values())])
    return [f"{mod}:{name}({param})" for mod, tree in trees.items()
            for name, param, pos in _defaulted_parameters(tree)
            if not any(_forwards(c) or param in {k.arg for k in c.keywords}
                       or (pos is not None and pos < len(c.args))
                       for c in calls.get(name.split(".")[-1], ()))]


# defaulted parameters that neither the package nor the benchmark passes,
# each kept for the reason given
UNPASSED_DEFAULT_ALLOWED = {
    "verify.py:ladder_identity_report(p_override)":
        "ACCEPT-09's negative control, a deliberately wrong success probability",
    "classlab.py:majorant_check(xs)":
        "the light law's majorant test needs probes where no anchor exists "
        "(ROADMAP direction 7)",
}


def test_the_scan_sees_an_unpassed_default():
    sources = {"a": "def f(x, y=1, z=2, *, w=3):\n    pass\n"
                    "def g(x=1):\n    pass\n"
                    "class C:\n    def m(self, p=1, q=2):\n        pass\n"
                    "    def _n(self, r=1):\n        pass\n"
                    "def _h(s=1):\n    pass\n"
                    "f(0, 5)\nC().m(1)\n"}
    readers = {"bench": "import a\nkw = {}\na.g(**kw)\na.f(0, w=4)\n"}
    assert unpassed_defaults(sources, readers) == ["a:f(z)", "a:C.m(q)"]


def test_every_default_is_passed_or_allowed():
    sources = {p.name: p.read_text() for p in MODULES}
    readers = {p.name: p.read_text() for p in BENCH}
    defined = {f"{mod}:{name}({param})" for mod, src in sources.items()
               for name, param, _ in _defaulted_parameters(ast.parse(src))}
    assert set(UNPASSED_DEFAULT_ALLOWED) <= defined
    unpassed = unpassed_defaults(sources, readers)
    assert [n for n in unpassed if n not in UNPASSED_DEFAULT_ALLOWED] == []


def _module_constants(trees) -> dict[str, tuple]:
    """A value token for each module-level constant: its literal value,
    or its name when it is no literal.  A name that modules bind to
    different values is left out."""
    tokens = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                token = _literal(node.value) or ("constant", name)
                tokens.setdefault(name, set()).add(token)
    return {name: next(iter(t)) for name, t in tokens.items() if len(t) == 1}


def _literal(node) -> tuple | None:
    try:
        return ("literal", repr(ast.literal_eval(node)))
    except (ValueError, TypeError):
        return None


def _scoped_calls(tree: ast.Module) -> list[tuple[ast.Call, dict]]:
    """Every call with its scope: each parameter of an enclosing function
    that the function never rebinds maps to ("parameter", function,
    name), and every other name the function or a lambda binds maps to
    None, which hides a module constant of that name."""
    calls = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            bound = {n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            scope = {**scope, **dict.fromkeys(bound)}
            for p in filter(None, params):
                keep = not isinstance(node, ast.Lambda) and p.arg not in bound
                scope[p.arg] = ("parameter", node.name, p.arg) if keep else None
        elif isinstance(node, ast.Call):
            calls.append((node, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, {})
    return calls


def fixed_parameters(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """module:name(parameter) for each parameter of a public function or
    method of `sources` that every call in `sources` and `readers`
    passes the same value, and some call writes out.  A value is a
    literal or a module-level constant, written out or left to the
    default, or a parameter of the calling function that is itself
    fixed.  Calls match by the called name, and a call that forwards
    *args or **kwargs passes anything."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    every = [*trees.values(), *map(ast.parse, readers.values())]
    constants = _module_constants(every)
    by_name = {}
    for tree in every:
        for call, scope in _scoped_calls(tree):
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            by_name.setdefault(name, []).append((call, scope))

    def token(node, scope):
        if isinstance(node, ast.Name) and node.id in scope:
            return scope[node.id]
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return _literal(node) or constants.get(name)

    passed = {}
    for mod, tree in trees.items():
        for name, param, pos, default in _parameters(tree):
            tokens, explicit = [], False
            for call, scope in by_name.get(name.split(".")[-1], ()):
                if _forwards(call):
                    tokens.append(None)
                    continue
                arg = next((k.value for k in call.keywords if k.arg == param),
                           call.args[pos] if pos is not None and pos < len(call.args)
                           else None)
                explicit = explicit or arg is not None
                tokens.append(token(arg, scope) if arg is not None
                              else default and token(default, {}))
            if explicit:
                passed[f"{mod}:{name}({param})"] = (name.split(".")[-1], param, tokens)
    # a fixed parameter can fix the parameters its value is passed on to
    found = {}
    while True:
        fixed = dict(found.values())
        now = {}
        for key, (called, param, tokens) in passed.items():
            values = {fixed.get(t[1:]) if t and t[0] == "parameter" else t
                      for t in tokens}
            if len(values) == 1 and None not in values:
                now[key] = (called, param), values.pop()
        if now.keys() == found.keys():
            return list(now)
        found = now


# parameters that every call passes the same value, each kept for the
# reason given
FIXED_PARAMETER_ALLOWED = {
    "classlab.py:majorant_check(epsilon)":
        "only the benchmark calls it (ROADMAP direction 7)",
    "classlab.py:measure_equivalence_check(xs)":
        "only the benchmark calls it (ROADMAP direction 7)",
}


def test_the_scan_sees_a_fixed_parameter():
    sources = {"a": "K = 0.5\n"
                    "def f(x, tol=0.5, n=1):\n    pass\n"
                    "def g(y, t=2):\n    f(y, tol=K, n=t)\n"
                    "def h(z):\n    z = 3\n    g(z, t=3)\n"
                    "class C:\n    def m(self, p):\n        pass\n"
                    "def w(q, r):\n    pass\n"
                    "f(1, n=3)\ng(2, 3)\nC().m('s')\n"}
    readers = {"bench": "import a\nargs = ()\na.w(*args)\na.w(1, 2)\n"
                        "a.C().m('s')\n"}
    # tol: K and the default are both 0.5; n: g passes on its fixed t;
    # g(y): h rebinds z before passing it; w: a call forwards *args
    assert fixed_parameters(sources, readers) == [
        "a:f(tol)", "a:f(n)", "a:g(t)", "a:C.m(p)"]


def test_no_parameter_is_fixed_unless_allowed():
    sources = {p.name: p.read_text() for p in MODULES}
    readers = {p.name: p.read_text() for p in BENCH}
    defined = {f"{mod}:{name}({param})" for mod, src in sources.items()
               for name, param, _, _ in _parameters(ast.parse(src))}
    assert set(FIXED_PARAMETER_ALLOWED) <= defined
    fixed = fixed_parameters(sources, readers)
    assert [n for n in fixed if n not in FIXED_PARAMETER_ALLOWED] == []


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


_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """The key of each use of the process environment (`os.environ`,
    `os.getenv` and their bytes forms, also imported bare), in source
    order; a use whose key is no string literal, such as a loop over
    `os.environ`, reads as '?'."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}

    def literal(node):
        ok = isinstance(node, ast.Constant) and isinstance(node.value, str)
        return node.value if ok else "?"

    keys = []
    for node in ast.walk(tree):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        if name not in _ENV_NAMES:
            continue
        up = parent.get(node)
        if isinstance(up, ast.Subscript) and up.value is node:
            key = literal(up.slice)
        elif isinstance(up, ast.Call) and up.func is node and up.args:
            key = literal(up.args[0])
        elif (isinstance(up, ast.Attribute) and up.attr == "get"
              and isinstance(parent.get(up), ast.Call) and parent[up].args):
            key = literal(parent[up].args[0])
        else:
            key = "?"
        keys.append((node.lineno, node.col_offset, key))
    return [key for _, _, key in sorted(keys)]


def test_the_scan_sees_an_environment_read():
    source = ("import os\nfrom os import environ, getenv\n"
              "a = os.environ.get('HTWK_WORKERS')\nb = os.environ['HTWK_TAIL']\n"
              "c = os.getenv('X', '1')\nd = environ.get(name)\n"
              "e = dict(os.environ)\nf = getenv('Y')\n")
    assert environment_reads(source) == ["HTWK_WORKERS", "HTWK_TAIL", "X",
                                         "?", "?", "Y"]


def test_the_package_reads_no_environment_variable():
    # a tuning value belongs in code or in a documented option, never in
    # a hidden environment knob
    reads = {p.name: environment_reads(p.read_text()) for p in PACKAGE}
    assert reads == {p.name: [] for p in PACKAGE}


def _bindings() -> dict:
    """Every module-level binding of the loaded htwk modules and every
    class attribute of the classes they define, keyed by location."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name != "htwk" and not name.startswith("htwk."):
            continue
        for key, value in vars(mod).items():
            found[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                found.update(((name, key, attr), raw)
                             for attr, raw in vars(value).items())
    return found


def test_the_benchmark_tracer_wraps_and_restores_its_names(default_model):
    # the tracer looks each wrapped name up by getattr or a class's
    # __dict__, so removing or renaming one of them breaks install();
    # its quadrature hook reads the `.panels` and `.converged` of what
    # `stieltjes_vs_tail` returns on criterion_K's call path (once), of
    # what `improper_gl` returns on mu_plus's, and of what
    # `stieltjes_vs_monotone` and `stieltjes_vs_tail` return on
    # renewal_integrated_tail_forms's
    path = SRC.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    import htwk.cli  # noqa: F401  (install loads it; bind it before the snapshot)
    from htwk import distspec, tailmath

    def quad_spans():
        return sorted((span[0], span[4] > 0) for span in tracer.spans
                      if span[0].startswith("quad."))

    H = tailmath.RenewalMeasure.from_ratio(tailmath.truncated_neg_mean(default_model))
    before = _bindings()
    tracer = module.Tracer()
    try:
        tracer.install()
        during = _bindings()
        tailmath.criterion_K(default_model)
        criterion_spans = quad_spans()
        tailmath.mu_plus(default_model)
        tailmath.renewal_integrated_tail_forms(default_model, H, 10.0)
    finally:
        tracer.uninstall()
    assert criterion_spans == [("quad.stieltjes_vs_tail", True)]
    assert quad_spans() == [("quad.improper_gl", True), ("quad.stieltjes_vs_monotone", True),
                            ("quad.stieltjes_vs_tail", True), ("quad.stieltjes_vs_tail", True)]
    assert tracer.counters["quad.unconverged"] == 0
    assert during[("htwk.distspec", "spec_to_model")].__wrapped__ \
        is distspec.spec_to_model
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
