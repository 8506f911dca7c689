"""Every gcurv module uses each name it imports, and every private helper.

A name counts as used when it appears as a Python name anywhere in the
module (a call, an attribute base, an annotation, a default value).
``__init__.py`` is left out: its imports are the package's public names.
A module-level ``_private`` function counts as used when some gcurv module
names it (as a name, an attribute or an import) outside its own ``def``,
and a class of ``errors.py`` counts as used when another module names it.
Only ``graphs.memo`` and the functions in ``CACHE_KEEPERS`` name ``.cache``,
only the functions in ``RECURSIVE`` call themselves, and only ``reflective``
names ``reflection_generators``.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gcurv"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom .graphs import Graph, ball\nnp.zeros(ball)\n"
    assert unused_imports(source) == ["Graph", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def names_in(tree):
    """Every name, attribute and imported name under an ast node."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def unreferenced_helpers(sources):
    """Module-level _private functions that no statement but their own def names."""
    helpers = set()
    referenced = set()
    for source in sources:
        for stmt in ast.parse(source).body:
            names = names_in(stmt)
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_"):
                if not stmt.name.startswith("__"):
                    helpers.add(stmt.name)
                names.discard(stmt.name)
            referenced |= names
    return sorted(helpers - referenced)


def test_unreferenced_helpers_are_found():
    a = "def _used():\n    pass\n\ndef _dead(n):\n    return _dead(n - 1)\n"
    b = "from .a import _used\n"
    assert unreferenced_helpers([a, b]) == ["_dead"]


def test_every_private_helper_is_referenced():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert unreferenced_helpers(sources) == []


def unnamed_error_classes(errors_source, other_sources):
    """Classes of the errors module that no other module names."""
    classes = {stmt.name for stmt in ast.parse(errors_source).body
               if isinstance(stmt, ast.ClassDef)}
    named = set().union(*(names_in(ast.parse(source)) for source in other_sources))
    return sorted(classes - named)


def test_unnamed_error_classes_are_found():
    errors = "class Used(Exception):\n    pass\n\nclass Left(Used):\n    pass\n"
    other = "from .errors import Used\n"
    assert unnamed_error_classes(errors, [other]) == ["Left"]


def test_every_error_class_is_named_by_another_module():
    others = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))
              if p.name != "errors.py"]
    assert unnamed_error_classes((SRC / "errors.py").read_text(encoding="utf-8"), others) == []


# Besides graphs.memo, only these functions may read or write a graph's
# .cache: Graph.__init__ makes the memo space, and the others keep values
# that are not one call's result (the pair orbit records and their carried
# pairs, the registry of proven reflections).
CACHE_KEEPERS = {
    "graphs.Graph.__init__", "graphs.memo",
    "ollivier._pair_curvature", "reflective.orbit_roots",
    "reflective._search", "reflective.reflection_generators",
}


def cache_touchers(module: str, source: str):
    """module.function (module.Class.method) of every definition naming .cache."""
    found = []
    for stmt in ast.parse(source).body:
        members = ([(f"{stmt.name}.", s) for s in stmt.body] if isinstance(stmt, ast.ClassDef)
                   else [("", stmt)])
        for prefix, node in members:
            if any(isinstance(a, ast.Attribute) and a.attr == "cache" for a in ast.walk(node)):
                found.append(f"{module}.{prefix}{getattr(node, 'name', '<module>')}")
    return found


def test_cache_touchers_are_found():
    source = ("class G:\n    def __init__(self):\n        self.cache = {}\n\n"
              "def f(g):\n    return g.cache.get('k')\n\n"
              "def h(g):\n    return g.n  # g.cache in a comment\n\n"
              "X = G().cache\n")
    assert cache_touchers("m", source) == ["m.G.__init__", "m.f", "m.<module>"]


def test_only_memo_and_the_listed_keepers_touch_the_cache():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(cache_touchers(path.stem, path.read_text(encoding="utf-8")))
    assert "graphs.memo" in found
    assert sorted(found - CACHE_KEEPERS) == []


def generator_readers(sources):
    """The modules, other than reflective, that name reflection_generators."""
    return sorted(module for module, source in sources.items()
                  if module != "reflective" and "reflection_generators" in names_in(ast.parse(source)))


def test_generator_readers_are_found():
    sources = {"reflective": "def reflection_generators(g):\n    return []\n",
               "a": "from .reflective import reflection_generators\n",
               "b": "from . import reflective\nreflective.reflection_generators(None)\n",
               "c": "# reflection_generators in a comment\nx = 'reflection_generators'\n"}
    assert generator_readers(sources) == ["a", "b"]


def test_only_reflective_names_the_reflection_generators():
    # every closure of pairs under the reflections goes through
    # reflective.orbit_roots
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert generator_readers(sources) == []


# The product-expression recursion of families: MAX_PRODUCT_NESTING bounds
# its depth before any of it runs.  Any other recursion is one input away
# from a RecursionError, so it keeps an explicit stack instead.
RECURSIVE = {
    "families._parse_expr", "families.FamilySpec.label", "families.FamilySpec.size",
    "families.FamilySpec.prime_factors", "families.FamilySpec.build",
}


def self_callers(module: str, source: str):
    """module.name of every function (nested or a method) that calls itself by name.

    A function calls itself through its bare name, and a method through an
    attribute of its name on any object but super().
    """
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix, in_class)
                continue
            for call in ast.walk(child):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if in_class:
                    hit = (isinstance(f, ast.Attribute) and f.attr == child.name
                           and not (isinstance(f.value, ast.Call)
                                    and getattr(f.value.func, "id", None) == "super"))
                else:
                    hit = isinstance(f, ast.Name) and f.id == child.name
                if hit:
                    found.append(f"{module}.{prefix}{child.name}")
                    break
            visit(child, f"{prefix}{child.name}.", False)

    visit(ast.parse(source), "", False)
    return found


def test_self_callers_are_found():
    source = ("def f(n):\n    return f(n - 1)\n\n"
              "def g(n):\n    def walk(k):\n        return walk(k - 1)\n    return g\n\n"
              "class E(Exception):\n    def __init__(self):\n        super().__init__('e')\n\n"
              "class T:\n    def size(self):\n        return sum(c.size() for c in self.kids)\n"
              "    def other(self):\n        return size(self)\n")
    assert self_callers("m", source) == ["m.f", "m.g.walk", "m.T.size"]


def test_only_the_listed_functions_call_themselves():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(self_callers(path.stem, path.read_text(encoding="utf-8")))
    assert sorted(found) == sorted(RECURSIVE)
