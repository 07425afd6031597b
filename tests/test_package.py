"""The package namespace: every export resolves on first access to the
object its home module defines, and nothing else resolves; the package's
``_EXPORTS`` is its one list of public names, and no private function is
left without a caller; no module of the package computes in floating
point; no function body reads an enum member off its class where a
module alias is the member; every cache is keyed by ints, never by a
record; and one module holds the ramification rule's refusals."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shimsurf


def test_every_export_is_its_home_modules_object():
    for name in shimsurf.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"shimsurf.{shimsurf._HOME[name]}")
        assert getattr(shimsurf, name) is getattr(home, name), name
    assert set(shimsurf.__all__) <= set(dir(shimsurf))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        shimsurf.no_such_name
    assert not hasattr(shimsurf, "Place")
    with pytest.raises(ImportError):
        from shimsurf import no_such_name  # noqa: F401


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from shimsurf import *", namespace)
    assert set(shimsurf.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(shimsurf, name) for name in shimsurf.__all__)


def _package_trees() -> dict[str, ast.Module]:
    """Each module of the package, parsed, by its name."""
    package = Path(shimsurf.__file__).parent
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(package.glob("*.py"))
    }


def _assigns_all(tree: ast.Module) -> bool:
    """Whether a module assigns ``__all__`` at its top level."""
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            return True
    return False


def test_only_the_package_lists_public_names():
    # shimsurf._EXPORTS is the one list; a module's own __all__ would be a
    # second one, free to disagree with it.
    assert [name for name, tree in _package_trees().items() if _assigns_all(tree)] == ["__init__"]


def _orphans(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` for each module-level private function that nothing
    in the given modules names outside its own definition."""
    # each name, with the top-level statements that mention it
    seen: dict[str, set[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                seen.setdefault(name, set()).add((module, i))
    return [
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for i, stmt in enumerate(tree.body)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name.startswith("_")
        and not stmt.name.endswith("__")
        and not seen.get(stmt.name, set()) - {(module, i)}
    ]


def test_every_private_function_has_a_caller():
    # A kernel whose public twin is gone must not stay behind unused.
    assert _orphans(_package_trees()) == []


def test_the_orphan_guard_sees_each_kind_of_reference():
    trees = {
        "a": ast.parse("def _used(): pass\ndef _self_only(): return _self_only()\ndef _imported(): pass\n"
                       "def _attribute(): pass\ndef __getattr__(name): pass\nx = _used\n"),
        "b": ast.parse("from .a import _imported\nimport a\na._attribute()\n"),
    }
    assert _orphans(trees) == ["a._self_only"]
    sources = ("__all__ = []", "__all__: list = []", "x = 1")
    assert [_assigns_all(ast.parse(src)) for src in sources] == [True, True, False]


def test_home_modules_resolve_from_the_package():
    from shimsurf import exact

    assert exact.is_prime is shimsurf.is_prime
    for module in set(shimsurf._HOME.values()):
        assert getattr(shimsurf, module) is importlib.import_module(f"shimsurf.{module}")


def test_a_home_modules_name_imports_it_on_first_access():
    # Here every module is loaded already, and the import system has bound
    # each on the package; only a fresh interpreter reaches the branch of
    # the package's __getattr__ that imports a module by its name.
    script = (
        "import sys, shimsurf; loaded = 'shimsurf.search' in sys.modules;"
        "print(loaded, shimsurf.search.DEFAULT_TYPES is sys.modules['shimsurf.search'].DEFAULT_TYPES)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout == "False True\n", proc.stderr


# The integer functions of math; every other one works in floating point.
_EXACT_MATH = frozenset({"gcd", "isqrt"})


def _float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each float literal, use of the name ``float`` and
    non-integer ``math`` function in a parsed module."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            hits.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            hits.append((node.lineno, "float"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math":
            if node.attr not in _EXACT_MATH:
                hits.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            hits.extend((node.lineno, f"math.{a.name}") for a in node.names if a.name not in _EXACT_MATH)
    return hits


def test_the_package_holds_no_float():
    # Every reported number is exact; a float may appear only in the
    # tests' own reference (float_reference.py).
    hits = {module: found for module, tree in _package_trees().items() if (found := _float_uses(tree))}
    assert hits == {}


def test_the_float_guard_sees_each_kind_of_use():
    source = "import math\nfrom math import pi, gcd\nx: float = 0.5 + math.sqrt(2) + math.isqrt(9)\n"
    assert sorted(_float_uses(ast.parse(source))) == [
        (2, "math.pi"), (3, "0.5"), (3, "float"), (3, "math.sqrt"),
    ]


# Enums whose members the package reads through module aliases: on Python
# 3.11 ``EnumType.__getattr__`` makes each class attribute load such as
# ``Splitting.SPLIT`` about ten times the cost of a module global, and a
# sweep query makes dozens of them.  Module-level statements run once.
_ALIASED_ENUMS = frozenset({"Splitting", "Verdict", "SubgroupKind"})


def _member_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each attribute load off an aliased enum class
    inside a function body, lambdas and methods included."""
    hits = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            for node in (n for stmt in body for n in ast.walk(stmt)):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in _ALIASED_ENUMS:
                    hits.add((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(hits)


def test_function_bodies_read_enum_members_through_aliases():
    hits = {module: found for module, tree in _package_trees().items() if (found := _member_reads(tree))}
    assert hits == {}
    from shimsurf import quadfield, torsion

    aliases = {
        quadfield.Splitting: quadfield,
        torsion.Verdict: torsion,
        torsion.SubgroupKind: torsion,
    }
    for enum, home in aliases.items():
        for member in enum:
            assert getattr(home, f"_{member.name}") is member, member


def test_the_alias_guard_sees_each_kind_of_read():
    source = (
        "TABLE = {1: Splitting.SPLIT}\n"
        "def f(v):\n    return v is Verdict.FREE\n"
        "class C:\n    KIND = SubgroupKind.FULL\n    def m(self):\n        return SubgroupKind.BOREL\n"
        "g = lambda s: s is Splitting.INERT\n"
        "def h():\n    def inner():\n        return Splitting.RAMIFIED\n    return inner, kind.value\n"
    )
    assert _member_reads(ast.parse(source)) == [
        (3, "Verdict.FREE"), (7, "SubgroupKind.BOREL"), (8, "Splitting.INERT"), (11, "Splitting.RAMIFIED"),
    ]


# The parameter types a cache of the package may be keyed on.  A record
# compares and hashes as its tuple of values, so a cache keyed on records
# would answer ``TorsionOrder(5, 5)`` with the entry of ``quad_field(5)``,
# the record (5, 5); an int, a bool or a tuple of ints names one value.
_CACHE_KEY_TYPES = frozenset({"int", "bool", "tuple[int, ...]"})


def _is_lru_cache(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (isinstance(target, ast.Name) and target.id == "lru_cache") or (
        isinstance(target, ast.Attribute) and target.attr == "lru_cache"
    )


def _cache_keys(tree: ast.AST) -> tuple[list[str], list[str]]:
    """The names of the ``lru_cache`` functions in a parsed module, and
    ``function(parameter: annotation)`` for each of their parameters whose
    annotation is missing or not one of ``_CACHE_KEY_TYPES``."""
    cached, bad = [], []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(_is_lru_cache, fn.decorator_list)):
            cached.append(fn.name)
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            for arg in params:
                annotation = None if arg.annotation is None else ast.unparse(arg.annotation)
                if annotation not in _CACHE_KEY_TYPES:
                    bad.append(f"{fn.name}({arg.arg}: {annotation})")
    return cached, bad


def test_caches_are_keyed_by_ints_never_by_records():
    found = {module: _cache_keys(tree) for module, tree in _package_trees().items()}
    assert {module: bad for module, (_, bad) in found.items() if bad} == {}
    assert {"is_prime", "bernoulli2", "_split_pair", "_split_off"} <= {f for cached, _ in found.values() for f in cached}


def test_the_cache_key_guard_sees_each_kind_of_parameter():
    source = (
        "import functools\n"
        "@lru_cache(maxsize=8)\ndef a(n: int, flag: bool, ds: tuple[int, ...]) -> int: pass\n"
        "@functools.lru_cache\ndef b(field: QuadField) -> int: pass\n"
        "@lru_cache(maxsize=None)\ndef c(x, *rest: int, **kw: Place) -> int: pass\n"
        "def d(field: QuadField) -> int: pass\n"
    )
    assert _cache_keys(ast.parse(source)) == (
        ["a", "b", "c"], ["b(field: QuadField)", "c(x: None)", "c(kw: Place)"]
    )


# The refusal texts of the ramification rule, ``torsion._require_ramification``,
# the package's only one, besides its ``_UNRAMIFIED_QUADRATIC``: a second
# module that raises one of them holds a second copy of the rule, free to
# disagree with it.
_RAMIFICATION_REFUSALS = (
    "fixed by conjugation",
    "not conjugation-closed",
    "duplicate ramified place",
    "empty finite ramification",
)


def _string_literals(tree: ast.AST) -> list[str]:
    """The string constants of a parsed module, the literal parts of
    f-strings included (implicitly concatenated literals are one constant)
    and docstrings left out, since a docstring may name a refusal."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings
    ]


def test_one_module_holds_the_ramification_rule():
    from shimsurf import torsion

    texts = (*_RAMIFICATION_REFUSALS, torsion._UNRAMIFIED_QUADRATIC)
    literals = {module: _string_literals(tree) for module, tree in _package_trees().items()}
    holders = {text: [module for module, found in literals.items() if any(text in s for s in found)] for text in texts}
    assert holders == {text: ["torsion"] for text in texts}


def test_the_refusal_guard_sees_each_kind_of_string():
    source = (
        '"""Module docstring: duplicate ramified place."""\n'
        "def f(p):\n"
        '    """fixed by conjugation"""\n'
        '    raise ValueError(f"over {p}: not conjugation-" "closed")\n'
        'X = ("empty finite " "ramification", 2)\n'
    )
    assert sorted(_string_literals(ast.parse(source))) == [
        ": not conjugation-closed", "empty finite ramification", "over ",
    ]
