"""The package namespace: every export resolves on first access to the
object its home module defines, and nothing else resolves; and no module
of the package computes in floating point."""

import ast
import importlib
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


def test_home_modules_resolve_from_the_package():
    from shimsurf import exact

    assert exact.is_prime is shimsurf.is_prime
    for module in set(shimsurf._HOME.values()):
        assert getattr(shimsurf, module) is importlib.import_module(f"shimsurf.{module}")


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
    package = Path(shimsurf.__file__).parent
    hits = {
        path.name: found
        for path in sorted(package.glob("*.py"))
        if (found := _float_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
    }
    assert hits == {}


def test_the_float_guard_sees_each_kind_of_use():
    source = "import math\nfrom math import pi, gcd\nx: float = 0.5 + math.sqrt(2) + math.isqrt(9)\n"
    assert sorted(_float_uses(ast.parse(source))) == [
        (2, "math.pi"), (3, "0.5"), (3, "float"), (3, "math.sqrt"),
    ]
