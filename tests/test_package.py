"""The package namespace: every export resolves on first access to the
object its home module defines, and nothing else resolves."""

import importlib

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
