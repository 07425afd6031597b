"""Every shimsurf name that the benchmark under ``perfbench/`` resolves by
attribute still exists, so that a rename fails here and not only when the
benchmark runs.  The benchmark's own modules are read, never changed."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import shimsurf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """A benchmark module that imports only the standard library."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load("tracer")
INPUTS = _load("inputs")


def _layer(name):
    return importlib.import_module(f"shimsurf.{name}")


def test_every_traced_layer_imports():
    for layer in TRACER.LAYERS:
        assert _layer(layer).__name__ == f"shimsurf.{layer}"


@pytest.mark.parametrize("layer, name", [(layer, name) for layer, names in TRACER._INTERNAL.items() for name in names])
def test_internal_bindings_exist(layer, name):
    assert callable(getattr(_layer(layer), name))


@pytest.mark.parametrize("layer, cls, method", TRACER._METHODS)
def test_traced_methods_exist(layer, cls, method):
    assert callable(getattr(getattr(_layer(layer), cls), method))


@pytest.mark.parametrize("key", sorted(TRACER._result_hooks(TRACER.Tracer())))
def test_result_hooks_name_a_function_of_their_home_layer(key):
    # A hook key is "<home layer>.<function name>", optionally with
    # "@<binding layer>"; the tracer builds the same string from the
    # function it wraps, so the function must live in that layer.
    layer, name = key.split("@")[0].split(".")
    fn = getattr(_layer(layer), name)
    assert (fn.__module__, fn.__name__) == (f"shimsurf.{layer}", name)


def test_sweep_worker_names_exist():
    tree = ast.parse((PERFBENCH / "sweep_worker.py").read_text(encoding="utf-8"))
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "S"
    }
    names |= {f"{kind}_torsion_verdict" for kind in INPUTS.KINDS}
    assert "full_torsion_verdict" in names and "admissibility_report" in names
    missing = sorted(n for n in names if not hasattr(shimsurf, n))
    assert missing == []


def test_cli_entry_points_exist():
    # run.py and traced_cli.py call these two.
    cli = _layer("cli")
    assert callable(cli.main) and callable(cli.run)
