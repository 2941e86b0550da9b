"""The benchmark in perfbench/ still finds every weilc name it uses.

The tracer wraps functions and methods by name, and the workloads import
names from weilc and call some operators on its types; a rename or a
deleted function would otherwise surface only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

import weilc
from weilc.expr import Expr

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer, names in tracer.LAYER_API.items() for name in names],
)
def test_layer_api_resolves(layer, name):
    assert callable(getattr(getattr(weilc, layer), name))


@pytest.mark.parametrize(
    "layer, cls_name, method",
    [(layer, cls, m) for layer, cls, methods in tracer.LAYER_METHODS for m in methods],
)
def test_layer_methods_resolve(layer, cls_name, method):
    # the tracer replaces the method in the class's own namespace
    cls = getattr(getattr(weilc, layer), cls_name)
    assert callable(vars(cls)[method])


def test_workloads_imports_resolve():
    # importing the module resolves every name it imports from weilc
    workloads = _load("workloads")
    assert callable(workloads.cli.main)
    # the Jacobi ops add brackets with `+`
    assert "__add__" in vars(Expr)
