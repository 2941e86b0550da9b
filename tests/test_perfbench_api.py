"""The benchmark in perfbench/ still finds every weilc name it uses, and
its own output check accepts every workload's smoke ops.

The tracer wraps functions and methods by name, and the workloads import
names from weilc and call some operators on its types; a rename or a
deleted function, or an op whose output the benchmark's reference checker
rejects (its result then reads ``correct: false``), would otherwise
surface only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

import weilc
from weilc import cli
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
run = _load("run")


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


@pytest.mark.parametrize(
    "extra", [[], ["--pi", "so3", "--algebra", "corner3"]], ids=["suite", "bivector"]
)
def test_verify_argv_parses(extra):
    # the verify workload drives cli.main in-process with these argv shapes
    # (workloads._verify_ops); a flag that stopped parsing would raise
    # SystemExit inside the measured run
    workloads = _load("workloads")
    for suite in workloads.SUITES:
        argv = ["--config", workloads.CONFIGS["chart3"], "check", suite,
                "--seed", "12345", "--trials", "3", "--json", "r0-op1.json", *extra]
        args = cli._build_parser().parse_args(argv)
        assert (args.command, args.suite, args.seed, args.trials, args.json) == (
            "check", suite, 12345, 3, "r0-op1.json")
        assert args.config == workloads.CONFIGS["chart3"]
        assert (args.pi, args.algebra) == ((extra[1], extra[3]) if extra else (None, None))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_ops_pass_the_benchmark_check(workload, tmp_path, monkeypatch):
    # the worker imports weilc from src/ and the checker reads the
    # workload configs by relative path, both from the checkout root
    monkeypatch.chdir(PERFBENCH.parent)
    records = str(tmp_path / "records.jsonl")
    out = run.worker(workload, 7, 1, str(tmp_path), records=records, smoke=True)
    with open(records, encoding="utf-8") as fh:
        assert len(fh.readlines()) == len(out["latencies_ns"]) > 0
    assert run.check_outputs(_load("workloads"), workload, records) == set()
