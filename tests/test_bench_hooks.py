"""The benchmark reaches into the library by name: `bench/round.py` wraps the
callables in its TRACED table, and `bench/workloads.py` calls `cc.<name>` on
the package.  A library move that drops one of those names would break a
benchmark round, and a library change that breaks one of a workload's
result checks would fail its operations; these tests make both fail here
first.  Rounds run as `bench/run.py` spawns them, each once per test run, and
no record is written to `bench/out/`."""

import functools
import importlib
import importlib.util
import json
import pathlib
import re

import pytest

import convexchain

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _resolve(owner, dotted):
    for attr in dotted.split("."):
        owner = getattr(owner, attr)
    return owner


@functools.cache
def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _round(workload, mode):
    """The record of one round, or the BenchError that would stop the benchmark."""
    return _bench_module("run").run_round(workload, 0, mode)


def _traced():
    traced = _bench_module("round").TRACED
    return [(layer, name) for layer, names in traced.items() for name in names]


@pytest.mark.parametrize("layer,name", _traced())
def test_traced_names_resolve(layer, name):
    module = importlib.import_module(f"convexchain.{layer}")
    assert callable(_resolve(module, name))


def test_workload_names_resolve():
    text = (BENCH / "workloads.py").read_text()
    names = sorted(set(re.findall(r"\bcc\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", text)))
    assert names
    missing = []
    for name in names:
        try:
            _resolve(convexchain, name)
        except AttributeError:
            missing.append(name)
    assert not missing, f"bench/workloads.py calls names the package lacks: {missing}"


@pytest.mark.parametrize("workload", ["count", "calibrate", "sample"])
def test_one_bench_round_has_no_failed_operation(workload):
    result = _round(workload, "full")
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]


def test_traced_rounds_give_every_per_layer_metric():
    # the rounds of `bench/run.py --trace 1`, which measures the scipy import
    # and the trace overhead apart from them
    run = _bench_module("run")
    traced = {w: _round(w, "traced") for w in run.WORKLOADS}
    for workload, result in traced.items():
        assert result["failed"] == 0, result["failures"]
        assert result["counters"] == _round(workload, "full")["counters"]
    metrics = run.layer_metrics(traced)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    apart = {"setup.scipy_import_s", "trace_overhead_s"}
    assert sorted({d["name"] for d in declared} - apart - set(metrics)) == []
