"""The benchmark reaches into the library by name: `bench/round.py` wraps the
callables in its TRACED table, and `bench/workloads.py` calls `cc.<name>` on
the package.  A library move that drops one of those names would break a
benchmark round, and a library change that breaks one of a workload's
result checks would fail its operations; these tests make both fail here
first."""

import importlib
import importlib.util
import json
import pathlib
import re
import subprocess
import sys

import pytest

import convexchain

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _resolve(owner, dotted):
    for attr in dotted.split("."):
        owner = getattr(owner, attr)
    return owner


def _traced():
    spec = importlib.util.spec_from_file_location("bench_round", BENCH / "round.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(layer, name) for layer, names in module.TRACED.items() for name in names]


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
    proc = subprocess.run([sys.executable, str(BENCH / "round.py"), workload, "0", "full"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
