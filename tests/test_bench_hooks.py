"""The benchmark reaches into the library by name: `bench/round.py` wraps the
callables in its TRACED table, and `bench/workloads.py` calls `cc.<name>` on
the package.  A library move that drops one of those names would break a
benchmark round; these tests make it fail here first."""

import importlib
import importlib.util
import pathlib
import re

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
