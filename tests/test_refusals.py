"""Every budget refuses through `tolerances.check_budget`: a ResourceWarning
with one message shape, raised before any of the refused work is done."""

import argparse
import math
import re
from decimal import Decimal

import numpy as np
import pytest

from convexchain import cli, counting, experiments, gibbs, lattice, shapes
from convexchain.tolerances import MESH_BUDGET, SITE_BUDGET, VALTR_EDGE_BUDGET, check_budget

_SHAPE = re.compile(r"^\S.* needs ~[0-9][0-9.,e+]* [a-z ]+, over the budget [0-9][0-9.,e+]*$")
_LINE = shapes.normalize(np.array([[0.0, 0.0], [1.0, 1.0]]), (1, 1))
# 16 seed queries near the anti-diagonal's first points, and 101 that only
# the second window search of the nearest-point search settles
_J = np.arange(201.0)
_LATE = (shapes._by_s(np.vstack([np.column_stack([_J[:16] + 0.05, -_J[:16] + 0.05]),
                                 np.column_stack([_J[100:] + 0.5, -_J[100:] + 0.5])])),
         shapes._by_s(np.column_stack([_J, -_J])))


class NoDraws:
    def uniform(self, size):
        raise AssertionError("drew uniforms")


# site: (the call, the names whose call would be the refused work, budget patches)
_SITES = {
    "lattice grid": (lambda: lattice.primitive_vectors_in_box(*[math.isqrt(SITE_BUDGET)] * 2),
                     [(lattice, "_primes")], {}),
    "count_lines_k": (lambda: counting.count_lines_k(300, 300, 20),
                      [(counting, "_count_sweep")], {}),
    "max_vertices": (lambda: counting.max_vertices(600, 600),
                     [(counting, "_maximal_candidates")], {}),
    "mobius pairs": (lambda: gibbs._mobius_log_z(1e-12, 1.0, 0.0),
                     [(gibbs, "_mobius_pairs")], {}),
    "mesh": (lambda: shapes.ShapeCurve.parabola().sample(MESH_BUDGET + 1),
             [(shapes, "_curve_mesh")], {}),
    # the first direction's two probes of each query's neighbours in s
    # order (found by one s-merge of both sides) come first
    "window pairs": (lambda: shapes.hausdorff_distance(_LINE, shapes.ShapeCurve.parabola()),
                     [(shapes, "_sq_dist", 2)], {(shapes, "PAIR_BUDGET"): 10**3}),
    # the seeds' 3,216 pairs fit in one block, the second search's 20,301 do
    # not fit the budget (see test_shapes.py for the construction)
    "last-phase window pairs": (lambda: shapes._max_nearest_sq(*_LATE),
                                [(shapes, "_sq_dist", 3)], {(shapes, "PAIR_BUDGET"): 10**4}),
    "valtr edges": (lambda: experiments.sample_valtr(10**14, VALTR_EDGE_BUDGET + 1,
                                                     rng=NoDraws()), [], {}),
    "valtr acceptance": (lambda: experiments.sample_valtr(10**5, 10**5, rng=NoDraws()), [], {}),
    "valtr attempts": (lambda: experiments.sample_valtr(30, 20, rng=NoDraws()), [], {}),
    "ell-grid rows": (lambda: cli._cmd_asymptotics_table(
        argparse.Namespace(ell_grid="0:1:1e-6", format="csv")), [(cli, "c_of_ell")], {}),
    "sample-gibbs count": (lambda: cli._cmd_sample_gibbs(argparse.Namespace(
        beta1=0.5, beta2=0.5, fugacity=1.0, trunc=40.0, count=10**8, seed=0)),
        [(cli, "sample_omega")], {}),
    "sample-valtr count": (lambda: cli._cmd_sample_valtr(argparse.Namespace(
        n=10**4, k=20, count=10**8, seed=0)), [(cli, "sample_valtr")], {}),
    "jarnik samples": (lambda: experiments.run_jarnik(0.05, samples=10**8),
                       [(experiments, "moments"), (experiments, "sample_omega")], {}),
    "jarnik suite samples": (lambda: experiments.run_suite("jarnik", {"samples": 10**7}),
                             [(experiments, "run_jarnik"), (experiments, "sample_omega")], {}),
    "greedy length": (lambda: experiments.jarnik_greedy_vertex_count(3e10),
                      [(experiments, "_box_rows")], {}),
}


@pytest.mark.parametrize("site", sorted(_SITES))
def test_every_refusal_is_one_rule_before_any_work(monkeypatch, site):
    call, spied, patches = _SITES[site]
    for (module, name), value in patches.items():
        monkeypatch.setattr(module, name, value)
    for module, name, *allowed in spied:
        real, calls = getattr(module, name), []

        def spy(*args, real=real, calls=calls, allowed=(allowed or [0])[0], name=name, **kw):
            calls.append(name)
            if len(calls) > allowed:
                raise AssertionError(f"{name} ran")
            return real(*args, **kw)

        monkeypatch.setattr(module, name, spy)
    with pytest.raises(ResourceWarning) as refused:
        call()
    assert _SHAPE.match(str(refused.value)), str(refused.value)


def test_the_rule_prints_integers_exactly_and_refuses_only_past_the_budget():
    check_budget("a run", 300_000, 300_000, "rows")
    with pytest.raises(ResourceWarning, match=r"^a run needs ~300,001 rows, over the budget "
                                              r"300,000$"):
        check_budget("a run", 300_001, 300_000, "rows")
    with pytest.raises(ResourceWarning, match=r"^a run needs ~2\.05e\+10 cell updates, over the "
                                              r"budget 20,000,000,000$"):
        check_budget("a run", 2.0469e10, 20_000_000_000, "cell updates")
    # past the float range a Decimal keeps its magnitude instead of inf
    with pytest.raises(ResourceWarning, match=r"needs ~1\.00e\+400 edges"):
        check_budget("a run", Decimal(10) ** 400, 800_000_000, "edges")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_greedy_refuses_a_length_that_is_not_positive_and_finite(monkeypatch, bad):
    def worked(*args):
        raise AssertionError("sieved")

    monkeypatch.setattr(experiments, "_box_rows", worked)
    with pytest.raises(ValueError, match="positive and finite"):
        experiments.jarnik_greedy_vertex_count(bad)
