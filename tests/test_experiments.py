"""Tests for the experiment drivers: few-vertex sampling, the
Euclidean-length model, and the suite runner."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from convexchain import experiments
from convexchain.cli import report_json
from convexchain.counting import CountTable, brute_force_enum, count_lines_k, line_length
from convexchain.experiments import (
    SUITE_NAMES,
    jarnik_greedy_vertex_count,
    run_jarnik,
    run_suite,
    sample_valtr,
    typical_vertex_count,
)
from convexchain.gibbs import EnergyModel, GibbsParams, _mean_euclidean_length, log_partition
from convexchain.lattice import _box_rows
from convexchain.tolerances import VALTR_EDGE_BUDGET
from oracles import greedy_vertex_count_sorted
from paper import (
    enumerate_ne_lines,
    gibbs_parabola_distances,
    valtr_parabola_distances,
    valtr_uniformity_chisquare,
)


def test_valtr_replay_and_validity():
    a = sample_valtr(200, 5, seed=11)
    b = sample_valtr(200, 5, seed=11)
    assert a.vertices == b.vertices
    assert a.endpoint() == (200, 200)
    edges = a.edges()
    assert len(edges) == 5
    assert all(d[0] >= 1 and d[1] >= 1 for d in edges)
    # distinct seeds give distinct lines (overwhelmingly)
    c = sample_valtr(200, 5, seed=12)
    assert c.vertices != a.vertices


def test_valtr_edges_pairwise_non_parallel():
    # at n = 100 about one raw draw in a hundred repeats a direction and is redrawn
    for seed in range(200):
        edges = sample_valtr(100, 4, seed=seed).edges()
        directions = {(a // math.gcd(a, b), b // math.gcd(a, b)) for a, b in edges}
        assert len(directions) == len(edges)


def test_valtr_two_edges():
    poly = sample_valtr(50, 2, seed=0)
    assert len(poly.edges()) == 2
    assert poly.endpoint() == (50, 50)


def test_valtr_argument_errors():
    with pytest.raises(ValueError):
        sample_valtr(100, 1)
    with pytest.raises(ValueError):
        sample_valtr(3, 5)
    with pytest.warns(UserWarning, match="few-vertex"):
        sample_valtr(60, 4, seed=0)
    # refused before any draw, and before the regime warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResourceWarning, match="over the budget"):
            sample_valtr(10**14, VALTR_EDGE_BUDGET + 1)


def test_valtr_budget_exhaustion(monkeypatch):
    # five pairwise non-parallel strictly NE edges cannot sum to (6,6):
    # four unit abscissas force slopes 1..4 whose ordinates already exceed 6
    assert enumerate_ne_lines(6, 5) == []
    # 200 attempts, above the 1/P = 116.6 that the up-front check asks for
    monkeypatch.setattr(experiments, "VALTR_REJECTION_BUDGET", 200)
    with pytest.warns(UserWarning):
        with pytest.raises(RuntimeError, match=r"budget \(200\)"):
            sample_valtr(6, 5, seed=0)
    # the attempts are capped in edges too: 120 draws of 5 edges, above the
    # k/P = 583.2 that the up-front check asks for
    monkeypatch.setattr(experiments, "VALTR_REJECTION_BUDGET", 10**4)
    monkeypatch.setattr(experiments, "VALTR_WORK_BUDGET", 600)
    with pytest.warns(UserWarning):
        with pytest.raises(RuntimeError, match=r"budget \(120\)"):
            sample_valtr(6, 5, seed=0)


def test_valtr_refuses_a_hopeless_draw_before_drawing(monkeypatch):
    class NoDraws:
        def uniform(self, size):
            raise AssertionError("drew uniforms")

    # P = [(n-1)!/((n-k)! n^(k-1))]^2 is e^-199986.6 = 10^-86853.1 at n = k = 1e5,
    # so k/P = 10^86858.098 = 1.25e+86858, past the float range
    with pytest.raises(ResourceWarning, match=r"needs ~1\.25e\+86858 edges drawn, over the budget"):
        sample_valtr(10**5, 10**5, rng=NoDraws())
    # at (6, 5), P = (5!/6^4)^2 and a draw takes k/P = 583.2 edges
    monkeypatch.setattr(experiments, "VALTR_WORK_BUDGET", 583)
    with pytest.raises(ResourceWarning, match=r"^sample_valtr\(n=6, k=5\) x 1 needs ~583 edges "
                                              r"drawn, over the budget 583$"):
        sample_valtr(6, 5, rng=NoDraws())
    monkeypatch.setattr(experiments, "VALTR_WORK_BUDGET", 584)
    with pytest.warns(UserWarning), pytest.raises(AssertionError, match="drew uniforms"):
        sample_valtr(6, 5, rng=NoDraws())
    # at (30, 20) the k/P = 4.55e8 edges fit the work budget, but the 1/P
    # attempts are past the rejection loop's
    monkeypatch.setattr(experiments, "VALTR_WORK_BUDGET", 8 * 10**8)
    with pytest.raises(ResourceWarning, match=r"^sample_valtr\(n=30, k=20\) needs ~2\.28e\+07 "
                                              r"attempts, over the budget 10,000$"):
        sample_valtr(30, 20, rng=NoDraws())


def test_valtr_pricing_well_inside_the_budget_builds_no_decimal(monkeypatch):
    import decimal

    # k/P = 20.8 at (1e4, 20): 10^5 draws take 2.1e6 of the 8e8 edges, and
    # 2e7 draws take 4.2e8, within a factor 2 of it
    monkeypatch.setattr(decimal, "Decimal", None)
    experiments._check_valtr(10**4, 20, 10**5)
    with pytest.raises(TypeError):
        experiments._check_valtr(10**4, 20, 2 * 10**7)


@pytest.mark.parametrize("n,k", [(8, 2), (8, 3), (6, 2)])
def test_enumerator_matches_brute_force(n, k):
    expected = 0
    for omega in brute_force_enum(n, n):
        if omega.vertex_count == k and all(
                x[0] >= 1 and x[1] >= 1 for x in omega.support):
            expected += 1
    lines = enumerate_ne_lines(n, k)
    assert len(lines) == expected
    assert len(set(lines)) == len(lines)


def test_enumerator_single_edge():
    assert enumerate_ne_lines(8, 1) == [((8, 8),)]


def test_valtr_uniformity_on_small_set():
    # deterministic seed, so this is a frozen regression value, not a flake:
    # the sampler's law matches the uniform law on the enumerated support
    rep = valtr_uniformity_chisquare(12, 2, samples=4000, seed=0)
    assert rep["support_size"] == len(enumerate_ne_lines(12, 2))
    assert rep["statistic"] < rep["quantile_001"]
    assert rep["dof"] >= 10


def test_typical_vertex_count_scaling():
    assert typical_vertex_count(300) == 34
    assert typical_vertex_count(1000) == 75
    # c(1) * (n1 n2)^(1/3) honours anisotropic boxes
    assert typical_vertex_count(100, 1000) == typical_vertex_count(1000, 100)


def test_greedy_jarnik_count():
    n = jarnik_greedy_vertex_count(10**4)
    target = 1.5 * (10**4) ** (2.0 / 3.0) / math.pi ** (1.0 / 3.0)
    assert abs(n / target - 1.0) <= 0.05
    assert jarnik_greedy_vertex_count(200) < jarnik_greedy_vertex_count(400)
    with pytest.raises(ValueError):
        jarnik_greedy_vertex_count(0)


def _greedy_reference(budgets, side=300):
    """The same greedy over every primitive direction of a side x side box,
    by gcd, for each budget: exact while the directions it takes have
    norm <= side."""
    dirs = sorted((p * p + q * q, (p, q)) for p in range(side + 1) for q in range(side + 1)
                  if math.gcd(p, q) == 1)
    counts = []
    for budget in budgets:
        total, count = 0.0, 0
        for norm_sq, (p, q) in dirs:
            step = math.hypot(p, q)
            if total + step > budget:
                break
            assert norm_sq <= side * side, "budget past the reference box"
            total += step
            count += 1
        counts.append(count)
    return counts


def test_greedy_jarnik_count_matches_a_larger_box():
    # a box's corner holds directions longer than some outside it, which the
    # greedy must not take before them: 13,500 to 16,000 and 10^5 went wrong so
    budgets = [1, 2, 50, 1000, 5000, 10**4, 10_500, 12_000, 13_000, 13_500, 14_000,
               15_000, 16_000, 20_000, 40_000, 70_000, 100_000]
    got = [jarnik_greedy_vertex_count(b) for b in budgets]
    assert got == _greedy_reference(budgets)
    assert got[budgets.index(13_500):budgets.index(16_000) + 1] == [582, 596, 624, 651]
    assert got[budgets.index(10**4)] == 476 and got[-1] == 2208


def test_greedy_count_matches_the_sorted_tuple_catalogue():
    # the array catalogue against the tuple sort it replaced, whose box
    # starts at 32 and doubles; 10^4 is the Jarnik report's row.  The 32
    # box's 491 directions total 10,456.033, so the sort doubles at
    # 10,456.533; the 128 box's 7,821 total 667,149.12 below its start limit
    # 128^3/pi, so 667,300 doubles the array catalogue from 128 to 256 and
    # takes one direction more than the 128 box holds
    budgets = [1, 10, 10**4, 10**6, 2e8, 200, 400, 1e3, 2e5, 3e5, 10_456.533, 667_300,
               *10 ** np.random.default_rng(5).uniform(0, 6, 8)]
    got = [jarnik_greedy_vertex_count(b) for b in budgets]
    assert got == [greedy_vertex_count_sorted(b) for b in budgets]
    assert got[2] == 476 and got[10] == 491 and got[11] == 7822
    # a budget equal to a running total takes that direction too
    dirs = sorted((p * p + q * q, p, q) for p in range(33) for q in range(33)
                  if math.gcd(p, q) == 1 and p * p + q * q <= 32 * 32)
    total = 0.0
    for _, p, q in dirs[:100]:
        total += math.hypot(p, q)
    assert jarnik_greedy_vertex_count(total) == 100
    assert jarnik_greedy_vertex_count(math.nextafter(total, 0.0)) == 99


def _sqrt_is_hypot(x1, x2):
    return np.array_equal(np.sqrt(x1 * x1 + x2 * x2),
                          np.fromiter(map(math.hypot, x1.tolist(), x2.tolist()), dtype=float))


def test_greedy_steps_are_hypot_on_the_primitive_directions():
    # the greedy count's steps, np.sqrt of the exact int64 norm^2, against
    # math.hypot on every primitive direction of norm <= 1024
    x1, x2 = _box_rows(1024, 1024).T
    keep = x1 * x1 + x2 * x2 <= 1024 * 1024
    assert _sqrt_is_hypot(x1[keep], x2[keep])


@pytest.mark.slow
def test_greedy_steps_are_hypot_on_the_whole_box():
    # every integer pair of the largest greedy box, a row at a time
    x2 = np.arange(4097, dtype=np.int64)
    assert all(_sqrt_is_hypot(np.full_like(x2, x1), x2) for x1 in range(4097))


def test_run_jarnik_report():
    rep = run_jarnik(0.05, samples=40, seed=0)
    assert rep["passed"]
    checks = [r["check"] for r in rep["rows"]]
    assert checks == sorted(checks)
    # leading-order expected length is 6 zeta(3)/(pi beta^3)
    pred = 6.0 * 1.2020569031595943 / (math.pi * 0.05**3)
    assert abs(rep["mean_length"] / pred - 1.0) < 0.05
    # exact replay
    again = run_jarnik(0.05, samples=40, seed=0)
    assert report_json(rep) == report_json(again)


@pytest.mark.parametrize("beta", [0.05, 0.1])
def test_expected_length_matches_log_partition_difference(beta):
    # oracle: E[L] = -d/dbeta log Z by central difference of two site sets
    h = 1e-6 * beta
    lo, hi = (GibbsParams(EnergyModel.euclidean(b)) for b in (beta - h, beta + h))
    oracle = (log_partition(lo) - log_partition(hi)) / (2.0 * h)
    exact = _mean_euclidean_length(GibbsParams(EnergyModel.euclidean(beta)))
    assert exact == pytest.approx(oracle, rel=1e-6)


def test_jarnik_suite_report_is_frozen():
    # the whole report at 10 samples, frozen as a digest: the suite computes
    # each row once and must keep every byte
    text = report_json(run_suite("jarnik", {"samples": 10}))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "efe75aa9e7006a6c089cd24a1c331ad67c6a41af1f63343786af07d22f4d932c")


def test_gibbs_parabola_distance_summary():
    rep = gibbs_parabola_distances(1000, count=30, seed=0)
    assert rep["k"] == 75
    assert rep["count"] == 30
    assert 0.0 < rep["median"] < 0.06
    assert rep["median"] <= rep["q90"]


def test_valtr_parabola_distance_summary():
    rep = valtr_parabola_distances(10**4, 30, count=30, seed=0)
    assert rep["count"] == 30
    assert 0.0 < rep["median"] < 0.12


def test_run_suite_fast_suites_pass():
    for name in ("shapes", "mixed"):
        rep = run_suite(name)
        assert rep["passed"], rep
        checks = [r["check"] for r in rep["rows"]]
        assert checks == sorted(checks)
        for row in rep["rows"]:
            assert set(row) == {"check", "target", "observed", "tolerance",
                                "pass"}


def test_run_suite_unknown_name():
    with pytest.raises(KeyError, match="unknown suite"):
        run_suite("nope")
    assert set(SUITE_NAMES) == {"counting", "calibration", "shapes", "jarnik",
                                "mixed"}


def test_report_json_byte_identical():
    a = report_json(run_suite("shapes", {"seed": 3}))
    b = report_json(run_suite("shapes", {"seed": 3}))
    assert a == b
    assert a.endswith("\n")


def test_sampled_length_agrees_with_polyline():
    poly = sample_valtr(500, 8, seed=2)
    total = sum(math.hypot(*d) for d in poly.edges())
    assert line_length(poly) == pytest.approx(total)


# one run of each command, in one fresh interpreter; after the import and
# after each run the probe lists the scipy modules loaded so far
_SCIPY_PROBE = """
import contextlib, io, json, sys
import convexchain
from convexchain import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = [["import", 0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    seen.append([argv[0], rc, scipy_modules()])
print(json.dumps(seen))
"""


def test_runs_leave_scipy_unloaded(tmp_path):
    # scipy is only a test dependency: the library, each CLI route through
    # the special functions, the root, the logistic and the Hausdorff search
    # included, must run on numpy alone
    import convexchain
    line = tmp_path / "line.json"
    line.write_text('{"vertices": [[0, 0], [3, 1], [5, 4], [6, 7]]}')
    runs = [
        ["count", "--n1", "6", "--n2", "6", "--kmax", "4"],
        ["calibrate", "--n1", "300", "--n2", "300", "--k", "34", "--exact"],
        ["sample-gibbs", "--beta1", "0.1", "--beta2", "0.1", "--count", "3"],
        ["shape-distance", "--line", str(line)],
        # 1 - ell = 0.99 takes the log series, -1.01 the inversion and then
        # the duplication, -1.51 the inversion
        ["asymptotics-table", "--ell-grid", "0.01:2.99:0.5"],
        ["jarnik", "--beta", "0.1", "--samples", "4"],
    ]
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(convexchain.__file__)))
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout)
    assert [name for name, _, _ in seen] == ["import"] + [argv[0] for argv in runs]
    for name, rc, modules in seen:
        assert rc == 0 and modules == [], (name, rc, modules)


_PEAK_PROBE = """
import contextlib, io
from convexchain import cli

with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["suite", "--name", "jarnik", "--samples", "10"])
with open("/proc/self/status") as fh:
    print(rc, next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_jarnik_suite_holds_one_site_set_at_a_time():
    # the suite's peak is the root bracket's largest set (Euclidean beta
    # 0.05/3) while the one set in each cache is freed as the next is built:
    # ~227 MB; a second cached set held the pricing's sets as well, ~335 MB.
    # The child reads the peak of its own address space: its RUSAGE_SELF
    # keeps the peak of the process it was spawned from, and the parent's
    # RUSAGE_CHILDREN that of every child it has waited for
    import convexchain
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(convexchain.__file__)))
    out = subprocess.run([sys.executable, "-c", _PEAK_PROBE], capture_output=True, text=True,
                         env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    rc, peak_kb = out.stdout.split()
    assert rc == "0" and int(peak_kb) / 1024 <= 260


@pytest.fixture
def site_set_builds(monkeypatch):
    """The (n1, n2) of every Gibbs site set built from cold caches, by a spy
    on `gibbs._primitive_grid`."""
    from convexchain import gibbs
    builds = []
    grid = gibbs._primitive_grid

    def spy(n1, n2, *clip):
        builds.append((n1, n2))
        return grid(n1, n2, *clip)

    gibbs._sampler_index.cache_clear()
    gibbs._site_arrays.cache_clear()
    monkeypatch.setattr(gibbs, "_primitive_grid", spy)
    return builds


def test_jarnik_root_builds_as_few_site_sets_as_brentq(site_set_builds):
    # one set for the sampled beta, then one per root evaluation of
    # E[L] = mean length, which for beta = 0.05 is 11, as many as scipy's
    # brentq took on the same bracket and xtol
    run_jarnik(0.05, samples=2, seed=0)
    assert len(site_set_builds) == 1 + 11


@pytest.mark.parametrize("run", [lambda: run_suite("jarnik", {"samples": 1}),
                                 lambda: run_jarnik(0.05, samples=1)],
                         ids=["suite", "run_jarnik"])
def test_jarnik_refuses_one_sample_before_building_a_site_set(site_set_builds, run):
    with pytest.raises(ValueError, match="need at least 2 samples"):
        run()
    assert site_set_builds == []


def test_counting_suite_compares_every_layer_a_box_can_hold(monkeypatch):
    # no line to (2, 2) has 4 vertices ((1,0) + (1,1) + (0,1) is the most),
    # so a spurious p(2, 2; 4) lies above the brute force's largest k but
    # within n1 + n2, and the suite must count it
    def spurious(n1, n2, kmax):
        table = count_lines_k(n1, n2, kmax)
        if (n1, n2) != (8, 8):
            return table
        layers = table.layers.copy()
        layers[4, 2, 2] = 1
        return CountTable(n1, n2, kmax, layers)

    monkeypatch.setattr(experiments, "count_lines_k", spurious)
    rows = {r["check"]: r for r in run_suite("counting")["rows"]}
    row = rows["dp equals brute force below cap"]
    assert row["observed"] == 1.0 and not row["pass"]
