"""End-to-end tests of the command-line surface via main(argv)."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexchain.cli import main
from convexchain.experiments import sample_valtr
from convexchain.gibbs import EnergyModel, GibbsParams, moments
from convexchain.lattice import MultiplicityDistribution
from oracles import polyline_json


# a small convex chain that shape-distance reads from stdin ("--line -")
_PIN_LINE = '{"vertices": [[0, 0], [5, 1], [9, 4], [11, 9], [12, 15]]}'


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# usage plumbing


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, ["--help"])
    assert rc == 0
    assert "count" in out and "suite" in out


def test_no_arguments_is_usage_error(capsys):
    rc, _, _ = run(capsys, ["--help"][:0])
    assert rc == 2


def test_unknown_subcommand_is_usage_error(capsys):
    rc, _, _ = run(capsys, ["frobnicate"])
    assert rc == 2


def test_missing_required_flag_is_usage_error(capsys):
    rc, _, _ = run(capsys, ["count", "--n1", "3", "--n2", "3"])
    assert rc == 2


# ---------------------------------------------------------------------------
# counting


def test_count_csv(capsys):
    rc, out, _ = run(capsys, ["count", "--n1", "2", "--n2", "2",
                              "--kmax", "3"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n1,n2,k,count"
    rows = {tuple(line.split(",")[:3]): line.split(",")[3]
            for line in lines[1:]}
    assert rows[("2", "2", "1")] == "1"
    assert rows[("2", "2", "2")] == "3"
    assert rows[("2", "2", "3")] == "1"


def test_count_json_counts_are_decimal_strings(capsys):
    rc, out, _ = run(capsys, ["count", "--n1", "3", "--n2", "2",
                              "--kmax", "2", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["n1"] == 3 and payload["kmax"] == 2
    for a, b, k, count in payload["rows"]:
        assert isinstance(count, str) and count.isdigit()


def test_count_out_file(tmp_path, capsys):
    dest = tmp_path / "table.csv"
    rc, out, _ = run(capsys, ["count", "--n1", "2", "--n2", "2",
                              "--kmax", "2", "--out", str(dest)])
    assert rc == 0
    assert out == ""
    assert dest.read_text().startswith("n1,n2,k,count")


def test_maxvert(capsys):
    rc, out, _ = run(capsys, ["maxvert", "--n1", "6", "--n2", "6"])
    assert rc == 0
    assert json.loads(out)["max_vertices"] == 5


@pytest.mark.parametrize("argv", [
    ["count", "--n1", "300", "--n2", "300", "--kmax", "20"],
    ["maxvert", "--n1", "600", "--n2", "600"],
    ["sample-gibbs", "--beta1", "1e-4", "--beta2", "1e-4"],
    # the small-k initializer's rate 1e-12 would size a 2e15-pair Mobius sum
    ["calibrate", "--n1", "1000000000000", "--n2", "1", "--k", "1", "--exact"],
    # sizes whose arrays would not fit, refused before they are allocated
    ["curve", "--mesh", "100000000000"],
    ["mixed-shapes", "--mesh", "100000000000", "--format", "svg"],
    # each curve fits the mesh budget, the four together do not
    ["mixed-shapes", "--format", "svg", "--mesh", "1000000", "--grid", "0,1,2,3"],
    # each csv or json row is one mixed_length, priced as 1,000 mesh points
    ["mixed-shapes", "--grid", ",".join(["0"] * 3001)],
    ["shape-distance", "--line", "-", "--mesh", "100000000000"],
    ["jarnik", "--samples", "2", "--mesh", "100000000000"],
    ["sample-valtr", "--n", "100000000000000", "--k", "10000000000000"],
    # k/P = 4.55e8 edges fit, 1/P = 2.28e7 attempts do not
    ["sample-valtr", "--n", "30", "--k", "20"],
])
def test_over_budget_is_resource_error(capsys, argv):
    with mock.patch.object(sys, "stdin", io.StringIO(_PIN_LINE)):
        rc, out, err = run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "over the budget" in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sample-valtr", "--n", "30", "--k", "25"],  # refused by its acceptance bound
    ["shape-distance", "--line", "/nonexistent/line.json"],
])
def test_library_failure_is_one_error_line(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_truncation_bound_outside_double_range_is_one_error_line(capsys):
    # the tail bound divides by beta^2 = 1e-400, which underflows to 0
    rc, out, err = run(capsys, ["jarnik", "--beta", "1e-200", "--trunc", "1e-210",
                                "--samples", "2"])
    assert rc == 2 and out == ""
    assert err.startswith("error: the euclidean truncation bound at rate 1e-200 is not finite")
    assert len(err.strip().splitlines()) == 1


def test_truncation_below_every_site_energy_reaches_the_draws(capsys):
    # at T = 5e-324 the site set is empty and the tail bound finite, so the
    # run fails on its empty draws, not on the bound
    rc, out, err = run(capsys, ["jarnik", "--beta", "1", "--trunc", "5e-324", "--samples", "3"])
    assert rc == 2 and out == ""
    assert err == ("error: none of the 3 sampled lines leaves both axes, so there is no length "
                   "or shape to check; lower beta\n")


@pytest.mark.parametrize("argv", [
    ["sample-gibbs", "--beta1", "0.3", "--beta2", "0.3", "--count", "0"],
    ["sample-gibbs", "--beta1", "0.3", "--beta2", "0.3", "--count", "-1"],
    ["sample-valtr", "--n", "100", "--k", "3", "--count", "0"],
    ["suite", "--name", "jarnik", "--samples", "0"],
    ["suite", "--name", "jarnik", "--samples", "1"],
    ["jarnik", "--beta", "0.3", "--samples", "1"],  # no standard error
    ["jarnik", "--beta", "5", "--samples", "2"],  # every sampled line empty
    ["curve", "--curve", "mixed", "--lambda-ell", "inf"],  # non-finite lambda_ell
    ["mixed-shapes", "--grid", "1e309"],  # a grid value past double range
    # a site energy whose exp(-E) rounds to 1
    ["sample-gibbs", "--beta1", "1e-300", "--beta2", "1", "--trunc", "1e-300"],
    ["suite", "--name", "shapes", "--samples", "100000000"],  # a suite that draws nothing
])
def test_input_contract_is_one_error_line(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


# one cheap argv per subcommand, each of which gets as far as writing its output
_CHEAP = {
    "count": ["--n1", "2", "--n2", "2", "--kmax", "1"],
    "maxvert": ["--n1", "6", "--n2", "6"],
    "calibrate": ["--n1", "300", "--n2", "300", "--k", "34"],
    "sample-gibbs": ["--beta1", "0.3", "--beta2", "0.3"],
    "sample-valtr": ["--n", "100", "--k", "3"],
    "shape-distance": ["--line", "-"],
    "asymptotics-table": ["--ell-grid", "0.5:1:0.25"],
    "jarnik": ["--beta", "0.1", "--samples", "2", "--mesh", "100"],
    "mixed-shapes": [],
    "curve": [],
    "suite": ["--name", "shapes"],
}


@pytest.mark.parametrize("missing_dir", [True, False])
@pytest.mark.parametrize("command", sorted(_CHEAP))
def test_an_unwritable_out_is_one_error_line(tmp_path, capsys, command, missing_dir):
    dest = str(tmp_path / "missing" / "x" if missing_dir else tmp_path)
    with mock.patch.object(sys, "stdin", io.StringIO(_PIN_LINE)):
        rc, out, err = run(capsys, [command, *_CHEAP[command], "--out", dest])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {dest!r}: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


_EXACT = ["calibrate", "--n1", "300", "--n2", "300", "--k", "34", "--exact"]


@pytest.mark.parametrize("argv,name", [
    (["shape-distance", "--assert-below", "nan"], "--assert-below"),
    (["shape-distance", "--assert-below", "inf"], "--assert-below"),
    (["shape-distance", "--scale", "inf,1"], "scale"),
    (["shape-distance", "--scale", "nan,1"], "scale"),
    (["shape-distance", "--ratio", "nan"], "ratio"),
    (["shape-distance", "--curve", "mixed", "--lambda-ell", "inf"], "lambda_ell"),
    (["curve", "--ratio", "inf"], "ratio"),
    ([*_EXACT, "--trunc", "nan"], "trunc"),
    ([*_EXACT, "--trunc", "inf"], "trunc"),
    ([*_EXACT, "--trunc", "0"], "trunc"),
    ([*_EXACT, "--trunc", "-1"], "trunc"),
    (["asymptotics-table", "--ell-grid", "nan:1:0.1"], "--ell-grid"),
    (["asymptotics-table", "--ell-grid", "0.5:inf:1"], "--ell-grid"),
    # and inputs refused before any work: a grid over the row budget, counted
    # before it is built, and a scale component that is not a number
    (["asymptotics-table", "--ell-grid", "0.5:1:1e-6"],
     "--ell-grid '0.5:1:1e-6' needs ~500,001 rows"),
    (["asymptotics-table", "--ell-grid", "0:1e9:1e-9"],
     "--ell-grid '0:1e9:1e-9' needs ~1,000,000,000,000,000,001 rows"),
    (["shape-distance", "--scale", "a,1"], "--scale component 'a'"),
    (["shape-distance", "--scale", "1,b"], "--scale component 'b'"),
    # a scale that leaves the points finite but their distances not, and
    # one that takes the points out of double range
    (["shape-distance", "--scale", "1e-300,1"], "not finite"),
    (["shape-distance", "--scale", "1e-320,1"], "scale (1e-320, 1.0) takes the line's points"),
])
def test_non_finite_input_is_usage_error(line_file, capsys, argv, name):
    if argv[0] == "shape-distance":
        argv = [*argv, "--line", str(line_file)]
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and name in err
    assert len(err.strip().splitlines()) == 1


def test_unbounded_calibration_quotes_the_capacity_as_a_limit(capsys):
    # density 1.063 fails in a 60x3 box although the large-n capacity is 1.399
    rc, out, err = run(capsys, ["calibrate", "--n1", "60", "--n2", "3",
                                "--k", "6", "--exact"])
    assert rc == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    message = err[len("error: "):]
    assert "exceeds" not in message
    assert "1.063" in message and "tends to 1.399" in message


def _python(*args, timeout=120):
    # a fresh interpreter on the package under test
    import convexchain
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(convexchain.__file__)))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def _cli_subprocess(argv, timeout=120):
    # pytest captures warnings in-process, so these runs need their own
    # interpreter to show what a user sees on stderr
    return _python("-m", "convexchain.cli", *argv, timeout=timeout)


def test_readme_quick_start_runs():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        block = fh.read().split("```python\n", 1)[1].split("```", 1)[0]
    done = _python("-c", block)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 3


def test_library_warning_is_one_line_or_dropped():
    ok = _cli_subprocess(["sample-valtr", "--n", "100", "--k", "5"])
    assert ok.returncode == 0 and ok.stdout
    assert ok.stderr.startswith("warning: k^3 = 125 >= n = 100")
    assert len(ok.stderr.splitlines()) == 1
    # refused before the regime warning, so only the error line is left
    failed = _cli_subprocess(["sample-valtr", "--n", "30", "--k", "25"])
    assert failed.returncode == 2 and failed.stdout == ""
    assert failed.stderr.startswith("error: sample_valtr(n=30, k=25) x 1 needs ~3.67e+14 edges "
                                    "drawn, over the budget 800,000,000")
    assert len(failed.stderr.splitlines()) == 1


def test_hopeless_valtr_draw_is_refused_at_once():
    # its acceptance bound refuses it before the first draw, where the
    # rejection loop would take about a minute
    done = _cli_subprocess(["sample-valtr", "--n", "100000", "--k", "100000"], timeout=20)
    assert done.returncode == 2 and done.stdout == ""
    # k/P = e^199,998 past the float range is printed as itself, not clamped
    assert done.stderr == ("error: sample_valtr(n=100000, k=100000) x 1 needs ~1.25e+86858 "
                           "edges drawn, over the budget 800,000,000\n")


def test_hopeless_gibbs_count_is_refused_at_once():
    # E[K] of the draws' own site set prices the run at ~8 hours before
    # the first draw
    done = _cli_subprocess(["sample-gibbs", "--beta1", "0.5", "--beta2", "0.5",
                            "--count", "100000000"], timeout=20)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: --count 100000000 needs ~1.63e+10 support entries, "
                                  "over the budget 20,000,000")
    assert len(done.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["jarnik", "--samples", "100000000"],  # ~57 hours of draws at beta 0.05
    ["suite", "--name", "jarnik", "--samples", "100000000"],  # three betas priced at once
    ["sample-valtr", "--n", "10000", "--k", "20", "--count", "100000000"],  # ~5.5 hours
])
def test_hopeless_draw_counts_are_refused_at_once(argv):
    done = _cli_subprocess(argv, timeout=20)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and ", over the budget " in done.stderr
    assert len(done.stderr.splitlines()) == 1


_SMALL_INT = st.integers(-2, 6)
_FLOATS = st.sampled_from(["0.3", "1", "5", "0", "-1", "-0.7071", "1e300", "nan", "inf",
                           "x"])
_ARGV = {
    "count": st.tuples(st.just("--n1"), _SMALL_INT, st.just("--n2"), _SMALL_INT,
                       st.just("--kmax"), _SMALL_INT),
    "maxvert": st.tuples(st.just("--n1"), _SMALL_INT, st.just("--n2"),
                         st.integers(-2, 40)),
    "calibrate": st.tuples(st.just("--n1"), st.integers(-1, 60), st.just("--n2"),
                           st.integers(-1, 60), st.just("--k"), _SMALL_INT,
                           st.sampled_from(["--exact", "--format=json"])),
    "sample-gibbs": st.tuples(st.just("--beta1"), _FLOATS, st.just("--beta2"), _FLOATS,
                              st.just("--fugacity"), _FLOATS,
                              st.just("--count"), _SMALL_INT),
    "sample-valtr": st.tuples(st.just("--n"), st.integers(-1, 40), st.just("--k"),
                              _SMALL_INT, st.just("--count"), _SMALL_INT),
    "shape-distance": st.tuples(st.just("--line"),
                                st.sampled_from(["/nonexistent/line.json", "-"]),
                                st.just("--mesh"), st.integers(-1, 150)),
    "asymptotics-table": st.tuples(
        st.just("--ell-grid"),
        st.sampled_from(["0.5:1:0.25", "1:0:1", "a:b:c", "0:1:0.5", "-1:1:1",
                         "0.001:2:0.7", "1e300:1e300:1", "1:2"])),
    "jarnik": st.tuples(st.just("--beta"), st.sampled_from(["0.3", "5", "0", "nan"]),
                        st.just("--samples"), st.integers(-1, 3),
                        st.just("--mesh"), st.sampled_from([50, 100])),
    "mixed-shapes": st.tuples(st.just("--grid"),
                              st.sampled_from(["0,1", "-0.5", "-0.7071", "-1", "1e300",
                                               "x", "nan", ""]),
                              st.just("--mesh"), st.integers(-1, 20), st.just("--format"),
                              st.sampled_from(["csv", "json", "svg"])),
    "curve": st.tuples(st.just("--curve"),
                       st.sampled_from(["parabola", "circle", "mixed", "line"]),
                       st.just("--ratio"), _FLOATS, st.just("--lambda-ell"), _FLOATS,
                       st.just("--mesh"), st.integers(-1, 20)),
    "suite": st.tuples(st.just("--name"), st.sampled_from(["shapes", "mixed", "nonsense"]),
                       st.just("--samples"), _SMALL_INT),
}


@pytest.mark.parametrize("command", sorted(_ARGV))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_any_small_argv_keeps_the_outcome_contract(command, data):
    argv = [command, *map(str, data.draw(_ARGV[command]))]
    out, err = io.StringIO(), io.StringIO()
    # shape-distance reads "-" from stdin, so give it an empty one
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO("")):
        rc = main(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


_HUGE = st.sampled_from([10**11, 10**15])
# flags that only a refusal can answer: a mesh, Valtr edge count, scale or
# draw count past what the arrays, floats or a minute can hold
_OVERSIZE = {
    "curve": st.tuples(st.just("--curve"), st.sampled_from(["parabola", "circle", "mixed"]),
                       st.just("--format"), st.sampled_from(["csv", "svg"]),
                       st.just("--mesh"), _HUGE),
    "mixed-shapes": st.tuples(st.just("--format"), st.just("svg"), st.just("--mesh"), _HUGE),
    "shape-distance": st.tuples(st.just("--line"), st.just("-"), st.sampled_from(
        [("--mesh", 10**11), ("--mesh", 10**15), ("--scale", "1e-300,1"),
         ("--scale", "1,1e-300")])).map(lambda a: (*a[:2], *a[2])),
    "jarnik": st.one_of(st.tuples(st.just("--samples"), st.just(2), st.just("--mesh"), _HUGE),
                        st.tuples(st.just("--samples"), st.sampled_from([10**8, 10**15]))),
    "suite": st.tuples(st.just("--name"), st.just("jarnik"), st.just("--samples"),
                       st.sampled_from([10**8, 10**15])),
    "sample-valtr": st.one_of(
        st.tuples(st.just("--n"), st.sampled_from([10**13, 10**14]),
                  st.just("--k"), st.just(10**13)),
        st.tuples(st.just("--n"), st.just(10**4), st.just("--k"), st.just(20),
                  st.just("--count"), st.sampled_from([10**8, 10**15]))),
    # ~8 hours of draws at E[K] = 3.2, predicted before the first
    "sample-gibbs": st.tuples(st.just("--beta1"), st.just(0.5), st.just("--beta2"), st.just(0.5),
                              st.just("--count"), st.sampled_from([10**8, 10**15])),
}


@pytest.mark.parametrize("command", sorted(_OVERSIZE))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_any_oversize_argv_is_refused(command, data):
    argv = [command, *map(str, data.draw(_OVERSIZE[command]))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO(_PIN_LINE)):
        rc = main(argv)
    assert rc == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["curve", "--ratio", "1e-300"],
    ["curve", "--ratio", "1e-300", "--format", "svg"],
    ["curve", "--ratio", "1e300"],
    ["shape-distance", "--line", "-", "--ratio", "1e-300"],
])
def test_extreme_ratio_prints_no_nan(capsys, argv):
    with mock.patch.object(sys, "stdin", io.StringIO(_PIN_LINE)):
        rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert "nan" not in out.lower()


# ---------------------------------------------------------------------------
# calibration


def test_calibrate_asymptotic_json(capsys):
    rc, out, _ = run(capsys, ["calibrate", "--n1", "1000000",
                              "--n2", "1000000", "--k", "20"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["mode"] == "asymptotic"
    assert payload["beta1"] == pytest.approx(20 / 1e6, rel=1e-12)
    assert payload["fugacity"] == pytest.approx(20**3 / 1e12, rel=1e-12)


def test_calibrate_exact_json(capsys):
    rc, out, _ = run(capsys, ["calibrate", "--n1", "300", "--n2", "300",
                              "--k", "5", "--exact"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["mode"] == "exact"
    assert payload["converged"] is True
    assert max(payload["residuals"]) <= 1e-6


def test_calibrate_infeasible_exits_one(capsys):
    rc, _, err = run(capsys, ["calibrate", "--n1", "300", "--n2", "300",
                              "--k", "68", "--exact"])
    assert rc == 1
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


# sha256 of the stdout bytes, frozen before `gibbs._linear_log_z` took over
# the kernel choice: (306, 306, 39) crosses lambda = 2 on its way down,
# (40, 40, 14) ends at lambda ~ 22.8 on the per-site kernel, and
# (300, 300, 5) stays on the Mobius kernel; the two sample-gibbs digests
# were frozen again when the sampler moved to its block stream, and the two
# calibrations ending at lambda <= 2 when their report moved to the kernel
# (residuals with the tail bound; the parameters are pinned below); the two
# sample-valtr digests were frozen before the Valtr sampler took the shared
# slope order, and the n = 100 run rejects one draw for a parallel pair.
# The first two moved in their last digits when scipy left the library:
# (306, 306, 39) with the initializer's root (the Illinois root and the
# closed-form Li3 inside c), (40, 40, 14) with the numpy logistic of the
# per-site kernel it ends on.  Those two and the JSON table moved again when
# ZETA2 and ZETA3 became the correctly rounded doubles, one ulp below the
# old ones (from 0df74e7e..., e577ee86... and 0a64b48b...)
@pytest.mark.parametrize("argv,digest", [
    (["calibrate", "--n1", "306", "--n2", "306", "--k", "39", "--exact"],
     "49878d1706d71b5201d3d8b96c1c33cb6d2c7bae7892cfb4ebb1784fa949917b"),
    (["calibrate", "--n1", "40", "--n2", "40", "--k", "14", "--exact"],
     "6892e4aca830148daec783438e8132914458325373423a20bb236815bb734b79"),
    (["calibrate", "--n1", "300", "--n2", "300", "--k", "5", "--exact"],
     "fd9edd1ebca9632aaac8d40eef4fd9b8f709f336e66e9e6ff6efdeb51586afa7"),
    (["sample-gibbs", "--beta1", "0.1", "--beta2", "0.2", "--fugacity", "3",
      "--count", "5"],
     "f8c8f37011f00c9a54dcd19c01dfbdd0923d1c5ab5ef28c1497c045a7d26e11e"),
    (["sample-gibbs", "--beta1", "0.03", "--beta2", "0.01", "--fugacity", "0.5",
      "--trunc", "25", "--count", "3"],
     "d0f41ac697fbde4d8ad1f9fd8093dc04f07877e8e7cebbed7cb134e6cc0ad5cf"),
    (["sample-valtr", "--n", "10000", "--k", "20", "--count", "20", "--seed", "3"],
     "fc26c62f452e4acd27c4948c32e617d1d263e34ea73e7add9f51ffdf7b572cb1"),
    (["sample-valtr", "--n", "100", "--k", "4", "--count", "200", "--seed", "1"],
     "829b37a451aef9a8247e3b332017474cdc96f046e08ddde2881c7f82593046a9"),
    # the count path: the table's rows, the vertex maximum and the suite
    (["count", "--n1", "100", "--n2", "100", "--kmax", "10"],
     "47aab52f2b5176ea51ac292969f669ad4ad19abe53410be3a497ca9f3ab1361e"),
    (["count", "--n1", "100", "--n2", "100", "--kmax", "10", "--format", "json"],
     "68081dfeb116a6576eaf006a42fd78f953c8df58afe6cc5b68313c87ef4bd2e5"),
    (["suite", "--name", "counting"],
     "7dc7f5133813d0703d127a249ce0d9d31fe03df297c8cd7f917efad3bcf89e7f"),
    (["maxvert", "--n1", "300", "--n2", "300"],
     "0667a6d6be5d59c34a4f0b4a87b4aaa6638015c0214c2f183e66469ec742e9f4"),
    # the two outputs no other test runs: the calibration suite's report and
    # the JSON table
    (["suite", "--name", "calibration"],
     "527e9a76472a278f7625512e4969d594a71942a287ba50bb686ac9678032e03f"),
    (["asymptotics-table", "--ell-grid", "0.25:4:0.25", "--format", "json"],
     "8f03be98f3af70291a932c51282ec1495a40f14e2bb4a4da3e8fb06678ba9678"),
    # an empty site set (E(1, 0) = 1 > T): the sampler's empty draws
    (["sample-gibbs", "--beta1", "1", "--beta2", "1", "--trunc", "0.5", "--count", "2"],
     "85aff4b3a592e90efa398a46758f44c3a2ecabfb85a35ad7f2325ad219df1069"),
])
def test_kernel_outputs_are_frozen(capsys, argv, digest):
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# beta1, beta2, fugacity and iterations of the two lambda <= 2 payloads above,
# frozen from the report built on the site sums: the kernel report moved only
# the residuals and the free energy.  The (306, 306, 39) values were frozen
# again with its digest; from the new initializer Newton ends one ulp apart
# in beta1 and beta2 (the parent's 0x1.46dca185ca256p-3 for both, and
# 0x1.e6cc3823609e5p+0 for the fugacity, all within 2e-15), and again with the
# correctly rounded zeta constants (from 0x1.46dca185ca25ap-3,
# 0x1.46dca185ca259p-3 and 0x1.e6cc3823609f2p+0, all within 2e-15)
# `beta` is the hex of beta1 == beta2, or the pair (beta1, beta2)
@pytest.mark.parametrize("n,k,beta,fugacity", [
    (306, 39, ("0x1.46dca185ca25dp-3", "0x1.46dca185ca25bp-3"), "0x1.e6cc382360a02p+0"),
    (300, 5, "0x1.0f7a3e3f394b1p-6", "0x1.63c48d0305a55p-10"),
])
def test_kernel_report_keeps_the_parameters(capsys, n, k, beta, fugacity):
    rc, out, _ = run(capsys, ["calibrate", "--n1", str(n), "--n2", str(n),
                              "--k", str(k), "--exact"])
    assert rc == 0
    payload = json.loads(out)
    betas = (beta, beta) if isinstance(beta, str) else beta
    assert (float.hex(payload["beta1"]), float.hex(payload["beta2"])) == betas
    assert float.hex(payload["fugacity"]) == fugacity
    assert payload["iterations"] == 3


def test_calibrate_tail_bound_alone_fails_a_short_truncation(capsys):
    # the kernel solves the untruncated measure, so the parameters are those
    # of the default truncation; at T = 15 the truncated E[K] misses k by
    # 2.7e-6, and only the tail bound in the residual shows it
    argv = ["calibrate", "--n1", "30", "--n2", "30", "--k", "4", "--exact"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    full = json.loads(out)
    rc, out, _ = run(capsys, argv + ["--trunc", "15"])
    assert rc == 1
    short = json.loads(out)
    assert short["converged"] is False
    assert [short[key] for key in ("beta1", "beta2", "fugacity")] == \
        [full[key] for key in ("beta1", "beta2", "fugacity")]
    rep = moments(GibbsParams(EnergyModel.linear(short["beta1"], short["beta2"]),
                              short["fugacity"], 15.0))
    assert abs(rep.EK - 4) / 4 > 1e-6
    assert short["residuals"][2] >= abs(rep.EK - 4) / 4


def test_calibrate_not_converged_exits_one(capsys):
    # a truncation this small leaves no sites: the report is still printed,
    # but the failed calibration is a failed check
    rc, out, _ = run(capsys, ["calibrate", "--n1", "30", "--n2", "30",
                              "--k", "4", "--exact", "--trunc", "1e-300"])
    assert rc == 1
    assert json.loads(out)["converged"] is False


# ---------------------------------------------------------------------------
# samplers


def test_sample_gibbs_jsonl_echo_and_determinism(capsys):
    argv = ["sample-gibbs", "--beta1", "0.2", "--beta2", "0.3",
            "--fugacity", "0.8", "--count", "3", "--seed", "7"]
    rc, out1, _ = run(capsys, argv)
    assert rc == 0
    rc, out2, _ = run(capsys, argv)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert len(lines) == 3
    seeds = set()
    for line in lines:
        rec = json.loads(line)
        assert rec["params"]["beta1"] == 0.2
        assert rec["params"]["fugacity"] == 0.8
        seeds.add(rec["seed"])
        omega = MultiplicityDistribution(
            {(x, y): m for x, y, m in rec["support"]})
        assert all(m >= 1 for m in omega.support.values())
    assert len(seeds) == 3


@pytest.mark.parametrize("flags", [
    ["--beta1", "nan", "--beta2", "0.1"],
    ["--beta1", "0.1", "--beta2", "0.1", "--fugacity", "inf"],
])
def test_sample_gibbs_non_finite_is_usage_error(capsys, flags):
    rc, out, err = run(capsys, ["sample-gibbs"] + flags)
    assert rc == 2
    assert out == ""
    assert "finite" in err


def test_sample_gibbs_seed_changes_output(capsys):
    base = ["sample-gibbs", "--beta1", "0.2", "--beta2", "0.2"]
    _, out_a, _ = run(capsys, base + ["--seed", "0"])
    _, out_b, _ = run(capsys, base + ["--seed", "1"])
    assert out_a != out_b


def test_sample_valtr_jsonl(capsys):
    rc, out, _ = run(capsys, ["sample-valtr", "--n", "80", "--k", "4",
                              "--count", "2", "--seed", "5"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        rec = json.loads(line)
        assert rec["vertices"][0] == [0, 0]
        assert rec["vertices"][-1] == [80, 80]
        assert len(rec["vertices"]) == 5


# ---------------------------------------------------------------------------
# shapes


@pytest.fixture()
def line_file(tmp_path):
    poly = sample_valtr(2000, 12, seed=11)
    path = tmp_path / "line.json"
    path.write_text(polyline_json(poly))
    return path


def test_shape_distance_auto_scale(line_file, capsys):
    rc, out, _ = run(capsys, ["shape-distance", "--line", str(line_file)])
    assert rc == 0
    payload = json.loads(out)
    assert payload["curve"] == "parabola"
    assert 0.0 < payload["distance"] < 0.5


def test_shape_distance_assert_below(line_file, capsys):
    rc, out, _ = run(capsys, ["shape-distance", "--line", str(line_file),
                              "--assert-below", "0.5"])
    assert rc == 0
    assert json.loads(out)["pass"] is True
    rc, out, _ = run(capsys, ["shape-distance", "--line", str(line_file),
                              "--assert-below", "1e-6"])
    assert rc == 1
    assert json.loads(out)["pass"] is False


def test_shape_distance_explicit_scale_and_svg(line_file, capsys):
    rc, out, _ = run(capsys, ["shape-distance", "--line", str(line_file),
                              "--scale", "2000,2000", "--format", "svg"])
    assert rc == 0
    assert out.startswith("<svg")


def test_shape_distance_bad_scale_is_usage_error(line_file, capsys):
    rc, _, err = run(capsys, ["shape-distance", "--line", str(line_file),
                              "--scale", "2000"])
    assert rc == 2
    assert "scale" in err


@pytest.mark.parametrize("text", [
    '{"vertices": [[0, 0], [1]]}',
    '{"vertices": 5}',
    '[1, 2]',
    '{"vertices": [[0, 0], [3, 1, 7]]}',
    '{"vertices": [[0, 0], [3.7, 1]]}',
    '{"vertices": [[0, 0], [true, 1]]}',
])
def test_shape_distance_malformed_line_is_usage_error(tmp_path, capsys, text):
    # short, long, float and boolean rows and non-list shapes: one error
    # line, no traceback, nothing accepted with a coordinate dropped
    path = tmp_path / "line.json"
    path.write_text(text)
    rc, out, err = run(capsys, ["shape-distance", "--line", str(path)])
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "vertices" in err


def test_curve_csv_and_svg(capsys):
    rc, out, _ = run(capsys, ["curve", "--curve", "circle", "--mesh", "120"])
    assert rc == 0
    assert out.splitlines()[0] == "t,x,y"
    rc, out, _ = run(capsys, ["curve", "--format", "svg", "--mesh", "120"])
    assert rc == 0
    assert out.startswith("<svg")


def test_mixed_shapes_csv(capsys):
    rc, out, _ = run(capsys, ["mixed-shapes", "--grid", "0,1"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda_ell,length"
    first = float(lines[1].split(",")[1])
    assert first == pytest.approx(1.6232252401, abs=1e-8)


def test_mixed_shapes_svg(capsys):
    rc, out, _ = run(capsys, ["mixed-shapes", "--grid", "0,2",
                              "--format", "svg", "--mesh", "60"])
    assert rc == 0
    assert out.startswith("<svg") and out.count("<polyline") == 2


def test_mixed_shapes_svg_bytes_are_frozen(capsys):
    # the default five-curve picture, frozen as a digest: the shared SVG
    # writer in `shapes` must reproduce it byte for byte
    rc, out, _ = run(capsys, ["mixed-shapes", "--format", "svg"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ab280e6c314b1aaad98abc876d451bce43484c75b4f183bfefba96685867695b")


# sha256 of the stdout bytes of the curve outputs, frozen before the scalar
# and mesh evaluators of `shapes` became one; shape-distance reads _PIN_LINE.
# The last two were frozen after it: the parabola's a-form moved them in
# their last digits (from f85fff17... and 4415372f...).  The four mixed
# outputs of full precision moved in their last digits when the family's
# integrands dropped the (lambda+1)^3 they divided out again (from
# 2d9d050d..., 5005ee71..., 0c3eed87... and 0735f600...)
@pytest.mark.parametrize("argv,digest", [
    (["curve"], "24894bd950b87542230d13ffb311c4db4730f10d9b76464749f08bf5b3cb6408"),
    (["curve", "--format", "svg"],
     "7fc04516c0806820a2f3acbb5de210f29a3bc29ba29e126c823f845b38776a90"),
    (["curve", "--curve", "circle"],
     "c79545f1ebe1542962aa873bb6bc94bfdf570d7f76a5a34f1d0c5aa4e359dab6"),
    (["curve", "--curve", "mixed", "--lambda-ell", "0.5"],
     "b8e5c01a81116256e2ce5f064dee515ca58fb139b88245ea422cf4207e5fd54b"),
    (["curve", "--ratio", "2.5", "--mesh", "333"],
     "8eaaff1b4db5692ecc85b6795ea85ff7de159eb51bc63f9e9552d9fc945ff1c1"),
    (["mixed-shapes"], "fbd7501d6405f85abcb17238167fb9c584ea84cc788c6c58f1a3da0cca94ab94"),
    (["mixed-shapes", "--format", "json"],
     "9b6e0f50f285d7a1ac60bb548ea92b92779dd7733f68f70c3506eb7ccfc30dd5"),
    (["suite", "--name", "mixed"],
     "43c913a21a707a7a0630506ddcef1073c906bb8f711e18f7df6fa6477c309cef"),
    (["shape-distance", "--line", "-", "--curve", "circle"],
     "7ea41b60e93ce9384ccb3f24429a32b627e40a7ada98caff0e21d0a3d8b10b95"),
    (["shape-distance", "--line", "-", "--curve", "mixed", "--lambda-ell", "0.5"],
     "b5fa1fc16adaa4207e8d9c82180cd19ea99316f6b66b6beaf57364922955016e"),
    (["suite", "--name", "shapes"],
     "e6cb65cbdb2ba4b2ec4783811bac974c48d60ced6992257795f1a39a2ae95e95"),
    (["shape-distance", "--line", "-"],
     "1f389303909aaf406dde1f8e486225da66778d5b675f66fdb998d1a7e51effcb"),
])
def test_curve_outputs_are_frozen(capsys, argv, digest):
    with mock.patch.object(sys, "stdin", io.StringIO(_PIN_LINE)):
        rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_mixed_shapes_bad_grid_is_usage_error(capsys):
    rc, _, _ = run(capsys, ["mixed-shapes", "--grid", "0,zap"])
    assert rc == 2


# ---------------------------------------------------------------------------
# asymptotics table


def test_asymptotics_table_csv(capsys):
    rc, out, _ = run(capsys, ["asymptotics-table",
                              "--ell-grid", "0.5:1.5:0.5"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ell,c,e"
    assert len(lines) == 4
    ell, c, e = (float(v) for v in lines[2].split(","))
    assert ell == 1.0
    assert c == pytest.approx(0.7493196997, abs=1e-9)
    assert e == pytest.approx(2.7021747532, abs=1e-9)


def test_asymptotics_table_bad_grid(capsys):
    for bad in ("1:2", "2:1:0.5", "a:b:c", "1:2:0"):
        rc, _, _ = run(capsys, ["asymptotics-table", "--ell-grid", bad])
        assert rc == 2


# ---------------------------------------------------------------------------
# suites and config files


def test_suite_shapes_passes(capsys):
    rc, out, _ = run(capsys, ["suite", "--name", "shapes"])
    assert rc == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(row["pass"] for row in report["rows"])


def test_suite_unknown_name_is_usage_error(capsys):
    rc, _, _ = run(capsys, ["suite", "--name", "astrology"])
    assert rc == 2


def test_config_file_splice(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n1 = 3\n# a comment\n\nn2=3\nkmax=2\n")
    rc, out, _ = run(capsys, ["count", "--config", str(cfg)])
    assert rc == 0
    assert out.strip().splitlines()[-1] == "3,3,2,6"


def test_explicit_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n1=3\nn2=3\nkmax=3\n")
    rc, out, _ = run(capsys, ["count", "--config", str(cfg), "--kmax", "1"])
    assert rc == 0
    assert all(line.split(",")[2] == "1" for line in out.splitlines()[1:])


def test_malformed_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n1 3\n")
    rc, _, err = run(capsys, ["count", "--config", str(cfg)])
    assert rc == 2
    assert "key=value" in err


def test_missing_config_is_usage_error(capsys):
    rc, _, _ = run(capsys, ["count", "--config", "/does/not/exist.cfg"])
    assert rc == 2
