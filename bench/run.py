"""Benchmark driver for convexchain.

    python3 bench/run.py --workload {count,calibrate,sample} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py [--seed N] [--seconds S]     # every workload

Closed loop, one client: the driver starts one fresh interpreter at a time
(bench/round.py), each running the workload's whole call sequence once, cold,
as every CLI call pays it.  Full rounds (at least MIN_FULL) take about
FULL_SHARE of `--seconds`; between them run rounds that stop after the first
operation, for more samples of the short first result (at least MIN_FIRST
first results in all).  Every round runs with the BLAS and OpenMP thread
variables capped at the CPU count and with PYTHONHASHSEED=0.  The end-to-end
metrics:

  setup_s           spawn of a fresh interpreter to `import convexchain`
                    done; median over all rounds
  first_result_ref  import done to the end of the first operation's calls,
                    in reference units; mean over all rounds, which spread
                    less than their median over seeds (7% against 11% on
                    calibrate, whose first operation takes 0.2 s)
  wall_ref          timed library calls of the whole sequence, in reference
                    units: the sum over operations of each one's median over
                    the full rounds
  peak_rss_mb       peak resident memory of a full round's process; the
                    smallest over the full rounds, because at random a
                    calibrate round holds 60 MB more (799 or 858 MB)

A reference unit is the mean time of a fixed pure-Python loop
(round.reference_loop) sampled by a timer all through the same round (for
first_result, up to just after the first operation), so these two read as
"how many loop-times the library took".  On the shared 2-core host the
benchmark was built on, the same pure-Python loop takes from 1x to 2x its
fastest time, in phases of a fraction of a second to minutes, and numpy-bound
code slows less than that.  Over 10 seeds per workload the spread (quartile
distance over median) of the raw seconds was 8-14% for first_result and
7-15% for wall, and in reference units 1-8% and 2-4%.  The raw seconds
(`first_result_s`, `wall_s`) are still measured, written to the record in
bench/out/ and printed by the all-workloads command.

Checks run outside the timers.  An operation fails if it raises or fails a
check; `failed` / `attempted` is the failure fraction, and any failure makes
`correct` false.  The work counters (cell updates, table entries, sites,
Newton iterations, ...) must repeat exactly between the rounds of a run; that
self-check counts as one more operation.

With `--trace 1` the driver runs one untraced full round of the named
workload, then one traced round of every workload (spans around the public
calls, see round.py), and a few interpreters that import only scipy; it
prints the per-layer metrics (bench/metrics.json says which end-to-end metric
each should move).  `trace_overhead_s` is the named workload's traced wall_s
minus its untraced wall_s, in seconds from one round each, so the host's noise
can make it negative.

The last stdout line is the JSON result.  The full record (environment,
rounds, spans) goes to bench/out/.  Without `--workload` the driver runs every
workload, prints each end-to-end metric by name and unit, and exits 1 if any
operation failed.  Exit 2 means the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PACKAGE = os.path.join(ROOT, "src", "convexchain")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("count", "calibrate", "sample")
FULL_SHARE = 0.75
MIN_FULL = 2
MIN_FIRST = 5
SCIPY_IMPORTS = 3
ROUND_TIMEOUT_S = 120
SCIPY_MODULES = "scipy.integrate, scipy.optimize, scipy.spatial, scipy.special, scipy.stats"


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # reproducible dict and set order in every round
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


ENV = _env()


def _spawn(argv) -> tuple[dict, float]:
    """Run one child to completion; its last stdout line is a JSON record."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              env=ENV, cwd=ROOT, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv} exceeded {ROUND_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{argv} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), t_spawn


def run_round(workload: str, seed: int, mode: str) -> dict:
    rec, t_spawn = _spawn([os.path.join(BENCH, "round.py"), workload, str(seed), mode])
    rec["setup_s"] = rec["import_done"] - t_spawn
    rec["round_s"] = time.monotonic() - t_spawn
    return rec


def scipy_import_s() -> float:
    code = f"import time; t = time.monotonic(); import {SCIPY_MODULES}; print(time.monotonic())"
    out, t_spawn = _spawn(["-c", code])
    return out - t_spawn


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# -- per-layer metrics from the spans of a traced round -----------------------

def _durations(rec, name, op_prefix=""):
    ops = rec["ops"]
    return [s[4] - s[3] for s in rec["spans"]
            if s[0] == name and ops[s[1]].startswith(op_prefix)]


def _self_times(rec) -> dict:
    spans = rec["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s[2] >= 0:
            child[s[2]] += s[4] - s[3]
    out: dict[str, float] = {}
    for s, c in zip(spans, child):
        layer = s[0].split(".")[0]
        out[layer] = out.get(layer, 0.0) + (s[4] - s[3]) - c
    return out


def layer_metrics(traced: dict) -> dict:
    m = {}
    c = traced["count"]
    large = _durations(c, "counting.count_lines_k", "count.large")
    dp_s = sum(_durations(c, "counting.count_lines_k"))
    m["lattice.primitive_vectors_in_box_ms"] = 1e3 * sum(_durations(c, "lattice.primitive_vectors_in_box"))
    m["lattice.primitive_vectors"] = c["counters"]["lattice.primitive_vectors"]
    m["counting.count_lines_k.large_s"] = sum(large)
    m["counting.count_lines_k.small_ms"] = 1e3 * statistics.median(
        _durations(c, "counting.count_lines_k", "count.small"))
    m["counting.max_vertices_s"] = sum(_durations(c, "counting.max_vertices"))
    for key in ("cell_updates", "table_entries", "max_count_bits"):
        m[f"counting.{key}"] = c["counters"][f"counting.{key}"]
    m["counting.cell_updates_per_s"] = c["counters"]["counting.cell_updates"] / dp_s

    k = traced["calibrate"]
    for op in k["ops"]:
        if op.startswith("calibrate.n"):
            key = op.split(".", 1)[1]
            m[f"calibrate.exact_calibrate.{key}_s"] = sum(_durations(k, "calibrate.exact_calibrate", op))
    m["calibrate.newton_iterations"] = k["counters"]["calibrate.newton_iterations"]
    m["calibrate.asymptotic_params.cold_s"] = _durations(k, "calibrate.asymptotic_params")[0]
    m["calibrate.predicted_log_pnk_ms"] = 1e3 * statistics.median(
        _durations(k, "calibrate.predicted_log_pnk"))
    sweep = _durations(k, "gibbs.moments", "calibrate.moments")
    m["gibbs.moments.cold_ms"] = 1e3 * statistics.median(sweep)
    m["gibbs.sites_per_s"] = k["counters"]["gibbs.sweep_sites"] / sum(sweep)
    m["specialfn.c_of_ell_ms"] = 1e3 * statistics.median(_durations(k, "specialfn.c_of_ell"))
    m["specialfn.e_of_ell_ms"] = 1e3 * statistics.median(_durations(k, "specialfn.e_of_ell"))

    s = traced["sample"]
    m["lattice.omega_to_polyline_ms"] = 1e3 * statistics.median(_durations(s, "lattice.omega_to_polyline"))
    cold, warm = 0.0, []
    for tag in ("linear", "euclidean", "mixed"):
        draws = _durations(s, "gibbs.sample_omega", f"sample.{tag}")
        cold += draws[0]
        warm += draws[1:]
    m["gibbs.sample_omega.cold_s"] = cold
    m["gibbs.sample_omega.p50_ms"] = 1e3 * statistics.median(warm)
    m["gibbs.sample_omega.p90_ms"] = 1e3 * statistics.quantiles(warm, n=10)[-1]
    for key in ("sites", "vertices_per_draw", "occupied_per_site"):
        m[f"gibbs.{key}"] = s["counters"][f"gibbs.{key}"]
    for curve, tag in (("parabola", "linear"), ("circle", "euclidean"), ("mixed", "mixed")):
        m[f"shapes.hausdorff_distance.{curve}_ms"] = 1e3 * statistics.median(
            _durations(s, "shapes.hausdorff_distance", f"sample.{tag}"))
    m["experiments.sample_valtr_ms"] = 1e3 * statistics.median(_durations(s, "experiments.sample_valtr"))

    for workload, rec in traced.items():
        for layer, t in sorted(_self_times(rec).items()):
            m[f"{workload}.{layer}.self_s"] = t
    return m


# -- runs ---------------------------------------------------------------------

def _tally(rounds, repeats) -> tuple[int, int, list]:
    """Operations over all rounds, plus one for the counters of `repeats`
    (rounds of one workload and seed) repeating exactly."""
    attempted = sum(r["attempted"] for r in rounds) + 1
    failures = [f for r in rounds for f in r["failures"]]
    failed = sum(r["failed"] for r in rounds)
    if any(r["counters"] != repeats[0]["counters"] for r in repeats[1:]):
        failed += 1
        failures.append("work counters differ between rounds: "
                        + json.dumps([r["counters"] for r in repeats]))
    return attempted, failed, failures


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Full rounds interleaved with first-result rounds, so that both kinds
    sample the whole run: after each full round, first-result rounds take
    (1 - FULL_SHARE) / FULL_SHARE of its time; a round starts only if one
    like the last of its kind still ends within `seconds`."""
    t0 = time.monotonic()
    full, first = [], []
    owed = 0.0  # first-result time still due after the last full round
    while True:
        left = seconds - (time.monotonic() - t0)
        full_fits = not full or full[-1]["round_s"] <= left
        first_fits = (first or full)[-1]["round_s"] <= left if full else False
        if owed > 0 and first_fits:
            mode = "first"
        elif full_fits or len(full) < MIN_FULL:
            mode = "full"
        elif first_fits or len(full) + len(first) < MIN_FIRST:
            mode = "first"
        else:
            break
        rec = run_round(workload, seed, mode)
        if mode == "full":
            full.append(rec)
            owed = rec["round_s"] * (1.0 - FULL_SHARE) / FULL_SHARE
        else:
            first.append(rec)
            owed -= rec["round_s"]
    rounds = full + first
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "first_result_ref": statistics.fmean(r["first_result_s"] / r["first_ref_s"] for r in rounds),
        "wall_ref": sum(statistics.median(t) for t in zip(
            *([s / statistics.fmean(r["ref_s"]) for s in r["op_s"]] for r in full))),
        "peak_rss_mb": min(r["peak_rss_mb"] for r in full),
        "first_result_s": statistics.median(r["first_result_s"] for r in rounds),
        "wall_s": sum(statistics.median(t) for t in zip(*(r["op_s"] for r in full))),
        "ref_s": statistics.median(s for r in rounds for s in r["ref_s"]),
    }
    return metrics, {"rounds": rounds, "repeats": full}


def measure_traced(workload: str, seed: int) -> tuple[dict, dict]:
    plain = run_round(workload, seed, "full")
    traced = {w: run_round(w, seed, "traced") for w in WORKLOADS}
    metrics = layer_metrics(traced)
    metrics["setup.scipy_import_s"] = statistics.median(
        scipy_import_s() for _ in range(SCIPY_IMPORTS))
    metrics["trace_overhead_s"] = sum(traced[workload]["op_s"]) - sum(plain["op_s"])
    return metrics, {"rounds": [plain, *traced.values()], "repeats": [plain, traced[workload]]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"bench: no convexchain package at {PACKAGE}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    compileall.compile_dir(PACKAGE, quiet=1)
    env = environment()
    os.makedirs(OUT, exist_ok=True)

    if args.workload is None:
        return run_all(spec, args.seed, seconds, env)

    try:
        if args.trace:
            metrics, record = measure_traced(args.workload, args.seed)
            declared = spec["per_layer"]
        else:
            metrics, record = measure(args.workload, args.seed, seconds)
            declared = spec["end_to_end"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    attempted, failed, failures = _tally(record["rounds"], record["repeats"])
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump({"environment": env, "workload": args.workload, "seed": args.seed,
                   "seconds": seconds, "failures": failures, "all_metrics": metrics,
                   **record}, f)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


def run_all(spec: dict, seed: int, seconds: float, env: dict) -> int:
    print(json.dumps(env))
    any_failed = False
    for workload in WORKLOADS:
        try:
            metrics, record = measure(workload, seed, seconds)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        attempted, failed, failures = _tally(record["rounds"], record["repeats"])
        any_failed |= failed > 0
        for f in failures:
            print(f"FAILED {workload}: {f}", file=sys.stderr)
        print(f"{workload}: fail_frac {failed / attempted:.4g} ({failed}/{attempted} operations)")
        units = {d["name"]: d["unit"] for d in spec["end_to_end"]}
        units.update(first_result_s="s", wall_s="s", ref_s="s")
        for name, unit in units.items():
            print(f"  {name:<16} {metrics[name]:12.6g} {unit}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
