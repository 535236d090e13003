"""Command-line interface.

Subcommands cover the library surface: exact counting, calibration, the two
samplers, shape distances, the asymptotic-constant table, the length-model
runner, the mixed-curve family, and the named check suites.  All state comes
from flags or an optional ``--config`` file of ``key=value`` lines (explicit
flags win); stochastic commands default to seed 0, never wall clock.

Each ``_cmd_*`` handler returns its output text and whether its checks
passed; ``main`` writes the text, to ``--out`` or stdout, in one place.
Exit codes: 0 success / all checks pass, 1 check or assertion failure,
2 usage, configuration or resource error (work refused before any of it is
done, a run that gave up, a parameter the numerics cannot handle, or an
``--out`` that cannot be written).
A library warning is one ``warning:`` line on stderr, unless the command
ends in its error message.
"""

import argparse
import contextlib
import dataclasses
import json
import math
import sys
import warnings

import numpy as np

from .calibrate import (
    CalibrationError,
    CalibrationTarget,
    asymptotic_params,
    exact_calibrate,
)
from .counting import count_lines_k, max_vertices
from .experiments import (
    SUITE_NAMES,
    _check_valtr,
    _child_seed,
    run_jarnik,
    run_suite,
    sample_valtr,
)
from .gibbs import DEFAULT_TRUNCATION, EnergyModel, GibbsParams, _check_draws, sample_omega
from .lattice import ConvexPolyline
from .shapes import (
    ShapeCurve,
    hausdorff_distance,
    mixed_length,
    normalize,
    overlay_svg,
    polylines_svg,
)
from .specialfn import c_of_ell, e_of_ell
from .tolerances import MESH_BUDGET, MIXED_ROW_POINTS, TABLE_ROW_BUDGET, check_budget

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    pass


def _at_least(flag, value, low):
    if value < low:
        raise UsageError(f"{flag} must be at least {low}, got {value}")


def _csv(header, rows, fmt):
    """CSV text: the `header` line, then each row %-formatted by `fmt`, newline included."""
    return "".join([header + "\n", *(fmt % tuple(row) for row in rows)])


def report_json(report):
    """Canonical JSON text for a report; the CLI writes all its JSON with it."""
    return json.dumps(report, indent=2, sort_keys=False) + "\n"


def _json_lines(count, seed, draw):
    """One JSON object per draw: draw i takes `_child_seed(seed, i)`, which
    leads its object as "seed", and `draw(child)` gives the other fields."""
    seeds = (_child_seed(seed, i) for i in range(count))
    return "".join(json.dumps({"seed": s, **draw(s)}) + "\n" for s in seeds)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (text, passed), and `main` writes the text


def _cmd_count(args):
    table = count_lines_k(args.n1, args.n2, args.kmax)
    if args.format == "json":
        return report_json({"n1": args.n1, "n2": args.n2, "kmax": args.kmax,
                            "rows": list(table.csv_rows())}), True
    return _csv("n1,n2,k,count", table.csv_rows(), "%d,%d,%d,%s\n"), True


def _cmd_maxvert(args):
    m = max_vertices(args.n1, args.n2)
    return report_json({"n1": args.n1, "n2": args.n2, "max_vertices": m}), True


def _cmd_calibrate(args):
    target = CalibrationTarget(args.n1, args.n2, args.k)
    if args.exact:
        res = exact_calibrate(target, trunc=args.trunc)
        return report_json({"mode": "exact", **dataclasses.asdict(res)}), res.converged
    b1, b2, lam = asymptotic_params(target)
    return report_json({"mode": "asymptotic", "beta1": b1, "beta2": b2,
                        "fugacity": lam}), True


def _cmd_sample_gibbs(args):
    _at_least("--count", args.count, 1)
    params = GibbsParams(EnergyModel.linear(args.beta1, args.beta2), args.fugacity, args.trunc)
    _check_draws(f"--count {args.count}", [(params, args.count)])
    echo = {"beta1": args.beta1, "beta2": args.beta2,
            "fugacity": args.fugacity, "truncation": args.trunc}

    def draw(seed):
        omega = sample_omega(params, seed)
        return {"params": echo,
                "support": [[x[0], x[1], m] for x, m in omega.items_slope_sorted()]}

    return _json_lines(args.count, args.seed, draw), True


def _cmd_sample_valtr(args):
    _at_least("--count", args.count, 1)
    _check_valtr(args.n, args.k, args.count)

    def draw(seed):
        poly = sample_valtr(args.n, args.k, seed=seed)
        return {"n": args.n, "k": args.k, "vertices": poly.xy.tolist()}

    return _json_lines(args.count, args.seed, draw), True


def _load_polyline(path):
    """The line of a `{"vertices": [[x, y], ...]}` file, x and y integers; else ValueError."""
    try:
        with contextlib.nullcontext(sys.stdin) if path == "-" else open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read line file {path!r}: {exc}") from None
    data = json.loads(text)
    rows = data.get("vertices") if isinstance(data, dict) else None
    if not (isinstance(rows, list) and all(
            isinstance(r, list) and len(r) == 2 and all(type(v) is int for v in r)
            for r in rows)):
        raise ValueError('a line must be {"vertices": [[x, y], ...]} with integer x and y')
    return ConvexPolyline(tuple((r[0], r[1]) for r in rows))


def _make_curve(args):
    if args.curve == "parabola":
        return ShapeCurve.parabola(args.ratio)
    if args.curve == "circle":
        return ShapeCurve.circle()
    return ShapeCurve.mixed(args.lambda_ell)


def _cmd_shape_distance(args):
    if args.assert_below is not None and not math.isfinite(args.assert_below):
        raise UsageError(f"--assert-below must be finite, got {args.assert_below}")
    poly = _load_polyline(args.line)
    if args.scale == "auto":
        scale = poly.endpoint()
        if scale[0] == 0 or scale[1] == 0:
            raise UsageError("cannot auto-scale a line with a zero endpoint "
                             "coordinate; pass --scale n1,n2")
    else:
        scale = tuple(_numbers("--scale", args.scale, ",", "n1,n2"))
    curve = _make_curve(args)
    line = normalize(poly, scale)
    d = hausdorff_distance(line, curve, args.mesh)
    payload = {"curve": args.curve, "mesh": args.mesh,
               "scale": [scale[0], scale[1]], "distance": d}
    if args.assert_below is not None:
        payload["assert_below"] = args.assert_below
        payload["pass"] = d <= args.assert_below
    text = overlay_svg(line, curve, args.mesh) if args.format == "svg" else report_json(payload)
    return text, payload.get("pass", True)


def _numbers(flag, spec, sep, form=None):
    """`spec` split at `sep` into numbers, as many as `form` has; bad input names `flag`."""
    pieces = spec.split(sep)
    if form is not None and len(pieces) != len(form.split(sep)):
        raise UsageError(f"{flag} expects {form!r}, got {spec!r}")
    values = []
    for piece in pieces:
        try:
            values.append(float(piece))
        except ValueError:
            raise UsageError(f"non-numeric {flag} component {piece!r} in {spec!r}") from None
    return values


def _parse_grid(spec):
    a, b, step = _numbers("--ell-grid", spec, ":", "start:stop:step")
    if not all(map(math.isfinite, (a, b, step))):
        raise UsageError(f"--ell-grid needs finite components, got {spec!r}")
    if step <= 0 or b < a:
        raise UsageError(f"--ell-grid needs stop >= start and step > 0, got {spec!r}")
    span = (b - a) / step + 1e-9  # overflows to inf for a tiny step
    rows = math.floor(span) + 1 if math.isfinite(span) else math.inf
    check_budget(f"--ell-grid {spec!r}", rows, TABLE_ROW_BUDGET, "rows")
    return [a + i * step for i in range(rows)]


def _cmd_asymptotics_table(args):
    rows = [(ell, c_of_ell(ell), e_of_ell(ell)) for ell in _parse_grid(args.ell_grid)]
    if args.format == "json":
        return report_json({"rows": [
            {"ell": ell, "c": c, "e": e} for ell, c, e in rows]}), True
    return _csv("ell,c,e", rows, "%.12g,%.12g,%.12g\n"), True


def _cmd_jarnik(args):
    report = run_jarnik(args.beta, fugacity=args.fugacity,
                        samples=args.samples, seed=args.seed,
                        truncation=args.trunc, mesh=args.mesh)
    return report_json(report), report["passed"]


def _cmd_mixed_shapes(args):
    grid = _numbers("--grid", args.grid, ",")
    if args.format == "svg":
        # all curves of the grid in one picture, their meshes priced together
        check_budget(f"a grid of {len(grid)} curves at --mesh {args.mesh}", len(grid) * args.mesh,
                     MESH_BUDGET, "points")
        return polylines_svg([(ShapeCurve.mixed(ell).sample(args.mesh), "#1f77b4", "0.003")
                              for ell in grid]), True
    check_budget(f"a grid of {len(grid)} lengths", len(grid) * MIXED_ROW_POINTS, MESH_BUDGET,
                 "points")
    if args.format == "json":
        return report_json({"rows": [
            {"lambda_ell": ell, "length": mixed_length(ell)} for ell in grid]}), True
    return _csv("lambda_ell,length", [(ell, mixed_length(ell)) for ell in grid],
                "%.12g,%.12g\n"), True


def _cmd_curve(args):
    curve = _make_curve(args)
    if args.format == "svg":
        empty = normalize(np.zeros((1, 2)), (1.0, 1.0))
        return overlay_svg(empty, curve, args.mesh), True
    pts = curve.sample(args.mesh)  # checks the mesh before the grid is built
    t = np.linspace(0.0, 1.0, args.mesh + 1)
    return _csv("t,x,y", np.column_stack([t, pts]), "%.10g,%.10g,%.10g\n"), True


def _cmd_suite(args):
    config = {"seed": args.seed}
    if args.samples is not None:
        if args.name != "jarnik":
            raise UsageError(f"--samples applies to the jarnik suite only; the {args.name} "
                             "suite draws no samples")
        _at_least("--samples", args.samples, 1)
        config["samples"] = args.samples
    report = run_suite(args.name, config)
    return report_json(report), report["passed"]


# ---------------------------------------------------------------------------
# parser assembly


def _add_out(p, formats=("json",)):
    p.add_argument("--out", default=None, help="write output to this path")
    if formats:
        p.add_argument("--format", choices=list(formats), default=formats[0])


def _add_curve(p):
    """The flags `_make_curve` reads."""
    p.add_argument("--curve", choices=("parabola", "circle", "mixed"),
                   default="parabola")
    p.add_argument("--ratio", type=float, default=1.0)
    p.add_argument("--lambda-ell", type=float, default=0.0)


def build_parser():
    top = argparse.ArgumentParser(
        prog="convexchain",
        description="Convex lattice polygonal lines: counting, sampling, "
                    "calibration, limit shapes.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact vertex-count table")
    for flag in ("--n1", "--n2", "--kmax"):
        p.add_argument(flag, type=int, required=True)
    _add_out(p, ("csv", "json"))
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("maxvert", help="maximal vertex count for an endpoint")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_maxvert)

    p = sub.add_parser("calibrate", help="parameters matching target moments")
    for flag in ("--n1", "--n2", "--k"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--exact", action="store_true",
                   help="Newton refinement instead of the asymptotic formulas")
    p.add_argument("--trunc", type=float, default=DEFAULT_TRUNCATION)
    _add_out(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("sample-gibbs", help="draw from the product measure")
    p.add_argument("--beta1", type=float, required=True)
    p.add_argument("--beta2", type=float, required=True)
    p.add_argument("--fugacity", type=float, default=1.0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trunc", type=float, default=DEFAULT_TRUNCATION)
    _add_out(p, formats=())
    p.set_defaults(func=_cmd_sample_gibbs)

    p = sub.add_parser("sample-valtr", help="uniform strictly North-East lines")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    _add_out(p, formats=())
    p.set_defaults(func=_cmd_sample_valtr)

    p = sub.add_parser("shape-distance",
                       help="Hausdorff distance from a line to a limit curve")
    p.add_argument("--line", required=True,
                   help="path of a polyline JSON file, or - for stdin")
    _add_curve(p)
    p.add_argument("--scale", default="auto",
                   help="'n1,n2' or 'auto' for the line's own endpoint")
    p.add_argument("--mesh", type=int, default=1000)
    p.add_argument("--assert-below", type=float, default=None,
                   help="exit 1 unless the distance is at most this")
    _add_out(p, ("json", "svg"))
    p.set_defaults(func=_cmd_shape_distance)

    p = sub.add_parser("asymptotics-table",
                       help="constants c and e on a density grid")
    p.add_argument("--ell-grid", required=True, metavar="START:STOP:STEP")
    _add_out(p, ("csv", "json"))
    p.set_defaults(func=_cmd_asymptotics_table)

    p = sub.add_parser("jarnik", help="Euclidean-length model checks")
    p.add_argument("--beta", type=float, default=0.05)
    p.add_argument("--fugacity", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trunc", type=float, default=DEFAULT_TRUNCATION)
    p.add_argument("--mesh", type=int, default=1000)
    _add_out(p)
    p.set_defaults(func=_cmd_jarnik)

    p = sub.add_parser("mixed-shapes", help="mixed-curve family table or plot")
    p.add_argument("--grid", default="0,0.5,1,2,10",
                   help="comma-separated lambda_ell values")
    p.add_argument("--mesh", type=int, default=200)
    _add_out(p, ("csv", "json", "svg"))
    p.set_defaults(func=_cmd_mixed_shapes)

    p = sub.add_parser("curve", help="samples of a single limit curve")
    _add_curve(p)
    p.add_argument("--mesh", type=int, default=200)
    _add_out(p, ("csv", "svg"))
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("suite", help="named acceptance-check suites")
    p.add_argument("--name", choices=SUITE_NAMES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None)
    _add_out(p)
    p.set_defaults(func=_cmd_suite)

    return top


def _splice_config(argv):
    """Expand --config FILE into key=value flags placed before explicit ones."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    if not rest:
        raise UsageError("--config requires a subcommand")
    try:
        with open(path) as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from None
    extra = []
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(
                f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, val = line.split("=", 1)
        extra.extend([f"--{key.strip().replace('_', '-')}", val.strip()])
    return [rest[0], *extra, *rest[1:]]


def main(argv=None):
    try:
        argv = _splice_config(list(sys.argv[1:] if argv is None else argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # library warnings become one line each when the command gets through,
    # and are dropped when it ends in its error message
    with warnings.catch_warnings(record=True) as caught:
        try:
            text, passed = args.func(args)
            try:  # the one write of a command's output
                with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
                    fh.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write {args.out or 'stdout'!r}: {exc}") from None
        except (UsageError, ValueError, KeyError, ResourceWarning, RuntimeError,
                ArithmeticError) as exc:
            # bad input, work refused over a budget, or numerics the input
            # defeats (an exhausted rejection loop, a stalled quadrature,
            # overflow); an infeasible or unbounded calibration is a failed check
            print(f"error: {exc}", file=sys.stderr)
            return 1 if isinstance(exc, CalibrationError) else 2
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
