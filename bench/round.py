"""One cold round of one benchmark workload, in a fresh interpreter.

    python3 bench/round.py <workload> <seed> <full|first|traced>

Imports `convexchain` from the checkout's `src/`, runs the workload's call
sequence once and prints one JSON object as its last line of stdout:
`import_done` (time.monotonic() right after the import, which the parent
compares with its spawn time), `first_result_s`, `op_s` (timed seconds of
each operation), `ref_s`, `first_ref_s`, `peak_rss_mb`, `attempted`,
`failed`, `failures`, `counters`, `ops` and, when traced, `spans`.  Mode
`first` stops after the first operation, for more samples of the time to the
first result.

Timers wrap only the library calls (`Op.call`); checks run between them.

Host speed: `ref_s` holds timings of a fixed pure-Python loop
(`reference_loop`): REF_SAMPLES right after the import, REF_SAMPLES right
after the first operation, REF_SAMPLES at the end, and one every
REF_FIRST_EVERY_S (until the first operation ends) or REF_EVERY_S (after)
of wall time from a SIGALRM timer, also in the middle of long library calls.
The time spent in them is taken out of the operation and first-result
timings.  `first_ref_s` is their mean up to and including the samples right
after the first operation.  A traced round takes no samples, so that spans
hold library time only.

A traced round wraps the public functions listed in TRACED, in every
`convexchain` module namespace that binds them, so calls between layers get
spans too: [name, op index, parent span index, start, end].  Spans are kept in
memory and sent to the parent with the result.
"""

import sys
import time
from time import perf_counter

REF_ITERS = 100_000
REF_SAMPLES = 3
REF_EVERY_S = 0.25
REF_FIRST_EVERY_S = 0.05  # the first operation can be as short as 0.2 s

# layer -> public callables that get a span in a traced round
TRACED = {
    "lattice": ("primitive_vectors_in_box", "omega_to_polyline", "slope_sorted"),
    "counting": ("count_lines_k", "max_vertices"),
    "specialfn": ("polylog", "c_of_ell", "e_of_ell"),
    "gibbs": ("_site_arrays", "log_partition", "moments", "sample_omega"),
    "calibrate": ("asymptotic_params", "exact_calibrate", "predicted_log_pnk"),
    "shapes": ("normalize", "hausdorff_distance", "ShapeCurve.sample"),
    "experiments": ("sample_valtr",),
}


def _import_package(root: str):
    import os

    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import convexchain

    if not os.path.abspath(convexchain.__file__).startswith(src + os.sep):
        raise SystemExit(f"convexchain imported from {convexchain.__file__}, not {src}")
    return convexchain


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python integer loop."""
    t0 = perf_counter()
    acc = 0
    for j in range(REF_ITERS):
        acc += j * j
    return perf_counter() - t0


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.active = False  # spans only inside Op.call, never in checks

    def wrap(self, name, fn):
        import functools

        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()

        return traced

    def install(self, package) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for layer, names in TRACED.items():
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name in names:
                if "." in name:
                    owner_name, attr = name.split(".")
                    owner = getattr(module, owner_name)
                    setattr(owner, attr, self.wrap(f"{layer}.{name}", owner.__dict__[attr]))
                    continue
                original = getattr(module, name)
                wrapped = self.wrap(f"{layer}.{name}", original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)


class Op:
    """One operation: timed library calls, then checks; fails on a raise or
    a failed check."""

    def __init__(self, rnd, index):
        self.round = rnd
        self.index = index
        self.timed = 0.0
        self.end = None
        self.failures = []

    def call(self, fn, *args):
        rnd, tracer = self.round, self.round.tracer
        if tracer is not None:
            tracer.op, tracer.active = self.index, True
        t0 = perf_counter()
        paused = rnd.ref_total
        try:
            return fn(*args)
        finally:
            self.end = perf_counter()
            self.timed += self.end - t0 - (rnd.ref_total - paused)
            if tracer is not None:
                tracer.active = False

    def check(self, ok, message: str) -> None:
        if not ok:
            self.failures.append(message)


class FirstDone(Exception):
    """Raised after the first operation of a `first` round."""


class Round:
    def __init__(self, t_import: float, tracer, first_only: bool):
        self.t_import = t_import
        self.tracer = tracer
        self.first_only = first_only
        self.first_result = None
        self.first_ref = None
        self.ops = []
        self.op_s = []
        self.failures = []
        self.counters = {}
        self.ref_s = []
        self.ref_total = 0.0  # wall time spent in reference loops
        self.in_ref = False

    def reference(self, samples: int = 1) -> None:
        if self.tracer is not None or self.in_ref:
            return
        self.in_ref = True
        t0 = perf_counter()
        self.ref_s += [reference_loop() for _ in range(samples)]
        self.ref_total += perf_counter() - t0
        self.in_ref = False

    def sample_host_speed(self, every_s: float) -> None:
        """Take a reference sample every `every_s` seconds; 0 stops."""
        import signal

        if self.tracer is not None:
            return
        signal.signal(signal.SIGALRM, lambda signum, frame: self.reference())
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)

    def op(self, name: str):
        import contextlib

        @contextlib.contextmanager
        def scope():
            op = Op(self, len(self.ops))
            self.ops.append(name)
            try:
                yield op
            except Exception as exc:  # an operation that raises is a failed one
                op.failures.append(f"{type(exc).__name__}: {exc}")
            self.op_s.append(op.timed)
            if op.failures:
                self.failures.append(f"{name}: {'; '.join(op.failures)}")
            if self.first_result is None and op.end is not None:
                self.first_result = op.end - self.t_import - self.ref_total
                self.sample_host_speed(REF_EVERY_S)
                self.reference(REF_SAMPLES)
                if self.ref_s:
                    self.first_ref = sum(self.ref_s) / len(self.ref_s)
            if self.first_only:
                raise FirstDone

        return scope()


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cc = _import_package(root)
    import_done = time.monotonic()
    t_import = perf_counter()

    import json
    import resource

    from workloads import WORKLOADS

    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install(cc)
    rnd = Round(t_import, tracer, first_only=mode == "first")
    rnd.reference(REF_SAMPLES)
    rnd.sample_host_speed(REF_FIRST_EVERY_S)
    try:
        WORKLOADS[workload](cc, rnd, seed)
    except FirstDone:
        pass
    finally:
        rnd.sample_host_speed(0)
    rnd.reference(REF_SAMPLES)
    out = {
        "import_done": import_done,
        "first_result_s": rnd.first_result,
        "op_s": rnd.op_s,
        "ref_s": rnd.ref_s,
        "first_ref_s": rnd.first_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(rnd.ops),
        "failed": len(rnd.failures),
        "failures": rnd.failures,
        "counters": rnd.counters,
        "ops": rnd.ops,
    }
    if tracer is not None:
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
