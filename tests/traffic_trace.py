"""The library statements that no real traffic reaches, or no test.

    python tests/traffic_trace.py
    PYTHONPATH=tests python -m pytest -p traffic_trace

Run as a script, it runs the three benchmark workloads of
`bench/workloads.py` (imported, not edited) through a stub round that only
calls and checks, then every CLI subcommand and every suite through
`cli.main`, all under one `sys.settrace` line tracer that is set before
`convexchain` is imported.  It prints each statement of `src/convexchain`
with an executable line that nothing reached, as `module.py:line: text`,
then the workloads' failed checks and each command's exit code.  pytest
does not collect it: the name does not start with `test_`.

Loaded as a pytest plugin (opt-in, and minutes rather than seconds), it
sets the same tracer for the whole run, on every thread, before the
conftests load, and prints at the end the statements that no test reached
in-process (a test's subprocesses are not traced).

A Python-level tracer makes the interpreter snapshot `frame.f_locals`
before Python 3.13, so what it reaches can differ from an untraced run on
paths that depend on reference counts: like any `f_locals` tracer, it sends
`gibbs._site_arrays` down its copy path.
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "convexchain")

LINE = '{"vertices": [[0, 0], [5, 1], [9, 4], [11, 9], [12, 15]]}'
COMMANDS = [
    "count --n1 30 --n2 30 --kmax 8",
    "count --n1 30 --n2 30 --kmax 8 --format json",
    "maxvert --n1 100 --n2 100",
    "calibrate --n1 300 --n2 300 --k 34",
    "calibrate --n1 300 --n2 300 --k 34 --exact",
    "sample-gibbs --beta1 0.1 --beta2 0.1 --count 3",
    "sample-gibbs --beta1 1 --beta2 1 --trunc 0.5 --count 2",  # an empty site set
    "sample-valtr --n 1000 --k 8 --count 3",
    "shape-distance --line {line}",
    "shape-distance --line {line} --curve circle --format svg",
    "shape-distance --line {line} --curve mixed --lambda-ell 0.5 --assert-below 1",
    "asymptotics-table --ell-grid 0.5:2:0.5",
    "asymptotics-table --ell-grid 0.5:2:0.5 --format json",
    "jarnik --samples 10",
    "mixed-shapes",
    "mixed-shapes --format json",
    "mixed-shapes --format svg",
    "curve --curve circle",
    "curve --format svg",
    "curve --curve mixed --lambda-ell 2",
    *(f"suite --name {name}" for name in ("counting", "calibration", "shapes", "jarnik",
                                          "mixed")),
]

hits = set()


def _line_tracer(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line_tracer


def _call_tracer(frame, event, arg):
    return _line_tracer if frame.f_code.co_filename.startswith(PKG + os.sep) else None


class _Op:
    def __init__(self, failures):
        self.failures = failures

    def call(self, fn, *args):
        return fn(*args)

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)


class _Round:
    """What a workload uses of `bench/round.py`'s round: `op` and `counters`."""

    def __init__(self):
        self.counters = {}
        self.failures = []

    @contextlib.contextmanager
    def op(self, name):
        yield _Op(self.failures)


def _executable_lines(code):
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable_lines(const)
    return lines


def unreached(path):
    """(line, text) of each statement of `path` whose own executable lines
    include one that nothing reached; a compound statement owns the lines
    before its body."""
    with open(path) as fh:
        source = fh.read()
    text = source.splitlines()
    missed = _executable_lines(compile(source, path, "exec")) - {
        line for name, line in hits if name == path}
    owner = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            body = getattr(node, "body", None)
            end = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
            start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            for line in range(start, end + 1):
                owner[line] = node.lineno
    return sorted({(owner[line], text[owner[line] - 1].strip())
                   for line in missed if line in owner})


def _unreached_lines():
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            for line, text in unreached(os.path.join(PKG, name)):
                yield f"{name}:{line}: {text}"


def pytest_load_initial_conftests(early_config, parser, args):
    threading.settrace(_call_tracer)
    sys.settrace(_call_tracer)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("library statements no test reached")
    for line in _unreached_lines():
        terminalreporter.write_line(line)


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    sys.settrace(_call_tracer)
    try:
        import convexchain
        from convexchain import cli
        from workloads import WORKLOADS

        rnd = _Round()
        for workload in WORKLOADS.values():
            workload(convexchain, rnd, 0)
        codes = []
        with tempfile.TemporaryDirectory() as tmp:
            line = os.path.join(tmp, "line.json")
            with open(line, "w") as fh:
                fh.write(LINE)
            for command in COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    codes.append(cli.main(command.format(line=line).split()))
    finally:
        sys.settrace(None)
    for line in _unreached_lines():
        print(line)
    print(f"\nworkload checks failed: {len(rnd.failures)}", *rnd.failures, sep="\n")
    for command, code in zip(COMMANDS, codes):
        print(f"exit {code}: {command.format(line='LINE')}")


if __name__ == "__main__":
    main()
