"""Per-layer spans and counters for one homapprox CLI run.

The program itself is not instrumented.  `install` wraps the public
functions of each homapprox module from outside, in every homapprox
module namespace that binds them, so calls through `module.name` and
through `from .module import name` are both seen.  A wrapper returns
exactly what the original returns; run.py checks that a traced report
is byte-identical to an untraced one.

Stage-level functions become spans (name, start, end, parent span).
Hot inner functions, called thousands of times, become counters: calls
and inclusive seconds, each attributed to the innermost open span, so
for example echelon insertions under `lie.basis`, `approx.select_core`
and `approx.blocks` stay apart.
"""
from __future__ import annotations

import functools
import sys
import time

from homapprox import algebra, approx, cli, expr, lie, linalg, report, series, verify

# (owner, attribute, span name); several functions may share a span name
SPANS = (
    (cli, "main", "cli.main"),
    (cli, "parse_system_file", "cli.parse"),
    (cli, "run_verification", "verify.total"),
    (approx, "approximate", "approx.approximate"),
    (lie, "build_lie_basis", "lie.basis"),
    (series.SeriesComputer, "table_up_to", "series.table"),
    (approx, "select_core", "approx.select_core"),
    (approx, "build_ideal_blocks", "approx.blocks"),
    (approx, "project_core", "approx.project"),
    (approx, "build_nonautonomous", "approx.reconstruct"),
    (approx, "build_autonomous", "approx.reconstruct"),
    (approx, "check_self_consistency", "approx.selfcheck"),
    (verify, "evaluate_moments", "verify.moments"),
    (verify, "backward_endpoint", "verify.backward"),
    (report, "render_json", "report.render"),
)

# (owner, attribute, counter name); the layer is the part before the dot
COUNTERS = (
    (series, "apply_R_a", "series.apply"),
    (series, "apply_R_b", "series.apply"),
    (expr, "differentiate", "expr.differentiate"),
    (expr, "eval_at_origin", "expr.eval"),
    (algebra, "concat", "algebra.concat"),
    (algebra, "shuffle", "algebra.shuffle"),
    (linalg.IntEchelon, "add", "linalg.echelon_add"),
    (linalg.IntEchelon, "nullspace_basis", "linalg.nullspace"),
    (linalg, "scale_to_int", "linalg.scale_to_int"),
    (linalg, "solve_particular", "linalg.solve"),
    (linalg, "solve_square", "linalg.solve"),
)


def _memo_entries(computer) -> int:
    # every dict attribute of the series engine is one of its memos
    return sum(len(v) for v in vars(computer).values() if isinstance(v, dict))


class Tracer:
    """Spans and counters of one file run, kept in memory until `to_json`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.spans: list = []  # [name, start, end, parent index or None]
        self.open: list = []  # indices of open spans, innermost last
        self.counters: dict = {}  # (name, parent span name) -> value
        self.peaks: dict = {}  # size name -> largest value seen
        self.layer_depth: dict = {}  # layer -> nesting of its counted calls

    def _parent(self):
        return self.spans[self.open[-1]][0] if self.open else None

    def add(self, name: str, value) -> None:
        key = (name, self._parent())
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, name: str, value) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    def span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.open[-1] if self.open else None
            self.spans.append([name, time.perf_counter() - self.t0, None, parent])
            self.open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.open.pop()
                self.spans[index][2] = time.perf_counter() - self.t0
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        layer = name.split(".", 1)[0]
        active = False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal active
            if active:  # recursion through the module global
                return fn(*args, **kwargs)
            active = True
            depth = self.layer_depth.get(layer, 0)
            self.layer_depth[layer] = depth + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                active = False
                self.layer_depth[layer] = depth
            self.add(name + ".calls", 1)
            self.add(name + ".s", elapsed)
            if depth == 0:
                self.add(layer + ".outer_s", elapsed)
            if result is True:  # IntEchelon.add reports that it kept the row
                self.add(name + ".kept", 1)
            return result

        return wrapper

    def to_json(self) -> dict:
        return {
            "run": self.run_id,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counters": [[n, p, v] for (n, p), v in self.counters.items()],
            "peaks": self.peaks,
        }


def _after_table(tr: Tracer, args, table) -> None:
    tr.peak("series.nonzero_coeffs", len(table.coeffs))
    tr.peak("series.memo_entries", _memo_entries(args[0]))


# span name -> hook(tracer, call arguments, result) that records sizes
AFTER = {
    "series.table": _after_table,
    "lie.basis": lambda tr, args, basis: tr.peak("lie.basis_size", len(basis)),
    "verify.moments": lambda tr, args, moments: tr.add("verify.moment_words", len(moments)),
    "report.render": lambda tr, args, text: tr.add("report.bytes", len(text.encode())),
}


def _rebind(owner, attr: str, wrapper) -> None:
    original = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if name == "homapprox" or name.startswith("homapprox."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def install(run_id: str) -> Tracer:
    """Wrap every function in SPANS and COUNTERS; returns the tracer."""
    tracer = Tracer(run_id)
    for owner, attr, name in SPANS:
        fn = getattr(owner, attr)
        _rebind(owner, attr, tracer.span(name, fn, AFTER.get(name)))
    for owner, attr, name in COUNTERS:
        fn = getattr(owner, attr)
        _rebind(owner, attr, tracer.counter(name, fn))
    return tracer
