"""Cold-process benchmark of the homapprox command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

homapprox is a batch tool: a user hands the CLI one system file and
waits for a checked report, so the cost that matters is one cold run.
Every sample therefore starts a fresh interpreter (child.py) per input
file and calls homapprox.cli.main there with `--format json`, so the
process-global memos (the Lie basis order cache and the lru_caches in
algebra and lie) start empty, as they do for every user.  The children
run one at a time: a closed loop with one client.  HOMAPPROX_CACHE_DIR
is removed from their environment and --cache-dir is never passed.

A pass runs every file of the workload once, in an order drawn from
--seed; the program only ever sees the fixed input files under
systems/, because every report is compared with a golden under golden/.
Passes repeat while the next one should end within --seconds (at least
one pass runs).

--trace 0 prints the end-to-end metrics: the median pass time
(report_s), the median set-up time (setup_s) and the median of each
pass's largest child peak memory (peak_rss_mb).  --trace 1 alternates
untraced and traced passes; the traced children wrap the program's
public functions (spans.py) and the per-layer metrics are medians over
traced passes.  Both print an `info` line with environment facts and
src.loc, write the same plus every file run (and the spans) to out/,
and end with one JSON result line.

The CPU of a shared virtual machine changes speed over seconds, by up
to a third, with its host's other load, so raw wall times of the same
code spread too far between runs to bound a regression.  The benchmark
therefore pins itself and its children to one CPU and shares that CPU
with pacer.py, a fixed reference load at the lowest priority.  Every
time it reports (report_s, setup_s and the per-layer seconds) is the
child's seconds in that interval times the pacer's rate over the same
interval divided by PACER_REF_RATE: seconds on a CPU of reference
speed.  report_s and setup_s scale CPU seconds, which for these
single-threaded runs are within about 2 % of wall seconds; the raw wall
medians are in the info line as report_wall_s and setup_wall_s.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "homapprox"
OUT = BENCH / "out"

SETUP_PROBES = 30  # extra set-up-only children per untraced run
# pacer units per CPU second that the scaled times refer to: about the
# pacer's rate beside a child on a quiet core of the 2-vCPU x86-64 VM
# (Python 3.11) the benchmark was written on
PACER_REF_RATE = 15000.0
PACER_MIN_UNITS = 300  # widen an interval until it holds this many units
CHILD_TIMEOUT_S = 150
MAX_SHUFFLE_RESIDUAL = 1e-8


class Case(NamedTuple):
    system: str  # stem of systems/<system>.txt and golden/<system>.json
    exit_code: int
    verify: bool = False

    @property
    def label(self) -> str:
        return self.system + ("+verify" if self.verify else "")


WORKLOADS = {
    # The series engine on rational and transcendental coefficients at
    # low N: about 99 % of the time is SeriesComputer.table_up_to and the
    # ideal blocks are almost empty, so a linalg change predicts no change.
    "rational": (
        Case("rat3", 0),
        Case("rat5", 0),
        Case("mixed4", 4),
        Case("sys3", 4),
        Case("sys3_drift", 0),
        Case("quot", 0),
    ),
    # Ideal blocks and linalg at high order, plus the series engine on
    # polynomial systems at high N through self-check and iterative
    # deepening (deep11 tries ten orders; chain4 is self-check bound).
    "deep": (
        Case("deep11", 0),
        Case("chain4", 0),
    ),
    # --verify: RK4 moment and backward integration take about 97 %.
    "verify": (
        Case("sys3", 4, verify=True),
        Case("deep7", 0, verify=True),
    ),
}

END_TO_END_UNITS = {"report_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; see layer_metrics for how each is measured
PER_LAYER_UNITS = {
    "series.table_s": "s",
    "series.orders_tried": "count",
    "series.apply_ops": "count",
    "series.nonzero_coeffs": "count",
    "series.memo_entries": "count",
    "expr.differentiate_calls": "count",
    "expr.eval_calls": "count",
    "approx.select_core_s": "s",
    "approx.blocks_s": "s",
    "approx.block_candidates": "count",
    "approx.block_rows_kept": "count",
    "approx.block_keep_ratio": "ratio",
    "approx.project_s": "s",
    "approx.reconstruct_s": "s",
    "approx.selfcheck_s": "s",
    "linalg.echelon_add_calls": "count",
    "linalg.echelon_add_s": "s",
    "linalg.echelon_keep_ratio": "ratio",
    "linalg.scale_to_int_s": "s",
    "linalg.solve_s": "s",
    "linalg.nullspace_s": "s",
    "linalg.in_lie_s": "s",
    "linalg.in_select_core_s": "s",
    "linalg.in_blocks_s": "s",
    "linalg.in_project_s": "s",
    "linalg.in_reconstruct_s": "s",
    "algebra.concat_calls": "count",
    "algebra.shuffle_calls": "count",
    "lie.basis_s": "s",
    "lie.basis_size": "count",
    "verify.total_s": "s",
    "verify.moments_s": "s",
    "verify.backward_s": "s",
    "verify.moment_words": "count",
    "cli.parse_s": "s",
    "report.render_s": "s",
    "report.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

# metric -> span name; the metric is the summed duration of those spans
SPAN_SECONDS = {
    "series.table_s": "series.table",
    "approx.select_core_s": "approx.select_core",
    "approx.blocks_s": "approx.blocks",
    "approx.project_s": "approx.project",
    "approx.reconstruct_s": "approx.reconstruct",
    "approx.selfcheck_s": "approx.selfcheck",
    "lie.basis_s": "lie.basis",
    "verify.total_s": "verify.total",
    "verify.moments_s": "verify.moments",
    "verify.backward_s": "verify.backward",
    "cli.parse_s": "cli.parse",
    "report.render_s": "report.render",
}

# metric -> (counter name, parent span or None for all parents)
COUNTER_SUMS = {
    "series.apply_ops": ("series.apply.calls", None),
    "expr.differentiate_calls": ("expr.differentiate.calls", None),
    "expr.eval_calls": ("expr.eval.calls", None),
    "approx.block_candidates": ("linalg.echelon_add.calls", "approx.blocks"),
    "approx.block_rows_kept": ("linalg.echelon_add.kept", "approx.blocks"),
    "linalg.echelon_add_calls": ("linalg.echelon_add.calls", None),
    "linalg.echelon_rows_kept": ("linalg.echelon_add.kept", None),
    "linalg.echelon_add_s": ("linalg.echelon_add.s", None),
    "linalg.scale_to_int_s": ("linalg.scale_to_int.s", None),
    "linalg.solve_s": ("linalg.solve.s", None),
    "linalg.nullspace_s": ("linalg.nullspace.s", None),
    "linalg.in_lie_s": ("linalg.outer_s", "lie.basis"),
    "linalg.in_select_core_s": ("linalg.outer_s", "approx.select_core"),
    "linalg.in_blocks_s": ("linalg.outer_s", "approx.blocks"),
    "linalg.in_project_s": ("linalg.outer_s", "approx.project"),
    "linalg.in_reconstruct_s": ("linalg.outer_s", "approx.reconstruct"),
    "algebra.concat_calls": ("algebra.concat.calls", None),
    "algebra.shuffle_calls": ("algebra.shuffle.calls", None),
    "verify.moment_words": ("verify.moment_words", None),
    "report.bytes": ("report.bytes", None),
}

PEAKS = ("series.nonzero_coeffs", "series.memo_entries", "lie.basis_size")

# ---------------------------------------------------------------------------
# independent anchors: hand-written values from the worked examples
# (README and paper), so the goldens are not purely self-referential

F = Fraction
ANCHORS = {
    "sys3": {
        "weights": [1, 3, 4],
        "projected": [
            {(0,): F(1)},
            {(2,): F(1, 5), (0, 1): F(-2, 5)},
            {
                (0, 2): F(3, 19),
                (2, 0): F(23, 285),
                (0, 0, 1): F(8, 57),
                (0, 1, 0): F(-46, 285),
            },
        ],
        "nonautonomous.b": [
            {(0, (0, 0, 0)): F(-1)},
            {(2, (0, 0, 0)): F(-1, 5), (1, (1, 0, 0)): F(2, 5)},
            {
                (0, (0, 1, 0)): F(-23, 57),
                (2, (1, 0, 0)): F(-3, 19),
                (1, (2, 0, 0)): F(-4, 57),
            },
        ],
        "autonomous.exists": False,
    },
    "sys3_drift": {
        "weights": [1, 3, 4],
        "autonomous.exists": True,
        "autonomous.a": [
            {},
            {(0, (2, 0, 0)): F(-1, 2)},
            {(0, (3, 0, 0)): F(1, 27), (0, (0, 1, 0)): F(-10, 9)},
        ],
        "autonomous.b": [
            {(0, (0, 0, 0)): F(-1)},
            {},
            {(0, (0, 1, 0)): F(4, 9)},
        ],
    },
}


def _anchor_view(report: dict) -> dict:
    """The report's values in the shape of ANCHORS entries."""

    def elem(items):
        return {tuple(i["word"]): F(i["coeff"]) for i in items}

    def poly(items):
        return {(i["t_power"], tuple(i["x_powers"])): F(i["coeff"]) for i in items}

    view = {
        "weights": report.get("weights"),
        "projected": [elem(p["element"]) for p in report.get("projected", [])],
        "nonautonomous.b": [poly(c) for c in report.get("nonautonomous", {}).get("b", [])],
        "autonomous.exists": report.get("autonomous", {}).get("exists"),
    }
    aut = report.get("autonomous", {})
    if aut.get("exists"):
        view["autonomous.a"] = [poly(c) for c in aut["a"]]
        view["autonomous.b"] = [poly(c) for c in aut["b"]]
    return view


# ---------------------------------------------------------------------------
# correctness


def check_report(case: Case, code: int, stdout: bytes, stderr: bytes) -> list:
    """Problems with one file run; empty when the run is correct."""
    problems = []
    if code != case.exit_code:
        problems.append(f"exit code {code}, expected {case.exit_code}")
    if b"Traceback" in stderr:
        problems.append("traceback on stderr")
    golden = (BENCH / "golden" / f"{case.system}.json").read_bytes()
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not a JSON report"]
    if case.verify:
        verification = report.pop("verification", None)
        exact = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
        problems += check_verification(verification)
    else:
        exact = stdout
    if exact != golden:
        problems.append(f"report differs from golden/{case.system}.json")
    view = _anchor_view(report)
    for key, want in ANCHORS.get(case.system, {}).items():
        if view.get(key) != want:
            problems.append(f"anchor {key} is {view.get(key)!r}, expected {want!r}")
    return problems


def check_verification(ver) -> list:
    if not isinstance(ver, dict) or not ver.get("checks"):
        return ["no verification section"]
    problems = []
    required = ver["required_slope"]
    for check in ver["checks"]:
        if check["slope"] is not None and check["slope"] < required:
            problems.append(f"residual slope {check['slope']} < {required}")
    if not ver.get("max_shuffle_residual", 1.0) <= MAX_SHUFFLE_RESIDUAL:
        problems.append(
            f"shuffle residual {ver.get('max_shuffle_residual')} > {MAX_SHUFFLE_RESIDUAL}"
        )
    return problems


# ---------------------------------------------------------------------------
# CPU speed


class Pacer:
    """pacer.py beside the benchmark on its CPU; `stop` then `scale`."""

    def __init__(self, path: Path):
        self.path = path
        path.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "pacer.py"), str(path)],
            stdout=subprocess.PIPE,
        )
        self.proc.stdout.readline()  # its SIGTERM handler is installed
        self.clock = self.cpu = None

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()
        if self.clock is None and self.path.is_file():
            raw = self.path.read_bytes()
            half = len(raw) // 2
            self.clock, self.cpu = array("d"), array("d")
            self.clock.frombytes(raw[:half])
            self.cpu.frombytes(raw[half:])
            self.path.unlink()
        if self.clock is None:
            raise RuntimeError(f"pacer exited with {self.proc.returncode} and no samples")

    def rate(self, start: float, end: float) -> float:
        """Pacer units per CPU second from monotonic time start to end."""
        i = bisect.bisect_left(self.clock, start)
        j = bisect.bisect_right(self.clock, end) - 1
        while j - i < PACER_MIN_UNITS and (i > 0 or j < len(self.clock) - 1):
            i, j = max(i - 1, 0), min(j + 1, len(self.clock) - 1)
        return (j - i) / (self.cpu[j] - self.cpu[i])

    def scale(self, cpu_s: float, span) -> float:
        """CPU seconds spent in span, in seconds of a reference-speed CPU."""
        return cpu_s * self.rate(*span) / PACER_REF_RATE


# ---------------------------------------------------------------------------
# children


def spawn(run_id: str, trace: bool, cli_args: list):
    """Start child.py, wait for it; returns (exit code, stdout, stderr, record)."""
    record_path = OUT / f"record-{os.getpid()}.json"
    record_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env.pop("HOMAPPROX_CACHE_DIR", None)
    argv = [sys.executable, str(BENCH / "child.py")]
    argv += [repr(time.monotonic()), str(record_path), "1" if trace else "0", run_id]
    if cli_args:
        argv += ["--", *cli_args]
    try:
        proc = subprocess.run(
            argv, capture_output=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as err:
        return None, err.stdout or b"", b"timed out", None
    record = None
    if record_path.is_file():
        record = json.loads(record_path.read_text())
        record_path.unlink()
    return proc.returncode, proc.stdout, proc.stderr, record


def run_case(case: Case, run_id: str, trace: bool) -> dict:
    args = ["--input", str(BENCH / "systems" / f"{case.system}.txt")]
    args += ["--format", "json"] + (["--verify"] if case.verify else [])
    code, stdout, stderr, record = spawn(run_id, trace, args)
    problems = check_report(case, code, stdout, stderr)
    if record is None or "report_s" not in record:
        problems.append("child wrote no record")
        record = {}
    return {
        "run": run_id,
        "case": case.label,
        "traced": trace,
        "exit": code,
        "problems": problems,
        "stdout": stdout,
        **record,
    }


def run_pass(cases, rng, run_prefix: str, trace: bool) -> list:
    order = list(cases)
    rng.shuffle(order)
    return [run_case(c, f"{run_prefix}-{c.label}", trace) for c in order]


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(trace: dict) -> dict:
    """Per-layer numbers of one traced file run."""
    out = {}
    for metric, span in SPAN_SECONDS.items():
        out[metric] = sum(s["end"] - s["start"] for s in trace["spans"] if s["name"] == span)
    out["series.orders_tried"] = sum(1 for s in trace["spans"] if s["name"] == "series.table")
    for metric, (counter, parent) in COUNTER_SUMS.items():
        out[metric] = sum(
            v for n, p, v in trace["counters"] if n == counter and parent in (None, p)
        )
    for metric in PEAKS:
        out[metric] = trace["peaks"].get(metric, 0)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def pass_layer_metrics(runs: list, pacer: Pacer) -> dict:
    total = dict.fromkeys([*SPAN_SECONDS, "series.orders_tried", *COUNTER_SUMS, *PEAKS], 0)
    for run in runs:
        if "trace" not in run:  # a failed run, already counted as failed
            continue
        speed = pacer.rate(*run["report_span"]) / PACER_REF_RATE
        for k, v in layer_metrics(run["trace"]).items():
            total[k] = total.get(k, 0) + (v * speed if k.endswith("_s") else v)
    total["approx.block_keep_ratio"] = _ratio(
        total["approx.block_rows_kept"], total["approx.block_candidates"]
    )
    total["linalg.echelon_keep_ratio"] = _ratio(
        total.pop("linalg.echelon_rows_kept"), total["linalg.echelon_add_calls"]
    )
    return total


def pass_seconds(runs: list, pacer: Pacer) -> float:
    """Scaled report seconds of one pass."""
    return sum(pacer.scale(r["report_cpu_s"], r["report_span"]) for r in runs if "report_s" in r)


def pass_wall_seconds(runs: list) -> float:
    return sum(r.get("report_s", 0.0) for r in runs)


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.glob("*.py")))


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "cli.py").is_file():
        print(f"error: no homapprox sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    cases = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "src.loc": src_loc(),
    }

    # children and the pacer inherit the CPU; the highest-numbered one
    # is the least likely to take the machine's interrupts
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    start = time.perf_counter()
    plain, traced = [], []  # passes: lists of file runs
    setups = []  # child records that carry a set-up time
    pacer = Pacer(OUT / f"pacer-{os.getpid()}.bin")
    try:
        if not args.trace:
            for k in range(SETUP_PROBES):
                code, _, _, record = spawn(f"{tag}-probe{k}", False, [])
                if code == 0 and record:
                    setups.append(record)
        while True:
            round_start = time.perf_counter()
            plain.append(run_pass(cases, rng, f"{tag}-pass{len(plain)}", False))
            if args.trace:
                traced.append(run_pass(cases, rng, f"{tag}-traced{len(traced)}", True))
            now = time.perf_counter()
            # start another round only if it should end within --seconds
            if now + (now - round_start) - start > args.seconds:
                break
    finally:
        pacer.stop()

    runs = [r for ps in plain + traced for r in ps]
    untraced_out = {r["case"]: r["stdout"] for r in plain[0]}
    for r in runs:
        if r["traced"] and r["stdout"] != untraced_out[r["case"]]:
            r["problems"].append("traced report differs from the untraced report")
    failed = sum(1 for r in runs if r["problems"])
    setups += [r for r in runs if "setup_s" in r]

    report_s = statistics.median(pass_seconds(ps, pacer) for ps in plain)
    if args.trace:
        per_pass = [pass_layer_metrics(ps, pacer) for ps in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead_ratio"] = (
            statistics.median(pass_seconds(ps, pacer) for ps in traced) / report_s
        )
        metrics = metric_block(values, PER_LAYER_UNITS)
    else:
        rss = [max(r.get("peak_rss_kb", 0) for r in ps) / 1024 for ps in plain]
        values = {
            "report_s": report_s,
            "setup_s": statistics.median(
                pacer.scale(r["setup_cpu_s"], r["setup_span"]) for r in setups
            ),
            "peak_rss_mb": statistics.median(rss),
        }
        metrics = metric_block(values, END_TO_END_UNITS)

    by_case: dict = {}
    for r in runs:
        if not r["traced"] and "report_s" in r:
            by_case.setdefault(r["case"], []).append(r["report_s"])
    info.update(
        {
            "loadavg_end": os.getloadavg(),
            "passes": len(plain),
            "traced_passes": len(traced),
            "setup_samples": len(setups),
            "report_wall_s": statistics.median(pass_wall_seconds(ps) for ps in plain),
            "setup_wall_s": statistics.median(r["setup_s"] for r in setups),
            "pacer_rate": statistics.median(
                pacer.rate(*r["report_span"]) for r in runs if "report_span" in r
            ),
            "failed_share": failed / len(runs),
            "file_report_s": {c: statistics.median(v) for c, v in sorted(by_case.items())},
            "problems": {r["run"]: r["problems"] for r in runs if r["problems"]},
        }
    )
    record = {
        "info": info,
        "metrics": metrics,
        "runs": [{k: v for k, v in r.items() if k != "stdout"} for r in runs],
        "setups": [
            [r["setup_s"], r["setup_cpu_s"], pacer.rate(*r["setup_span"])] for r in setups
        ],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
