"""Command-line driver.

Reads a declarative system description, runs the approximation pipeline
and writes a report.  Exit codes: 0 success, 2 input error or a report
that --out or stdout cannot take, 3 system not accessible up to the
order cap, 4 autonomous approximation requested but nonexistent (the
report, including the witness, is still produced), 5 internal error.
Constants of any length go through `algebra.exact_number` and
`exact_str`; Python's int-to-string digit limit is left as it is.
"""
from __future__ import annotations

import argparse
import os
import random
import sys as _sys
from pathlib import Path

from . import approx as ap
from . import expr as ex
# verify before report: without cached bytecode each module is compiled on
# import, and compiling the larger one while fewer are loaded lowers the peak
# memory of a sys3 --verify run by about 0.1 MB (Python 3.11, x86-64)
from . import verify as vf
from . import report as rp
from .algebra import enumerate_basis, exact_number
from .series import ControlSystem, EquilibriumError, certify_drift

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_ACCESSIBLE = 3
EXIT_NO_AUTONOMOUS = 4
EXIT_INTERNAL = 5

# --format choices; main looks up report.render_<format> at call time, so a
# wrapper rebound on the report module runs
_EXTENSIONS = {"text": "txt", "latex": "tex", "json": "json"}


class InputError(Exception):
    pass


def parse_system_file(text: str) -> ControlSystem:
    """Declarative format: one `n = <int>` line and `a<i> = <expr>`,
    `b<i> = <expr>` lines for i = 1..n, in any order; `#` starts a comment."""
    n = None
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected 'name = expression'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "n":
            if n is not None:
                raise InputError(f"line {lineno}: n defined twice")
            digits = value[1:] if value[:1] in "+-" else value
            if not (digits.isascii() and digits.isdigit()):
                raise InputError(f"line {lineno}: n must be an integer")
            n = exact_number(value).numerator
            if not 1 <= n <= 10:
                raise InputError(f"line {lineno}: n must be between 1 and 10")
            continue
        if len(key) >= 2 and key[0] in "ab" and key.isascii() and key[1:].isdigit():
            if key in entries:
                raise InputError(f"line {lineno}: {key} defined twice")
            entries[key] = (lineno, value)
            continue
        raise InputError(f"line {lineno}: unknown key {key!r}")
    if n is None:
        raise InputError("missing 'n = <dimension>' line")
    extra = set(entries) - {f"{p}{i}" for p in "ab" for i in range(1, n + 1)}
    if extra:
        raise InputError(f"components out of range for n={n}: {sorted(extra)}")
    parsed = {}
    for prefix in "ab":
        for i in range(1, n + 1):
            key = f"{prefix}{i}"
            if key not in entries:
                raise InputError(f"missing component {key}")
            lineno, value = entries[key]
            try:
                parsed[key] = ex.parse_expr(value, n)
                # the series needs every component defined at the origin
                ex.eval_at_origin(parsed[key])
            except (ex.ExprSyntaxError, ex.EvalError) as err:
                raise InputError(f"line {lineno}, {key}: {err}")
    # the drifts are certified once all components parse, so a syntax error
    # is reported first
    for i in range(1, n + 1):
        lineno, _ = entries[f"a{i}"]
        try:
            certify_drift(f"a{i}", parsed[f"a{i}"], n)
        except EquilibriumError as err:
            raise InputError(f"line {lineno}, a{i}: {err}")
    return ControlSystem(
        n,
        tuple(parsed[f"a{i}"] for i in range(1, n + 1)),
        tuple(parsed[f"b{i}"] for i in range(1, n + 1)),
    )


def run_verification(result: ap.ApproximationResult) -> dict:
    rng = random.Random(vf.CONTROL_SEED)
    controls = [vf.random_control(rng) for _ in range(3)]
    # the first two controls also serve the shuffle check, so their moments
    # cover its words too and each control is integrated once
    low = min(result.N, 4)
    shuffle_words = [w for m in range(1, low + 1) for w in enumerate_basis(m)]
    both = [*result.table.coeffs, *shuffle_words]
    words = (both, both, result.table.coeffs)
    moments = [vf.evaluate_moments(c, ws) for c, ws in zip(controls, words)]
    oc = vf.order_check(result.system, result.table, controls, moments)
    shuffle_res = max(vf.max_shuffle_residual(xi, low) for xi in moments[:2])
    return {"order_check": oc, "shuffle_residual": shuffle_res}


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="homapprox",
        description=(
            "Compute the homogeneous approximation of a single-input "
            "control-affine system dx/dt = a(t,x) + b(t,x)u around the "
            "origin, with exact rational arithmetic."
        ),
    )
    p.add_argument("--input", required=True, help="system description file")
    p.add_argument(
        "--max-order",
        type=int,
        default=ap.DEFAULT_MAX_ORDER,
        help=f"cap on the series order N (default {ap.DEFAULT_MAX_ORDER})",
    )
    p.add_argument(
        "--mode",
        choices=("both", "nonautonomous", "autonomous"),
        default="both",
        help="which approximating systems to report",
    )
    p.add_argument(
        "--format",
        choices=tuple(_EXTENSIONS),
        default="text",
        help="report format",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="run numerical cross-checks and include them in the report",
    )
    p.add_argument("--out", default=None, help="directory for the report file")
    return p


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.max_order < 1:
        print("error: --max-order must be >= 1", file=_sys.stderr)
        return EXIT_INPUT

    try:
        text = Path(args.input).read_text()
    except OSError as err:
        print(f"error: cannot read {args.input}: {err}", file=_sys.stderr)
        return EXIT_INPUT

    try:
        system = parse_system_file(text)
    except (InputError, ex.ExprSyntaxError, ValueError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_INPUT

    try:
        result = ap.approximate(system, max_order=args.max_order)
        ap.check_self_consistency(result)
        ap.check_homogeneity(result)
    except ex.EvalError as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_INPUT
    except ap.NotAccessibleError as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_NOT_ACCESSIBLE
    except (ap.InternalConsistencyError, ap.NotRepresentableError) as err:
        print(f"internal error: {err}", file=_sys.stderr)
        return EXIT_INTERNAL

    try:
        verification = run_verification(result) if args.verify else None
    except vf.VerificationError as err:
        print(f"error: --verify: {err}", file=_sys.stderr)
        return EXIT_INPUT
    rendered = getattr(rp, f"render_{args.format}")(result, args.mode, verification)
    try:
        print(rendered, flush=True)
    except OSError as err:  # stdout closed, e.g. a pipe whose reader quit
        # send the unwritten rest to devnull, or the flush at exit fails again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), _sys.stdout.fileno())
        print(f"error: cannot write the report: {err}", file=_sys.stderr)
        return EXIT_INPUT
    if args.out:
        target = Path(args.out) / f"report.{_EXTENSIONS[args.format]}"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(rendered + ("\n" if not rendered.endswith("\n") else ""))
        except OSError as err:
            print(f"error: --out: cannot write the report: {err}", file=_sys.stderr)
            return EXIT_INPUT

    if args.mode in ("both", "autonomous") and not result.autonomous_exists():
        return EXIT_NO_AUTONOMOUS
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
