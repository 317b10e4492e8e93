"""Command-line driver.

Reads a declarative system description, runs the approximation pipeline
and writes a report.  Exit codes: 0 success, 2 input error, 3 system not
accessible up to the order cap, 4 autonomous approximation requested but
nonexistent (the report, including the witness, is still produced),
5 internal error.
"""
from __future__ import annotations

import argparse
import random
import sys as _sys
from dataclasses import dataclass
from pathlib import Path

from . import approx as ap
from . import expr as ex
from . import report as rp
from . import verify as vf
from .series import ControlSystem, EquilibriumError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_ACCESSIBLE = 3
EXIT_NO_AUTONOMOUS = 4
EXIT_INTERNAL = 5

_EXTENSIONS = {"text": "txt", "latex": "tex", "json": "json"}


class InputError(Exception):
    pass


@dataclass
class JobConfig:
    input_path: Path
    max_order: int = ap.DEFAULT_MAX_ORDER
    mode: str = "both"
    format: str = "text"
    verify: bool = False
    out_dir: Path | None = None
    cache_dir: Path | None = None

    def __post_init__(self):
        if self.mode not in ("both", "nonautonomous", "autonomous"):
            raise InputError(f"unknown mode {self.mode!r}")
        if self.format not in _EXTENSIONS:
            raise InputError(f"unknown format {self.format!r}")
        if self.max_order < 1:
            raise InputError("--max-order must be >= 1")


def parse_system_file(text: str) -> ControlSystem:
    """Declarative format: one `n = <int>` line, then `a<i> = <expr>` and
    `b<i> = <expr>` lines for i = 1..n; `#` starts a comment."""
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
            try:
                n = int(value)
            except ValueError:
                raise InputError(f"line {lineno}: n must be an integer")
            if not 1 <= n <= 10:
                raise InputError(f"line {lineno}: n must be between 1 and 10")
            continue
        if len(key) >= 2 and key[0] in "ab" and key[1:].isdigit():
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
                parsed[key] = ex.simplify(ex.parse_expr(value, n))
                # the series needs every component defined at the origin
                ex.eval_at_origin(parsed[key])
            except (ex.ExprSyntaxError, ex.EvalError) as err:
                raise InputError(f"line {lineno}, {key}: {err}")
    return ControlSystem(
        n,
        tuple(parsed[f"a{i}"] for i in range(1, n + 1)),
        tuple(parsed[f"b{i}"] for i in range(1, n + 1)),
    )


def run_verification(result: ap.ApproximationResult, seed: int = 20240801) -> dict:
    rng = random.Random(seed)
    controls = [vf.random_control(rng) for _ in range(3)]
    oc = vf.order_check(result.system, result.table, controls)
    shuffle_res = max(
        vf.max_shuffle_residual(c, th, min(result.N, 4))
        for c in controls[:2]
        for th in (0.05, 0.1)
    )
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
        choices=("text", "latex", "json"),
        default="text",
        help="report format",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="run numerical cross-checks and include them in the report",
    )
    p.add_argument("--out", default=None, help="directory for the report file")
    p.add_argument(
        "--cache-dir",
        default=None,
        help="Lie basis cache directory (default: $HOMAPPROX_CACHE_DIR)",
    )
    return p


def _render(result, config, verification):
    if config.format == "text":
        return rp.render_text(result, config.mode, verification)
    if config.format == "latex":
        return rp.render_latex(result, config.mode, verification)
    return rp.render_json(result, config.mode, verification)


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        config = JobConfig(
            input_path=Path(args.input),
            max_order=args.max_order,
            mode=args.mode,
            format=args.format,
            verify=args.verify,
            out_dir=Path(args.out) if args.out else None,
            cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        )
    except InputError as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_INPUT

    try:
        text = config.input_path.read_text()
    except OSError as err:
        print(f"error: cannot read {config.input_path}: {err}", file=_sys.stderr)
        return EXIT_INPUT

    try:
        system = parse_system_file(text)
    except (InputError, ex.ExprSyntaxError, EquilibriumError, ValueError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_INPUT

    try:
        result = ap.approximate(
            system, max_order=config.max_order, cache_dir=config.cache_dir
        )
        ap.check_self_consistency(result)
    except (EquilibriumError, ex.EvalError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_INPUT
    except ap.NotAccessibleError as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_NOT_ACCESSIBLE
    except (ap.InternalConsistencyError, ap.NotRepresentableError) as err:
        print(f"internal error: {err}", file=_sys.stderr)
        return EXIT_INTERNAL

    verification = run_verification(result) if config.verify else None
    rendered = _render(result, config, verification)
    print(rendered)
    if config.out_dir is not None:
        config.out_dir.mkdir(parents=True, exist_ok=True)
        target = config.out_dir / f"report.{_EXTENSIONS[config.format]}"
        target.write_text(rendered + ("\n" if not rendered.endswith("\n") else ""))

    if config.mode in ("both", "autonomous") and not result.autonomous_exists():
        return EXIT_NO_AUTONOMOUS
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
