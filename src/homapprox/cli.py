"""Command-line driver.

Reads a declarative system description, runs the approximation pipeline
and writes a report.  `read_options` reads the command line from the
`_OPTIONS` table; a cold run loads no option parser, gettext or locale.
Exit codes: 0 success, 2 input error or a report that --out or stdout
cannot take, 3 system not accessible up to the order cap, 4 autonomous
approximation requested but nonexistent (the report, including the
witness, is still produced), 5 internal error.
Constants of any length go through `algebra.exact_number` and
`exact_str`; Python's int-to-string digit limit is left as it is.
"""
from __future__ import annotations

import os
import random
import sys as _sys
from types import SimpleNamespace

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

_DESCRIPTION = (
    "Compute the homogeneous approximation of a single-input control-affine system\n"
    "dx/dt = a(t,x) + b(t,x)u around the origin, with exact rational arithmetic."
)
# option -> (what it takes: str, int, a tuple of choices or None for a flag; default;
# help); --input is the one required option
_OPTIONS = {
    "--help": (None, None, "show this help message and exit"),
    "--input": (str, None, "system description file"),
    "--max-order": (int, ap.DEFAULT_MAX_ORDER,
                    f"cap on the series order N (default {ap.DEFAULT_MAX_ORDER})"),
    "--mode": (("both", "nonautonomous", "autonomous"), "both",
               "which approximating systems to report"),
    "--format": (tuple(_EXTENSIONS), "text", "report format"),
    "--verify": (None, False, "run numerical cross-checks and include them in the report"),
    "--out": (str, None, "directory for the report file"),
}


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


def _usage() -> str:
    """The usage line, wrapped at 78 columns as the standard option parser wrapped it."""
    lines = ["usage: homapprox"]
    for name, (takes, _, _) in _OPTIONS.items():
        metavar = ("{" + ",".join(takes) + "}" if isinstance(takes, tuple)
                   else takes and name[2:].upper().replace("-", "_"))
        arg = f"{name} {metavar}" if metavar else "-h" if name == "--help" else name
        part = arg if name == "--input" else f"[{arg}]"
        if len(lines[-1]) + len(part) >= 78:
            lines.append(" " * 16)
        lines[-1] += " " + part
    return "\n".join(lines)


def _fail(message: str):
    _sys.stderr.write(f"{_usage()}\nhomapprox: error: {message}\n")
    raise SystemExit(EXIT_INPUT)


def _option(token: str):
    """(the options `token` may name, none if it names an unknown one; its
    attached value or None), or None if `token` is a value."""
    # -1, -.5 and -1.5 are values, as for argparse also with one final "\n"
    head, point, tail = token[1:].removesuffix("\n").partition(".")
    number = (head.isdecimal() or point and not head) and (tail.isdecimal() or not point)
    if token[:1] != "-" or token == "-" or number:
        return None
    if token[1] == "h":  # the one short option; -hX, -h=X and -hh attach X or h to it
        return ["--help"], token[2:].removeprefix("=") if token[2:] else None
    name, eq, given = token.partition("=")
    names = [name] if name in _OPTIONS else [o for o in _OPTIONS if o.startswith(name)]
    return (names, given if eq else None) if names or " " not in token else None


def read_options(argv=None) -> SimpleNamespace:
    """The options in `argv` (default sys.argv[1:]): `--opt value` or
    `--opt=value`, a unique prefix for a name, the last occurrence winning,
    no option after "--".  Tokens are read left to right and each error is
    reported when its token is reached, so `-h --m` prints the help.  A bad
    command line prints the usage and an error and exits 2."""
    tokens = list(_sys.argv[1:] if argv is None else argv)
    end = tokens.index("--") if "--" in tokens else len(tokens)
    values = {name: default for name, (_, default, _) in _OPTIONS.items()}
    extras, i = [], 0
    while i < end:
        token, i = tokens[i], i + 1
        names, given = _option(token) or ([], None)
        if not names:
            extras.append(token)
            continue
        if len(names) > 1:
            _fail(f"ambiguous option: {token} could match {', '.join(names)}")
        name = names[0]
        takes, label = _OPTIONS[name][0], "-h/--help" if name == "--help" else name
        if takes is None and given is not None:
            _fail(f"argument {label}: ignored explicit argument {given!r}")
        if name == "--help":
            rows = "".join(f"\n  {'-h, --help' if o == '--help' else o:14}{spec[2]}"
                           for o, spec in _OPTIONS.items())
            print(f"{_usage()}\n\n{_DESCRIPTION}\n\noptions:{rows}")
            raise SystemExit(EXIT_OK)
        if given is None and takes is not None:
            if i == end or _option(tokens[i]) is not None:
                _fail(f"argument {label}: expected one argument")
            given, i = tokens[i], i + 1
        if takes is int:
            try:
                given = int(given)
            except ValueError:
                _fail(f"argument {label}: invalid int value: {given!r}")
        elif isinstance(takes, tuple) and given not in takes:
            _fail(f"argument {label}: invalid choice: {given!r} (choose from {str(takes)[1:-1]})")
        values[name] = True if takes is None else given
    extras += tokens[end:]
    if values["--input"] is None:
        _fail("the following arguments are required: --input")
    if extras:
        _fail("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**{name[2:].replace("-", "_"): v for name, v in values.items()})


def main(argv=None) -> int:
    args = read_options(argv)
    if args.max_order < 1:
        print("error: --max-order must be >= 1", file=_sys.stderr)
        return EXIT_INPUT

    try:
        with open(args.input) as f:
            text = f.read()
    except (OSError, ValueError) as err:  # also bad UTF-8 and a NUL in the path
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
        try:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, f"report.{_EXTENSIONS[args.format]}"), "w") as f:
                f.write(rendered + ("\n" if not rendered.endswith("\n") else ""))
        except (OSError, ValueError) as err:  # ValueError: a NUL in the path
            print(f"error: --out: cannot write the report: {err}", file=_sys.stderr)
            return EXIT_INPUT

    if args.mode in ("both", "autonomous") and not result.autonomous_exists():
        return EXIT_NO_AUTONOMOUS
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
