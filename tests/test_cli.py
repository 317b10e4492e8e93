import argparse
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from homapprox import cli
from homapprox import expr as ex
from homapprox import verify as vf
from homapprox.algebra import AlgElem
from homapprox.approx import DEFAULT_MAX_ORDER, approximate
from homapprox.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_NO_AUTONOMOUS,
    EXIT_NOT_ACCESSIBLE,
    EXIT_OK,
    InputError,
    main,
    parse_system_file,
)
from homapprox.report import (
    elem_latex,
    polynomial_json,
    polynomial_latex,
    polynomial_str,
    render_latex,
    render_text,
)
from homapprox.series import ControlSystem, system_from_strings

EX1 = """\
# worked three-dimensional example
n = 3
a1 = 0
a2 = -sin(x1)^2
a3 = 2*x1^2*sin(t)
b1 = -cos(x1)
b2 = t^2
b3 = -x2
"""

EX1_CHANGED = EX1.replace("a2 = -sin(x1)^2", "a2 = -sin(x1)^2 - 2*t*x1")


@pytest.fixture
def ex1_file(tmp_path):
    p = tmp_path / "ex1.txt"
    p.write_text(EX1)
    return p


@pytest.fixture
def changed_file(tmp_path):
    p = tmp_path / "changed.txt"
    p.write_text(EX1_CHANGED)
    return p


# ---------------------------------------------------------------------------
# input parsing

def test_parse_system_file():
    sys3 = parse_system_file(EX1)
    assert sys3.n == 3
    assert sys3.a[1] == ex.Prod(
        (ex.Const(F(-1)), ex.Pow(ex.Func("sin", ex.Var(1)), 2))
    )
    assert ex.expr_to_str(sys3.a[1]) == "-sin(x1)^2"
    assert ex.expr_to_str(sys3.b[1]) == "t^2"


def test_parse_system_file_takes_n_on_any_line():
    # the lines may come in any order, n on the last one too
    last = parse_system_file("b2 = x1\na2 = 0\nb1 = 1\na1 = 0\nn = 2\n")
    assert last == parse_system_file("n = 2\na1 = 0\na2 = 0\nb1 = 1\nb2 = x1\n")


def test_parse_rejects_malformed_input():
    with pytest.raises(InputError, match="missing 'n"):
        parse_system_file("a1 = 0\nb1 = 1\n")
    with pytest.raises(InputError, match="line 2: n defined twice"):
        parse_system_file("n = 1\nn = 2\na1 = 0\nb1 = 1\n")
    with pytest.raises(InputError, match="line 3: a1 defined twice"):
        parse_system_file("n = 1\na1 = 0\na1 = t\nb1 = 1\n")
    with pytest.raises(InputError, match="missing component b1"):
        parse_system_file("n = 1\na1 = 0\n")
    with pytest.raises(InputError, match="out of range"):
        parse_system_file("n = 1\na1 = 0\nb1 = 1\na2 = 0\n")
    with pytest.raises(InputError, match="unknown key"):
        parse_system_file("n = 1\nq1 = 0\na1 = 0\nb1 = 1\n")
    with pytest.raises(InputError, match="must be an integer"):
        parse_system_file("n = one\na1 = 0\nb1 = 1\n")
    with pytest.raises(InputError, match="between 1 and 10"):
        parse_system_file("n = 11\n")
    # past Python's int-to-string digit limit n is still an integer
    with pytest.raises(InputError, match="between 1 and 10"):
        parse_system_file("n = " + "1" * 5000 + "\n")
    assert parse_system_file("n = +1\na1 = 0\nb1 = 1\n").n == 1
    with pytest.raises(InputError, match="expected 'name = expression'"):
        parse_system_file("n = 1\njunk\n")


def test_parse_reports_position_of_syntax_errors():
    text = "n = 1\na1 = 0\nb1 = sin(x1\n"
    with pytest.raises(InputError, match=r"line 3, b1:"):
        parse_system_file(text)


def _nested(shape: str, levels: int) -> str:
    """A drift component `levels` deep by the parser's count: one level
    per parenthesis or function call and one per '/' in a chain."""
    if shape == "parens":
        return "(" * levels + "x1" + ")" * levels
    if shape == "sin":
        return "sin(" * levels + "x1" + ")" * levels
    if shape == "sin_sum":
        text = "sin(x1)"
        for _ in range(levels - 1):
            text = f"sin(x1 + x2*{text}^2)"
        return text
    return "x1" + "/exp(x1)" * (levels - 1)


@pytest.mark.parametrize("shape", ["parens", "sin", "sin_sum", "quotients"])
def test_main_bounds_nesting(tmp_path, capsys, shape):
    # the deepest accepted input runs through --verify, whose generated
    # code stays under Python's parenthesis limit; one level more exits 2
    p = tmp_path / "deep.txt"
    for levels, code in ((ex.MAX_DEPTH, EXIT_OK), (ex.MAX_DEPTH + 1, EXIT_INPUT)):
        p.write_text(f"n = 2\na1 = 0\na2 = {_nested(shape, levels)}\nb1 = 1\nb2 = 0\n")
        assert main(["--input", str(p), "--verify"]) == code
    err = capsys.readouterr().err
    message = rf"error: line 3, a2: nesting deeper than {ex.MAX_DEPTH} levels \(at position \d+\)\n"
    assert re.fullmatch(message, err), err


# the smallest power of 2 past the bound, cheap to compute should the bound fail
K = ex.MAX_POWER_BITS // 2 + 1


TOO_LARGE = f"^{K} has more than {ex.MAX_POWER_BITS} bits"


@pytest.mark.parametrize(
    "lines, message",
    [
        (f"a1 = 0\nb1 = 1 + 2^{K}*x1", f"line 3, b1: 2{TOO_LARGE} (at position 5)"),
        # exact evaluation at the origin, after the parser
        (f"a1 = 0\nb1 = (2 + x1)^{K}", f"line 3, b1: 2{TOO_LARGE}\n"),
        # the equilibrium check's sample at t = 1/7
        (f"a1 = t^{K}\nb1 = 1", f"cannot be certified zero at t=1/7: (1/7){TOO_LARGE}"),
    ],
)
def test_main_bounds_constant_powers(tmp_path, capsys, lines, message):
    p = tmp_path / "power.txt"
    p.write_text(f"n = 1\n{lines}\n")
    assert main(["--input", str(p)]) == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_main_certifies_a_drift_cancelling_up_to_a_quotient_sign(tmp_path):
    # -2*s/d and 2*s/d are one quotient with opposite signs, so the drift
    # simplifies to 0; with the sign folded into the numerator they stayed
    # apart and the sample at t = -1 divided by zero
    p = tmp_path / "cancel.txt"
    p.write_text("n = 1\na1 = -2*sin(t)/(1 + t) + 2*sin(t)/(1 + t)\nb1 = 1\n")
    assert main(["--input", str(p)]) == EXIT_OK


def test_main_rejects_bad_options(ex1_file, capsys):
    # the option reader checks the choices, main the order cap; all exit 2
    for bad in (["--mode", "sideways"], ["--format", "pdf"], ["--cache-dir", "d"]):
        with pytest.raises(SystemExit) as exc:
            main(["--input", str(ex1_file), *bad])
        assert exc.value.code == EXIT_INPUT
    assert main(["--input", str(ex1_file), "--max-order", "0"]) == EXIT_INPUT
    assert "error: --max-order must be >= 1" in capsys.readouterr().err


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI used before it read its options itself."""
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
        default=DEFAULT_MAX_ORDER,
        help=f"cap on the series order N (default {DEFAULT_MAX_ORDER})",
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
    return p


def read_both(parse, tokens):
    """(exit code or the six option values, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = parse(tokens)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    names = ("input", "max_order", "mode", "format", "verify", "out")
    return {name: getattr(args, name) for name in names}, out.getvalue(), err.getvalue()


_VALUES = st.one_of(
    st.sampled_from(["both", "nonautonomous", "autonomous", "text", "latex", "json"]),
    st.integers(-20, 20).map(str),
    st.sampled_from(["", "--", "stray", "--bogus", "-h", "--he"]),
)
# a value each option takes
_SUITED = {
    "--input": st.just("system.txt"),
    "--max-order": st.integers(-3, 20).map(str),
    "--mode": st.sampled_from(["both", "nonautonomous", "autonomous"]),
    "--format": st.sampled_from(["text", "latex", "json"]),
    "--verify": _VALUES,
    "--out": st.sampled_from(["", "reports"]),
}


@st.composite
def command_lines(draw):
    """Options named in full or by a prefix (down to "--i" or the ambiguous
    "--m"), most with a value they take, as `--opt value` or `--opt=value`,
    at times with any value, or only the name or the value; most lines
    start with an --input."""
    tokens = [] if _rarely(draw) else ["--input", "system.txt"]
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(list(_SUITED)))
        prefix = name[: draw(st.integers(3, len(name)))]
        value = draw(_VALUES if _rarely(draw) else _SUITED[name])
        if _rarely(draw):
            tokens += draw(st.sampled_from([[prefix], [value], [f"{prefix}={value}"]]))
        elif name == "--verify":
            tokens.append(prefix)
        else:
            tokens += draw(st.sampled_from([[prefix, value], [f"{prefix}={value}"]]))
    return tokens


def read_alike_by_every_argparse(tokens) -> bool:
    """False for the command lines that argparse reads differently by version.
    Before Python 3.12 it rejects an ambiguous prefix before it reads a help
    option ahead of it, and it reads `--opt=--` as an empty list."""
    head = tokens[: tokens.index("--")] if "--" in tokens else tokens
    helps = [i for i, t in enumerate(head) if t in ("-h", "--he", "--hel", "--help")]
    ambiguous = [i for i, t in enumerate(head) if t.partition("=")[0] == "--m"]
    help_first = bool(helps and ambiguous) and min(helps) < max(ambiguous)
    return not help_first and not any(t.endswith("=--") for t in head)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(tokens=command_lines())
@example(tokens=["--input", "system.txt", "--m", "3"])
@example(tokens=["--input", "system.txt", "--max-order", "-1"])
@example(tokens=["--input", "system.txt", "--verify=x"])
@example(tokens=["--input", "system.txt", "--out", ""])
@example(tokens=["--verify", "--mode", "both"])
@example(tokens=["--m", "-h"])
@example(tokens=["--he", "--", "--m"])
@example(tokens=["--input", "system.txt", "--"])
@example(tokens=["stray", "--bogus", "--he", "--mode", "sideways"])
@example(tokens=["--inp=a", "--v", "--out=", "--inp", "b", "--form=json", "--max-o=4"])
def test_option_reader_agrees_with_argparse_property(tokens):
    assume(read_alike_by_every_argparse(tokens))
    expected, _, _ = read_both(reference_parser().parse_args, tokens)
    got, out, err = read_both(cli.read_options, tokens)
    assert got == expected
    if got == EXIT_INPUT:
        usage, error = err.split("\nhomapprox: error: ")
        assert usage.startswith("usage: homapprox [-h] --input INPUT") and error.endswith("\n")
    elif got == EXIT_OK:
        assert out.startswith("usage: homapprox ") and "\n  --verify" in out


@pytest.mark.parametrize(
    "tokens, code, message",
    [
        # each token is read when reached, as argparse does since Python 3.12
        (["-h", "--m"], EXIT_OK, ""),
        (["--m", "-h"], EXIT_INPUT, "ambiguous option: --m could match --max-order, --mode"),
        # any value attached to -h is refused
        (["-hX"], EXIT_INPUT, "argument -h/--help: ignored explicit argument 'X'"),
        (["-h=X"], EXIT_INPUT, "argument -h/--help: ignored explicit argument 'X'"),
        (["-hh"], EXIT_INPUT, "argument -h/--help: ignored explicit argument 'h'"),
        (["--input", "a", "--"], EXIT_INPUT, "unrecognized arguments: --"),
    ],
)
def test_option_reader_on_what_argparse_versions_read_differently(tokens, code, message):
    got, out, err = read_both(cli.read_options, tokens)
    assert got == code
    assert err.endswith(f"homapprox: error: {message}\n" if message else "")
    # "--" attached to an option is its value, as argparse reads it since Python 3.12
    args = cli.read_options(["--input=--", "--out=--"])
    assert (args.input, args.out) == ("--", "--")


# the pattern by which the option reader once told a negative number from an
# option; it matches what argparse's own negative-number pattern matches
_OLD_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")
# ASCII and other Unicode decimal digits (Arabic-Indic, Devanagari, fullwidth,
# mathematical), digits that are not decimal (superscript two, one half), a
# point, a minus, a newline and letters
_TOKEN_CHARS = "019.-\n\u0663\u0967\uff15\U0001d7d8\u00b2\u00bdehx_"


@pytest.mark.parametrize(
    "token, number",
    [
        ("-1", True), ("-12", True), ("-.5", True), ("-1.5", True),
        ("-\u0663", True), ("-\u0661.\u0665", True), ("-1\n", True), ("-.5\n", True),
        ("-1.", False), ("-.", False), ("--1", False), ("-1.5.3", False),
        ("-1\n\n", False), ("-\n", False), ("-\u00b2", False), ("-\u00bd", False),
        ("-1e3", False), ("-1_0", False), ("-h1", False), ("-\n1", False),
    ],
)
def test_negative_numbers_are_values(token, number):
    assert bool(_OLD_NUMBER.match(token)) is number
    assert (cli._option(token) is None) is number


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.text(_TOKEN_CHARS, max_size=6) | st.text(max_size=4).filter(lambda t: " " not in t))
@example("\u0663\u0663")
@example("1.\n")
@example("")
def test_negative_number_check_matches_the_old_pattern(body):
    # without a space, a token starting with "-" that is not a number names
    # options (maybe none), so _option returns None exactly for numbers
    token = "-" + body
    assume(token != "-")
    assert (cli._option(token) is None) is bool(_OLD_NUMBER.match(token)), token


def test_usage_matches_argparse(monkeypatch):
    # the usage is built from the option table, wrapped as argparse wraps it
    # at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    assert cli._usage() + "\n" == reference_parser().format_usage()


def test_help_shows_usage_description_and_options(capsys):
    for option in ("-h", "--help", "--he"):
        with pytest.raises(SystemExit) as exc:
            main([option])
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("usage: homapprox [-h] --input INPUT [--max-order MAX_ORDER]\n")
        assert "around the origin, with exact rational arithmetic.\n\noptions:\n" in out
        assert "cap on the series order N (default 13)\n" in out


def test_cli_run_leaves_out_argparse_gettext_and_locale():
    # every run is a cold start: argparse and gettext cost about 3 ms to
    # import, and argparse's first message lookup imports locale for 1.3 ms
    # more; loaded by a site hook before the snapshot, they do not count
    code = (
        "import sys; before = set(sys.modules); from homapprox import cli; "
        "code = cli.main(['--input', sys.argv[1], '--format', 'json']); sys.stdout.flush(); "
        "print(code, sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - before)), "
        "file=sys.stderr)"
    )
    quot = Path(__file__).resolve().parent.parent / "perfbench" / "systems" / "quot.txt"
    proc = subprocess.run([sys.executable, "-c", code, quot], capture_output=True, text=True)
    assert proc.stderr == "0 []\n"
    assert json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# end-to-end exit codes

def test_main_exit_no_autonomous(ex1_file, capsys):
    code = main(["--input", str(ex1_file)])
    out = capsys.readouterr().out
    assert code == EXIT_NO_AUTONOMOUS
    assert "Autonomous homogeneous approximation: does not exist" in out
    assert "is not a shuffle polynomial in l~_1" in out


def test_main_exit_ok_nonautonomous_mode(ex1_file, capsys):
    code = main(["--input", str(ex1_file), "--mode", "nonautonomous"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "Non-autonomous homogeneous approximation:" in out
    assert "Autonomous" not in out


def test_main_exit_ok_autonomous_exists(changed_file, capsys):
    code = main(["--input", str(changed_file), "--mode", "autonomous"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "Autonomous homogeneous approximation:" in out


def test_main_missing_file(tmp_path, capsys):
    code = main(["--input", str(tmp_path / "absent.txt")])
    assert code == EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


def test_main_rejects_an_input_file_that_is_not_utf8(tmp_path, capsys):
    p = tmp_path / "latin1.txt"
    p.write_bytes(b"n = 1\na1 = 0\nb1 = 1\xff\n")
    with open(p) as f:  # in the default encoding, as main reads it
        try:
            f.read()
        except UnicodeDecodeError:
            pass
        else:
            pytest.skip("the default encoding decodes byte 0xff")
    assert main(["--input", str(p)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {p}: ") and "can't decode byte 0xff" in err


def test_main_rejects_an_input_path_with_a_nul_byte(capsys):
    # no shell passes a NUL in argv, but a library caller of main can
    assert main(["--input", "a\x00b"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: cannot read a\x00b: embedded null byte\n"


def test_main_rejects_an_out_path_with_a_nul_byte(ex1_file, capsys):
    code = main(["--input", str(ex1_file), "--out", "a\x00b"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    # the report is printed before --out is written
    assert captured.out.startswith("Homogeneous approximation report")
    assert captured.err == "error: --out: cannot write the report: embedded null byte\n"


def test_power_that_truncates_to_zero_reports_as_if_absent(tmp_path, capsys):
    # (x1/3 + t)^(10^12) has no term below degree 10^12, so b1 is 1 on every jet
    reports = []
    for b1 in ["1 + (x1/3 + t)^1000000000000", "1"]:
        p = tmp_path / "sys.txt"
        p.write_text(f"n = 1\na1 = 0\nb1 = {b1}\n")
        assert main(["--input", str(p), "--format", "json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_main_syntax_error(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("n = 1\na1 = 0\nb1 = 2 x1\n")
    code = main(["--input", str(p)])
    assert code == EXIT_INPUT
    assert "line 3, b1" in capsys.readouterr().err
    # the README's example
    p.write_text("n = 1\na1 = 0\nb1 = (1 + sin(x1)\n")
    assert main(["--input", str(p)]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: line 3, b1: expected ')' (at position 12)\n"


def test_main_equilibrium_violation(tmp_path, capsys):
    p = tmp_path / "drifty.txt"
    p.write_text("n = 1\na1 = t^2\nb1 = 1\n")
    code = main(["--input", str(p)])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: line 2, a1: a1(t,0) = 1/49 != 0 at t = 1/7; "
        "the origin must be an equilibrium of the drift\n"
    )


@pytest.mark.parametrize(
    "b1, message",
    [("1/x1", "division by zero"), ("sin(1+x1)", "sin(1) has no exact rational value")],
)
def test_main_component_undefined_at_origin(tmp_path, b1, message):
    p = tmp_path / "undefined.txt"
    p.write_text(f"n = 1\na1 = 0\nb1 = {b1}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "homapprox.cli", "--input", str(p)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_INPUT
    assert f"line 3, b1: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_main_maps_evaluation_errors_past_the_parser(tmp_path, capsys, monkeypatch):
    # a system built without the parser's check still ends in exit 2
    undefined = ControlSystem(1, (ex.ZERO,), (ex.Quot(ex.ONE, ex.Var(1)),))
    monkeypatch.setattr(cli, "parse_system_file", lambda text: undefined)
    p = tmp_path / "any.txt"
    p.write_text("n = 1\n")
    assert main(["--input", str(p)]) == EXIT_INPUT
    assert "division by zero" in capsys.readouterr().err


def test_main_exits_internal_on_an_inhomogeneous_output(ex1_file, capsys, monkeypatch):
    # 7*x3 in b_3 is of too high a weight for the self-check to see
    original = cli.ap.approximate

    def corrupted(system, max_order):
        res = original(system, max_order=max_order)
        b = [dict(comp) for comp in res.nonautonomous.b]
        b[2][(0, (0, 0, 1))] = F(7)
        return res._replace(nonautonomous=res.nonautonomous._replace(b=b))

    monkeypatch.setattr(cli.ap, "approximate", corrupted)
    assert main(["--input", str(ex1_file)]) == EXIT_INTERNAL
    assert capsys.readouterr().err == (
        "internal error: non-autonomous b3: t^0 x^(0, 0, 1) has weighted degree 4, "
        "not w_3 - 1 = 3\n"
    )


@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
def test_main_looks_up_the_renderer_at_call_time(ex1_file, capsys, monkeypatch, fmt):
    # a renderer rebound on the report module, as a tracing wrapper does,
    # is the one that runs
    stub = lambda result, mode, verification: f"stub {fmt}"  # noqa: E731
    monkeypatch.setattr(f"homapprox.report.render_{fmt}", stub)
    main(["--input", str(ex1_file), "--format", fmt])
    assert capsys.readouterr().out == f"stub {fmt}\n"


ACCESSIBLE = "n = 2\na1 = 0\na2 = x1^2\nb1 = 1\nb2 = 0\n"


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "homapprox.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, **(env or {})},
    )


def assert_lie_cache_ignored(tmp_path, system, name, content, *options):
    """A directory named by $HOMAPPROX_CACHE_DIR holding one Lie basis file
    neither changes the run nor gains or loses a file."""
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / name).write_text(content)
    fresh = run_cli("--input", system, *options)
    proc = run_cli("--input", system, *options, env={"HOMAPPROX_CACHE_DIR": str(cache)})
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout) == (fresh.returncode, fresh.stdout)
    assert [(f.name, f.read_text()) for f in cache.iterdir()] == [(name, content)]
    return proc


@pytest.mark.parametrize(
    "content",
    [
        # one word of two; a file once read gave exit 3, exit 0 with an
        # ideal generator missing, and an IndexError
        '{"order": 3, "words": [[2]]}',
        '{"order": 3, "words": [[0, 1]]}',
        '{"order": 3, "words": [[0, 0, 0]]}',
        '{"order": 3, "wor',  # truncated file
    ],
)
def test_main_recomputes_a_bad_lie_cache(tmp_path, content):
    p = tmp_path / "accessible.txt"
    p.write_text(ACCESSIBLE)
    proc = assert_lie_cache_ignored(tmp_path, p, "lie_order_3.json", content)
    assert proc.returncode == EXIT_OK


def test_main_ignores_a_foreign_lie_basis(ex1_file, tmp_path):
    # a valid basis of order 4, but not the scanned one ([0, 2] there):
    # read as a cache, it flipped the signs of b3
    foreign = '{"order": 4, "words": [[3], [2, 0], [0, 0, 1]]}'
    assert_lie_cache_ignored(
        tmp_path, ex1_file, "lie_order_4.json", foreign, "--format", "json"
    )


@pytest.mark.parametrize("option", ["--out"])
def test_main_rejects_a_regular_file_as_directory(tmp_path, option):
    p = tmp_path / "accessible.txt"
    p.write_text(ACCESSIBLE)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    proc = run_cli("--input", p, option, blocker)
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.startswith(f"error: {option}: ")
    assert "Traceback" not in proc.stderr


def test_main_maps_a_verification_blow_up(tmp_path):
    # the backward integration of x1' = x1^2 + 10^6 u leaves float range
    p = tmp_path / "stiff.txt"
    p.write_text("n = 1\na1 = x1^2\nb1 = 1000000\n")
    proc = run_cli("--input", p, "--verify")
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.startswith("error: --verify: numerical blow-up")
    assert "Traceback" not in proc.stderr


def test_main_maps_a_division_by_zero_in_the_backward_integration(tmp_path):
    # x1 reaches 1 within the first step under u = -1 and 1 - x1 divides x2
    p = tmp_path / "pole.txt"
    p.write_text("n = 2\na1 = 0\na2 = x2/(1-x1)\nb1 = 10000\nb2 = 1\n")
    proc = run_cli("--input", p, "--verify")
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr == (
        "error: --verify: float division by zero in backward integration\n"
    )


def test_main_maps_a_math_domain_error_in_the_backward_integration(tmp_path):
    # the product passes float range and sin of inf raises; the term is of
    # order 7, beyond the series, so the series stays in float range
    p = tmp_path / "overflow.txt"
    p.write_text(
        "n = 2\na1 = 0\na2 = x1 + sin(x1^5*(10^308+x1)*(10^308+x2))\n"
        "b1 = 1\nb2 = 0\n"
    )
    proc = run_cli("--input", p, "--verify")
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr == (
        "error: --verify: math domain error in backward integration\n"
    )


# a float error of --verify names the stage it comes from
@pytest.mark.parametrize(
    "text, stage",
    [
        # the series' (10^300)^2 terms leave float range, and the prediction
        # is made before the backward integration
        (
            "n = 2\na1 = 0\na2 = sin(x1*x1)\nb1 = 10^300\nb2 = 0\n",
            "series prediction at theta = 0.2",
        ),
        (
            "n = 2\na1 = 0\na2 = 10^300*x2*x2*t^2+10^300*x1*x1*t\n"
            "b1 = 10^300*exp(t)\nb2 = 10^300*x1*x2\n",
            "series prediction at theta = 0.2",
        ),
        # a float power in the RK4 loop overflows before the blow-up check
        (
            "n = 1\na1 = 0\nb1 = 1000000*x1*sin(t)+exp(x1*x1)*10^6\n",
            "backward integration",
        ),
        # the series' x2 is near 10^157, in float range, but not its square
        (
            "n = 2\na1 = 0\na2 = sin(10^160*x1*x1)\nb1 = 1\nb2 = 0\n",
            "residual at theta = 0.2",
        ),
        # a constant past float range cannot be compiled into the loop
        ("n = 1\na1 = 0\nb1 = 1 + " + "9" * 400 + "*x1\n", "backward integration"),
    ],
    ids=["huge_control", "huge_coefficients", "float_power", "residual", "constant"],
)
def test_main_names_the_stage_of_a_verification_float_error(
    tmp_path, capsys, text, stage
):
    p = tmp_path / "system.txt"
    p.write_text(text)
    code = main(["--input", str(p), "--max-order", "5", "--verify"])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "Traceback" not in err
    assert re.fullmatch(rf"error: --verify: [^\n]+ in {re.escape(stage)}\n", err), err


def test_main_names_the_reason_of_a_float_overflow(tmp_path, capsys):
    # a float ** in the RK4 loop overflows with (errno, reason) as its args
    p = tmp_path / "system.txt"
    p.write_text("n = 1\na1 = 0\nb1 = 1000000*x1*sin(t)+exp(x1*x1)*10^6\n")
    code = main(["--input", str(p), "--max-order", "3", "--verify"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: --verify: Numerical result out of range in backward integration\n"
    )


def test_main_not_accessible(tmp_path, capsys):
    p = tmp_path / "dead.txt"
    p.write_text("n = 1\na1 = 0\nb1 = 0\n")
    code = main(["--input", str(p), "--max-order", "3"])
    assert code == EXIT_NOT_ACCESSIBLE
    assert "not accessible" in capsys.readouterr().err


def test_main_huge_power_of_a_state_has_the_zero_jet(tmp_path, capsys):
    # x1^k vanishes to order k, so past the jet degree it is the zero jet
    p = tmp_path / "huge.txt"
    p.write_text("n = 1\na1 = 0\nb1 = x1^99999999999\n")
    code = main(["--input", str(p), "--max-order", "4"])
    assert code == EXIT_NOT_ACCESSIBLE
    err = capsys.readouterr().err
    assert "not accessible" in err
    assert "Traceback" not in err


# the factor 7^2000 has 1691 digits (within expr.MAX_POWER_BITS), and report
# coefficients built from it pass Python's default limit of 4300 digits on
# int-to-string conversion
BIG7 = "n = 2\na1 = 0\na2 = x1^6\nb1 = 1 + 7^2000*x1\nb2 = 0\n"


def test_main_prints_huge_exact_constants(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    p = tmp_path / "big.txt"
    p.write_text(BIG7)
    code = main(["--input", str(p), "--max-order", "7", "--format", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    assert json.loads(captured.out)["weights"] == [1, 7]
    assert sys.get_int_max_str_digits() == limit
    p.write_text("n = 1\na1 = 0\nb1 = 1 + " + "9" * 5000 + "*x1\n")
    code = main(["--input", str(p), "--max-order", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    assert "9" * 5000 in captured.out
    assert sys.get_int_max_str_digits() == limit


def test_main_maps_a_verification_overflow(tmp_path, capsys):
    # moments with 7^2000 in them overflow a float
    limit = sys.get_int_max_str_digits()
    p = tmp_path / "big.txt"
    p.write_text(BIG7)
    code = main(["--input", str(p), "--max-order", "7", "--verify"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: --verify: ")
    assert sys.get_int_max_str_digits() == limit


def test_main_verify_compiles_huge_exponents(tmp_path, capsys):
    # a 5000-digit exponent compiles (as a hex literal) outside the CLI too,
    # and only the float it makes overflows
    limit = sys.get_int_max_str_digits()
    b1 = "1 + x1^" + "1" * 5000
    p = tmp_path / "power.txt"
    p.write_text(f"n = 1\na1 = 0\nb1 = {b1}\n")
    code = main(["--input", str(p), "--max-order", "3", "--verify"])
    assert code == EXIT_INPUT
    message = "error: --verify: int too large to convert to float in backward integration\n"
    assert capsys.readouterr().err == message
    integrate = vf.compile_backward(system_from_strings(1, ["0"], [b1]))
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        integrate((1.0,), 0.1, 10)
    assert sys.get_int_max_str_digits() == limit


def test_main_verify_reports_a_constant_past_float_range(tmp_path, capsys):
    # 10^400 is an int in the tree; --verify's generated code reads it by a
    # true division, as float() read the Fraction before, so the text is the same
    p = tmp_path / "big.txt"
    p.write_text("n = 1\na1 = 0\nb1 = 1 + 10^400*x1\n")
    assert main(["--input", str(p), "--max-order", "3", "--verify"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: --verify: integer division result too large for a float"
        " in backward integration\n"
    )


def test_closed_stdout_ends_in_exit_2(ex1_file):
    # the reader of the pipe is gone before the report is written
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "homapprox.cli", "--input", str(ex1_file)],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write)
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.startswith("error: cannot write the report: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_console_script_runs(ex1_file):
    proc = subprocess.run(
        [sys.executable, "-m", "homapprox.cli", "--input", str(ex1_file)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_NO_AUTONOMOUS
    assert "Homogeneous approximation report" in proc.stdout


def test_cli_import_leaves_out_dataclasses():
    # every run is a cold start, and dataclasses with what it imports
    # (inspect, ast, dis, tokenize) and its generated methods cost about a
    # fifth of one
    code = (
        "import sys; before = set(sys.modules); import homapprox.cli; "
        "print(sorted({'dataclasses'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_leaves_out_typing():
    # typing costs 5-6 ms of a cold start; under -S no site hook loads it
    # before homapprox does
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, homapprox.cli; print('typing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# ---------------------------------------------------------------------------
# report content

def test_text_report_sections_in_order(ex1_file, capsys):
    main(["--input", str(ex1_file)])
    out = capsys.readouterr().out
    sections = [
        "Input system:",
        "Moment series (nonzero coefficients, orders <= N):",
        "Core elements (independent moment directions):",
        "Ideal generators (corrected dependent directions):",
        "Ideal blocks at core orders:",
        "Projected core elements:",
        "Weights (w_1..w_n) = (1, 3, 4)",
        "Non-autonomous homogeneous approximation:",
    ]
    positions = [out.index(s) for s in sections]
    assert positions == sorted(positions)
    assert "l_2 = g_3 = xi_{2}  (order 3, v = (0, -1, 0))" in out
    assert "order 4: rank 5 in dimension 8" in out


def test_nonautonomous_report_matches_published(ex1_file, capsys):
    main(["--input", str(ex1_file)])
    out = capsys.readouterr().out
    assert "dx1/dt = (-1)*u" in out
    assert "dx2/dt = (2/5*t*x1 - 1/5*t^2)*u" in out
    assert "dx3/dt = (-23/57*x2 - 4/57*t*x1^2 - 3/19*t^2*x1)*u" in out


def test_same_fractions_in_all_formats(ex1_file, capsys):
    outputs = {}
    for fmt in ("text", "latex", "json"):
        main(["--input", str(ex1_file), "--format", fmt])
        outputs[fmt] = capsys.readouterr().out
    for frac in ("1/5", "2/5", "3/19", "4/57", "23/57", "23/285", "46/285"):
        for fmt, out in outputs.items():
            assert frac in out, (frac, fmt)


def test_json_report_is_byte_stable_and_complete(ex1_file, capsys):
    main(["--input", str(ex1_file), "--format", "json"])
    first = capsys.readouterr().out
    main(["--input", str(ex1_file), "--format", "json"])
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    # reserializing with the same settings reproduces the exact bytes
    assert json.dumps(data, indent=2, sort_keys=True) == first.rstrip("\n")
    assert data["weights"] == [1, 3, 4]
    assert data["autonomous"] == {
        "exists": False,
        "witness_index": 2,
        "witness_kind": "phi",
        "witness_order": 2,
        "witness": [{"word": [1], "coeff": "2/5"}, {"word": [0, 0], "coeff": "-2/5"}],
    }
    gens = data["core"]["ideal_generators"]
    assert [g["order"] for g in gens] == [2, 3, 4, 4]
    assert gens[3]["combination"] == [["-1", 7], ["6", 6]]
    assert data["ideal_blocks"] == [
        {"order": 1, "dimension": 1, "rank": 0},
        {"order": 3, "dimension": 4, "rank": 2},
        {"order": 4, "dimension": 8, "rank": 5},
    ]


def test_out_directory_receives_report(ex1_file, tmp_path, capsys):
    outdir = tmp_path / "reports"
    for fmt, name in (("text", "report.txt"), ("latex", "report.tex"), ("json", "report.json")):
        main(["--input", str(ex1_file), "--format", fmt, "--out", str(outdir)])
        stdout = capsys.readouterr().out
        written = (outdir / name).read_text()
        assert written.rstrip("\n") == stdout.rstrip("\n")


def test_latex_report_structure(changed_file, capsys):
    main(["--input", str(changed_file), "--format", "latex"])
    out = capsys.readouterr().out
    assert r"\section*{Homogeneous approximation report}" in out
    assert r"\begin{align*}" in out
    assert r"\dot x_{2} &= -1/2\,x_1^{2} \\" in out


def test_verify_flag_adds_section(changed_file, capsys):
    code = main(["--input", str(changed_file), "--verify"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "Numerical verification:" in out
    assert "residual order check" in out
    assert "max shuffle-identity residual" in out


# ---------------------------------------------------------------------------
# rendering helpers

def test_polynomial_renderers():
    b2 = {(2, (0, 0, 0)): F(-1, 5), (1, (1, 0, 0)): F(2, 5)}
    # both print the monomials ascending by (t_power, x_powers)
    assert polynomial_str(b2) == "2/5*t*x1 - 1/5*t^2"
    assert polynomial_latex(b2) == r"2/5\,t\,x_1 - 1/5\,t^{2}"
    assert polynomial_str({}) == "0"
    assert polynomial_latex({}) == "0"
    assert polynomial_str({(0, (0, 0)): F(-1)}) == "-1"
    # a coefficient -1 is a sign, not a factor
    assert polynomial_str({(1, (0,)): F(-1)}) == "-t"
    assert polynomial_latex({(1, (0,)): F(-1)}) == "-t"
    assert polynomial_json(b2) == [
        {"t_power": 1, "x_powers": [1, 0, 0], "coeff": "2/5"},
        {"t_power": 2, "x_powers": [0, 0, 0], "coeff": "-1/5"},
    ]


def test_witness_scope_names_the_earlier_projections():
    # the goldens cover witness indices 1 and 2; index 3 names a range
    res = approximate(system_from_strings(1, ["0"], ["t"]))
    res = res._replace(autonomous=res.autonomous._replace(index=3))
    assert "shuffle polynomial in l~_1..l~_2\n" in render_text(res)
    latex = render_latex(res)
    assert r"shuffle polynomial in $\tilde\ell_1,\dots,\tilde\ell_{2}$." in latex


def test_ideal_generator_line_folds_negative_coefficients(sys3):
    # the goldens only have a negative first coefficient (d_4 = -g_7 + 6*g_6)
    res = approximate(sys3)
    d = res.core.dees[0]
    dees = [d._replace(combo=((F(1), 7), (F(-6), 6), (F(-1), 5)))]
    res = res._replace(core=res.core._replace(dees=dees))
    line = f"  d_1 = g_7 - 6*g_6 - g_5 = {d.elem}  (order {d.order})\n"
    assert line in render_text(res)


def test_elem_latex():
    def xi(*letters):
        return AlgElem.from_word(tuple(letters))

    l2 = F(1, 5) * xi(2) - F(2, 5) * xi(0, 1)
    assert elem_latex(l2) == r"1/5\,\xi_{2} - 2/5\,\xi_{0\,1}"
    assert elem_latex(AlgElem()) == "0"
    assert elem_latex(xi(0) - xi(1)) == r"\xi_{0} - \xi_{1}"


# ---------------------------------------------------------------------------
# hostile input files

_NUMBERS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.builds("{}.{}".format, st.integers(0, 99), st.integers(0, 99)),
    # literals of up to 5000 digits
    st.builds(str.__mul__, st.sampled_from("1379"), st.integers(1, 5000)),
)
# exponents of up to 30 digits
_EXPONENTS = st.integers(0, 3).map(str) | st.integers(0, 10**30 - 1).map(str)


def _sound(inner):
    """Grammatical expressions over the states, t and the functions."""
    return st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("({})^{}".format, inner, _EXPONENTS),
        st.builds("{}({})".format, st.sampled_from(["sin", "cos", "exp"]), inner),
        inner.map("-({})".format),
    )


def _broken(inner):
    """Unknown names and functions, nesting past MAX_DEPTH, stray characters."""
    return st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("{}({})".format, st.sampled_from(["tan", "log", "sin "]), inner),
        st.builds(lambda k, e: "(" * k + e + ")" * k, st.integers(28, 36), inner),
        st.builds("{}{}".format, inner, st.sampled_from([*"()^=#²", "^1.5"])),
    )


def _sound_over(n):
    """Grammatical expressions over t and the states x1..xn."""
    states = ["t", *(f"x{i}" for i in range(1, n + 1))]
    return st.recursive(_NUMBERS | st.sampled_from(states), _sound, max_leaves=6)


_SOUND = {n: _sound_over(n) for n in (1, 2, 3)}
_BROKEN = st.recursive(
    _SOUND[3] | st.sampled_from(["x0", "x4", "x01", "x", "y", "u", "x²", "x١"]),
    _broken,
    max_leaves=4,
)
# duplicate, out-of-range and unknown keys
_KEYS = st.one_of(
    st.sampled_from(["n", "a1", "b1", "a3", "b4", "a0", "a01", "x1", "a²"]),
    st.text("abnx019²_ ", max_size=4),
)
_N_VALUES = st.one_of(
    st.integers(-1, 12).map(str), st.sampled_from(["1.5", "two", "", "1" * 5000])
)


def _rarely(draw) -> bool:
    # Hypothesis draws small integers most and shrinks toward 0
    return draw(st.integers(0, 5)) == 5


@st.composite
def hostile_files(draw, broken=True):
    """A system file of dimension 1-3: sound components (drifts vanishing
    at the origin) and, when broken, at times broken ones, a bad n line, an
    extra key, a duplicate or a missing line.  Sound files read only the
    states x1..xn."""

    def rarely() -> bool:
        return broken and _rarely(draw)

    n = draw(st.integers(1, 3))
    sound = _SOUND[3 if broken else n]  # broken files read x1..x3 whatever n is
    lines = []
    for prefix in "ab":
        for i in range(1, n + 1):
            e = draw(_BROKEN if rarely() else sound)
            drift = prefix == "a" and not rarely()
            lines.append(f"{prefix}{i} = " + (f"x{i} * ({e})" if drift else e))
    lines.append(f"n = {draw(_N_VALUES) if rarely() else n}")
    if rarely():
        lines.append(draw(st.builds("{} = {}".format, _KEYS, _BROKEN)))
    lines = draw(st.permutations(lines))
    return "\n".join(lines[1:] if rarely() else lines) + "\n"


# seconds one hostile file may take; the slowest of 2000 random draws took 0.26 s
HOSTILE_SECONDS = 5.0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=hostile_files())
# non-ASCII digits, which str.isdigit takes and int and Fraction refuse
@example(text="n = 1\na1 = 0\nb1 = x²\n")
@example(text="n = 1\na1 = 0\nb1 = x1^²\n")
@example(text="n = 1\na1 = 0\nb1 = ²\n")
@example(text="n = 1\na1 = 0\nb1 = 1\na² = 0\n")
def test_hostile_input_ends_in_a_documented_exit_property(text):
    assert_documented_exit(text)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=hostile_files(broken=False))
@example(text="n = 1\na1 = 0\nb1 = 1000000*x1*sin(t)+exp(x1*x1)*10^6\n")
def test_hostile_input_with_verify_ends_in_a_documented_exit_property(text):
    assert_documented_exit(text, "--verify")


def assert_documented_exit(text, *options):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.txt"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["--input", str(path), "--max-order", "3", *options])
        elapsed = time.perf_counter() - start
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_NOT_ACCESSIBLE, EXIT_NO_AUTONOMOUS), err
    assert "Traceback" not in err
    if code == EXIT_INPUT:
        assert err.startswith("error: "), err
        # the line at fault, or what has none: a component, the n line or an option
        located = r"line \d+|missing component |components out of range |missing 'n|--[a-z]"
        assert re.match(rf"error: ({located})", err), err
        if err.startswith("error: --verify: "):
            stage = r"backward integration|(series prediction|residual) at theta = \S+"
            assert re.fullmatch(rf"error: --verify: [^\n]+ in ({stage})\n", err), err
    assert elapsed < HOSTILE_SECONDS
