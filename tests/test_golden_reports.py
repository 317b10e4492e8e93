"""Whole text and LaTeX reports, pinned byte for byte.

`tests/golden/<name>.txt` and `<name>.tex` hold what
`homapprox --input <system> --format text` (or `--format latex`) prints
in the default mode, for systems of the benchmark suite under
`perfbench/systems/` and for a one-state system whose autonomous witness
has index 1.  `tests/golden/deep12.json` holds the JSON report of an
order-12 system, one order past the deepest benchmark system, and
`early4.json` that of a system whose core is complete at order 3 < n.
`sys3_verify.json` and `deep7_verify.json` hold what
`homapprox --input <system> --format json --verify` prints, so the
residuals, slopes and shuffle residual of `--verify` are pinned too.
Regenerate a golden only when a report change is intended.
"""
from functools import lru_cache
from pathlib import Path

import pytest

from homapprox import approx as ap
from homapprox import report as rp
from homapprox.cli import EXIT_NO_AUTONOMOUS, EXIT_OK, main, parse_system_file

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

BENCH_SYSTEMS = ("sys3", "sys3_drift", "mixed4", "rat3", "rat5", "quot", "deep7")
# phi(l~_1) is the witness, so it is no shuffle polynomial in constants
WITNESS1 = "n = 1\na1 = 0\nb1 = t\n"
# second state reachable only through an order-12 bracket
DEEP12 = "n = 2\na1 = 0\na2 = x1^11\nb1 = 1\nb2 = 0\n"
# weights (1, 2, 3, 3), so the series stops at N = n = 4
EARLY4 = "n = 4\na1 = 0\na2 = x1\na3 = x2\na4 = x1^2\nb1 = 1\nb2 = 0\nb3 = 0\nb4 = 0\n"

RENDERERS = {"txt": rp.render_text, "tex": rp.render_latex}


@lru_cache(maxsize=None)
def _result(name: str) -> ap.ApproximationResult:
    if name == "witness1":
        text = WITNESS1
    else:
        text = (ROOT / "perfbench" / "systems" / f"{name}.txt").read_text()
    return ap.approximate(parse_system_file(text))


@pytest.mark.parametrize("ext", sorted(RENDERERS))
@pytest.mark.parametrize("name", BENCH_SYSTEMS + ("witness1",))
def test_report_matches_golden(name, ext):
    # the CLI prints the report followed by one newline
    got = RENDERERS[ext](_result(name)) + "\n"
    assert got == (GOLDEN / f"{name}.{ext}").read_text()


def test_deep12_json_report_matches_golden(tmp_path, capsys):
    for name, text in (("deep12", DEEP12), ("early4", EARLY4)):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        assert main(["--input", str(path), "--format", "json"]) == EXIT_OK
        assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(), name


@pytest.mark.parametrize(
    "name, code", [("sys3", EXIT_NO_AUTONOMOUS), ("deep7", EXIT_OK)]
)
def test_verify_json_report_matches_golden(name, code, capsys):
    path = ROOT / "perfbench" / "systems" / f"{name}.txt"
    assert main(["--input", str(path), "--format", "json", "--verify"]) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}_verify.json").read_text()
