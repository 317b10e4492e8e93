"""The projected core elements against an independent oracle: sympy
builds the dense graded blocks J_m of the right ideal (every d*s for a
word s), takes their orthogonal complement as a null space and projects
each l_i onto it with the normal equations."""
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")

from homapprox.algebra import AlgElem, enumerate_basis  # noqa: E402
from homapprox.approx import approximate  # noqa: E402
from homapprox.cli import parse_system_file  # noqa: E402

SYSTEMS = Path(__file__).resolve().parent.parent / "perfbench" / "systems"

# the benchmark systems whose largest weight is at most 7
NAMES = ("sys3", "sys3_drift", "rat3", "rat5", "quot", "mixed4", "deep7")


def dense_block(dees, m: int, words: list):
    """Rows d*s of order m, one per generator d and word s, over `words`."""
    index = {w: k for k, w in enumerate(words)}
    rows = []
    for d in dees:
        if d.order > m:
            continue
        for s in enumerate_basis(m - d.order) if d.order < m else [()]:
            row = [0] * len(words)
            for w, c in d.elem.terms.items():
                row[index[w + s]] = sympy.Rational(c.numerator, c.denominator)
            rows.append(row)
    return sympy.Matrix(rows) if rows else sympy.zeros(0, len(words))


def oracle_projection(dees, elem: AlgElem, m: int) -> AlgElem:
    words = list(enumerate_basis(m))
    block = dense_block(dees, m, words)
    if block.rows:
        kernel = sympy.Matrix.hstack(*block.nullspace())
    else:
        kernel = sympy.eye(len(words))
    target = sympy.Matrix(
        [
            sympy.Rational(c.numerator, c.denominator)
            for c in (elem.terms.get(w, 0) for w in words)
        ]
    )
    beta = (kernel.T * kernel).LUsolve(kernel.T * target)
    proj = kernel * beta
    return AlgElem(
        {w: Fraction(int(v.p), int(v.q)) for w, v in zip(words, proj) if v != 0}
    )


@lru_cache(maxsize=None)
def result(name: str):
    return approximate(parse_system_file((SYSTEMS / f"{name}.txt").read_text()))


@pytest.mark.parametrize("name", NAMES)
def test_projection_matches_dense_oracle(name):
    res = result(name)
    assert max(res.weights) <= 7
    want = [oracle_projection(res.core.dees, l.elem, l.order) for l in res.core.ell]
    assert res.projected == want
