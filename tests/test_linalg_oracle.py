"""The exact solves and null spaces against sympy on random rational
matrices up to 5 x 5, many of them rank-deficient or inconsistent."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from homapprox.linalg import (  # noqa: E402
    IntEchelon,
    scale_to_int,
    solve_particular,
    solve_square,
)
from rowspace import row_space_canonical  # noqa: E402

# zeros and repeated small values make singular and inconsistent cases common
ENTRIES = st.sampled_from(
    [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
).map(Fraction)


@st.composite
def matrices(draw, rows=None, cols=None):
    """A rows x cols rational matrix; with some probability a few rows are
    replaced by combinations of the others, which lowers the rank."""
    rows = rows if rows is not None else draw(st.integers(1, 5))
    cols = cols if cols is not None else draw(st.integers(1, 5))
    m = [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.booleans()):
            c = [draw(ENTRIES) for _ in range(i)]
            m[i] = [sum(cj * m[j][col] for j, cj in enumerate(c)) for col in range(cols)]
    return m


def fractions_of(mat) -> list:
    """The entries of a sympy matrix of rationals, as Fractions."""
    return [Fraction(int(v.p), int(v.q)) for v in mat]


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_particular_matches_sympy_rref(a, data):
    dim, k = len(a), len(a[0])
    target = data.draw(st.lists(ENTRIES, min_size=dim, max_size=dim))
    rref, pivots = sympy.Matrix(a).row_join(sympy.Matrix(target)).rref()
    sol = solve_particular([[row[j] for row in a] for j in range(k)], target)
    if k in pivots:
        assert sol is None
        return
    want = [Fraction(0)] * k
    for i, value in zip(pivots, fractions_of(rref[:, k])):
        want[i] = value
    assert sol == want


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: matrices(k, k)), st.data())
def test_solve_square_matches_sympy_lusolve(a, data):
    rhs = data.draw(st.lists(ENTRIES, min_size=len(a), max_size=len(a)))
    m = sympy.Matrix(a)
    if m.det() == 0:
        with pytest.raises(ValueError, match="singular matrix"):
            solve_square(a, rhs)
        return
    assert solve_square(a, rhs) == fractions_of(m.LUsolve(sympy.Matrix(rhs)))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_nullspace_matches_sympy(a):
    ech = IntEchelon(len(a[0]))
    for row in a:
        ech.add(scale_to_int(row))
    mine = ech.nullspace_basis()
    theirs = [fractions_of(v) for v in sympy.Matrix(a).nullspace()]
    assert len(mine) == len(theirs)
    assert row_space_canonical(mine) == row_space_canonical(theirs)
