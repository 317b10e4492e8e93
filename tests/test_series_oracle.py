"""The moment series against an independent oracle: sympy differentiates
the vector fields symbolically, the ad-operator stack is applied to the
identity and the result is evaluated at the origin."""
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from homapprox.algebra import enumerate_basis  # noqa: E402
from homapprox.series import SeriesComputer, system_from_strings  # noqa: E402


def oracle_vectors(n, a_strs, b_strs, N) -> dict:
    """v(w) for every word of order <= N, computed with sympy diff/subs."""
    t = sympy.Symbol("t")
    xs = sympy.symbols(f"x1:{n + 1}")
    names = {"t": t, **{str(x): x for x in xs}}

    def parse(s):
        return sympy.sympify(s.replace("^", "**"), locals=names)

    a = [parse(s) for s in a_strs]
    b = [parse(s) for s in b_strs]

    def R_a(f):
        return sympy.diff(f, t) + sum(sympy.diff(f, x) * ai for x, ai in zip(xs, a))

    def R_b(f):
        return sum(sympy.diff(f, x) * bi for x, bi in zip(xs, b))

    def ad(j, f):
        # (ad_{R_a}^j R_b) f = R_a (ad^{j-1} R_b) f - (ad^{j-1} R_b) R_a f
        if j == 0:
            return R_b(f)
        return R_a(ad(j - 1, f)) - ad(j - 1, R_a(f))

    stacks = {(): list(xs)}

    def stack(w):
        if w not in stacks:
            stacks[w] = [ad(w[0], f) for f in stack(w[1:])]
        return stacks[w]

    origin = {t: 0, **{x: 0 for x in xs}}
    out = {}
    for m in range(1, N + 1):
        for w in enumerate_basis(m):
            scale = Fraction((-1) ** len(w), math.prod(math.factorial(k) for k in w))
            vec = []
            for f in stack(w):
                value = f.subs(origin)
                assert value.is_Rational, (w, value)
                vec.append(scale * Fraction(int(value.p), int(value.q)))
            out[w] = tuple(vec)
    return out


def assert_matches_oracle(n, a_strs, b_strs, N):
    table = SeriesComputer(system_from_strings(n, a_strs, b_strs)).table_up_to(N)
    for w, want in oracle_vectors(n, a_strs, b_strs, N).items():
        assert table.v(w) == want, (w, a_strs, b_strs)


SYSTEMS = {
    "sys3": (3, ["0", "-sin(x1)^2", "2*x1^2*sin(t)"], ["-cos(x1)", "t^2", "-x2"]),
    "sys3_drift": (
        3,
        ["0", "-sin(x1)^2 - 2*t*x1", "2*x1^2*sin(t)"],
        ["-cos(x1)", "t^2", "-x2"],
    ),
    "mixed4": (
        4,
        ["0", "x1^2*exp(t)", "x1*x2 - sin(x2)", "x3*cos(x1)"],
        ["cos(t)", "x1", "t*x1", "1/(1+x2)"],
    ),
    "quot": (2, ["0", "x1/(1-x2)"], ["exp(t)", "cos(x1)"]),
    # a quotient whose constant term is not +-1, and fractions inside sin/cos/exp
    "quot_offset": (2, ["0", "x1^2*cos(t)/(2 - x2)"], ["exp(t/3)", "0"]),
    "fraction_args": (
        3,
        ["0", "x1^2*exp(t/2)", "x2*cos(x1/3)/(2 - x3)"],
        ["1/(3 + t)", "0", "0"],
    ),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_series_matches_sympy_oracle(name):
    n, a_strs, b_strs = SYSTEMS[name]
    assert_matches_oracle(n, a_strs, b_strs, 4)


# ---------------------------------------------------------------------------
# random polynomial and rational systems


def monomials(n, need_state):
    """'c*t^e0*x1^e1...' of total degree <= 3; with need_state, some x_i
    occurs, so the monomial vanishes at x = 0 for every t."""
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    exps = st.lists(st.integers(0, 2), min_size=n + 1, max_size=n + 1).filter(
        lambda e: sum(e) <= 3 and (any(e[1:]) or not need_state)
    )

    def render(c, e):
        names = ["t"] + [f"x{i}" for i in range(1, n + 1)]
        return "".join([f"({c})"] + [f"*{v}^{k}" for v, k in zip(names, e) if k])

    return st.builds(render, coeff, exps)


def polynomials(n, need_state):
    return st.lists(monomials(n, need_state), min_size=1, max_size=3).map(" + ".join)


@st.composite
def components(draw, n, need_state):
    num = draw(polynomials(n, need_state))
    if not draw(st.booleans()):
        return num
    # the denominator is 1 at x = 0, so a(t, 0) = 0 still holds
    return f"({num})/(1 + {draw(polynomials(n, True))})"


@st.composite
def systems(draw):
    n = draw(st.integers(1, 3))
    a = [draw(components(n, True)) for _ in range(n)]
    b = [draw(components(n, False)) for _ in range(n)]
    return n, a, b, draw(st.integers(1, 4))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems())
def test_random_systems_match_sympy_oracle(case):
    n, a_strs, b_strs, N = case
    assert_matches_oracle(n, a_strs, b_strs, N)
