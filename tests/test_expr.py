import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homapprox import expr as ex
from homapprox.algebra import exact_number
from homapprox.series import ControlSystem, EquilibriumError, certify_drift
from reference_rk4 import reference_field


def F(*args):
    return Fraction(*args)


def float_function(e: ex.Expr):
    """e as a float function of (t, xs), compiled by the reference field
    printer, which --verify's integrator matches bit for bit."""
    zeros = (ex.ZERO,) * 3
    f = reference_field(ControlSystem(3, (e,) + zeros[1:], zeros))
    return lambda t, xs: f(t, xs, 0.0)[0]


# ---------------------------------------------------------------------------
# parsing

def test_parse_negated_function():
    # a minus is a product with -1, the form simplify gives it
    e = ex.parse_expr("-cos(x1)", 3)
    assert e == ex.Prod((ex.Const(F(-1)), ex.Func("cos", ex.Var(1))))
    assert ex.parse_expr("-2/(1 + x1)", 3) == ex.Prod(
        (ex.Const(F(-1)), ex.Quot(ex.Const(F(2)), ex.Sum((ex.ONE, ex.Var(1)))))
    )


def test_parse_zero():
    assert ex.parse_expr("0", 3) == ex.Const(F(0))


def test_parse_flat_product():
    e = ex.parse_expr("2*x1^2*sin(t)", 3)
    assert e == ex.Prod(
        (ex.Const(F(2)), ex.Pow(ex.Var(1), 2), ex.Func("sin", ex.Var(0)))
    )


def test_parse_rational_and_decimal_literals():
    assert ex.parse_expr("2/5", 3) == ex.Const(F(2, 5))
    assert ex.parse_expr("0.5", 3) == ex.Const(F(1, 2))
    assert ex.parse_expr("2.25", 3) == ex.Const(F(9, 4))


def test_integral_constants_are_ints():
    # Const stores an integral value as an int, which compares, hashes,
    # sorts and prints as the Fraction it stands for
    three = ex.Const(F(3))
    assert type(three.value) is int and three.value == 3
    assert three == ex.Const(3) and hash(three) == hash(ex.Const(3))
    assert ex._key(ex.Const(F(-4))) == ex._key(ex.Const(-4)) == "0(-4)"
    assert type(ex.Const(F(3, 2)).value) is Fraction
    # folded coefficients too; a quotient by a constant stays exact
    assert type(ex.parse_expr("6/3", 3).value) is int
    assert type(ex.parse_expr("2.0*x1", 3).factors[0].value) is int
    half = ex.parse_expr("x1/2", 3).factors[0].value
    assert type(half) is Fraction and half == F(1, 2)
    assert ex.differentiate(ex.parse_expr("x1^3", 3), 1) == ex.Prod(
        (ex.Const(F(3)), ex.Pow(ex.Var(1), 2))
    )
    for text, printed in [
        ("3*x1 - 2", "-2 + 3*x1"),
        ("x1/2 - 4*t/2", "-2*t + 1/2*x1"),
        ("(2 - 1/2)*x1^2 + 6/3", "2 + 3/2*x1^2"),
        ("-1/(2 - t)", "-1/(2 - t)"),
        ("x1*2^70/2^69", "2*x1"),
    ]:
        e = ex.parse_expr(text, 3)
        assert str(e) == printed
        assert ex.parse_expr(printed, 3) == e


def test_integral_quotients_at_the_origin_stay_exact():
    # int / int would be a float
    value = ex.eval_at_origin(ex.parse_expr("3/(2 + t)", 3))
    assert type(value) is Fraction and value == F(3, 2)
    assert ex.eval_at_origin(ex.parse_expr("4/(2 + t)", 3)) == 2
    # a drift whose x = 0 value is a quotient in t reaches the exact check at
    # rational times, and certifies
    drift = ex.parse_expr("x1/(2 - t)", 1)
    assert ex.substitute(drift, {1: ex.ZERO}) != ex.ZERO
    certify_drift("a1", drift, 1)
    with pytest.raises(EquilibriumError, match=r"a1\(t,0\) = 1/13 != 0 at t = 1/7;"):
        certify_drift("a1", ex.parse_expr("t/(2 - t)", 1), 1)


def test_parse_precedence_and_associativity():
    # a/b*c groups as (a/b)*c and a*b/c as (a*b)/c, minus binds looser
    # than *; sums and products come out sorted
    e = ex.parse_expr("1/2*t", 3)
    assert e == ex.Prod((ex.Const(F(1, 2)), ex.Var(0)))
    e2 = ex.parse_expr("-2*t + x1", 3)
    assert e2 == ex.Sum((ex.Var(1), ex.Prod((ex.Const(F(-2)), ex.Var(0)))))
    x1_over_t = ex.Quot(ex.Var(1), ex.Var(0))
    assert ex.parse_expr("x1/t*x2", 3) == ex.Prod((ex.Var(2), x1_over_t))
    assert ex.parse_expr("x1*x2/t", 3) == ex.Quot(
        ex.Prod((ex.Var(1), ex.Var(2))), ex.Var(0)
    )


def test_parse_error_positions():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse_expr("sin(x1", 3)
    assert err.value.position == 6
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse_expr("t^x1", 3)  # exponent must be an integer literal
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse_expr("t^-1", 3)
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse_expr("2 x1", 3)  # implicit multiplication rejected
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse_expr("tan(t)", 3)
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse_expr("x4", 3)  # index out of range
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse_expr("x0", 3)


def test_parse_bounds_nesting():
    deepest = "(" * ex.MAX_DEPTH + "x1" + ")" * ex.MAX_DEPTH
    assert ex.parse_expr(deepest, 3) == ex.Var(1)
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse_expr("(" + deepest + ")", 3)
    assert err.value.position == ex.MAX_DEPTH
    # a quotient nests the chain before its '/' one level deeper too
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse_expr(f"{deepest}/x1", 3)
    assert err.value.position == len(deepest)


def test_parse_bounds_constant_powers():
    k = ex.MAX_POWER_BITS // 2  # 2 has bit length 2
    assert ex.mk_pow(ex.Const(F(2)), k) == ex.Const(F(2) ** k)
    assert ex.parse_expr(f"x1^{k + 1}*1^{k + 1}", 3) == ex.Pow(ex.Var(1), k + 1)
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse_expr(f"x1 + 2^{k + 1}", 3)
    assert err.value.position == 6
    with pytest.raises(ex.PowerTooLargeError):
        ex.eval_at_origin(ex.Pow(ex.Sum((ex.Const(F(2)), ex.Var(1))), k + 1))


def test_huge_constants_sort_past_the_digit_limit():
    # 2^65536 has 19729 digits, more than int.__str__ prints by default
    limit = sys.get_int_max_str_digits()
    huge = ex.Const(F(2) ** 65536)
    assert ex.parse_expr("2^65536", 3) == huge
    assert ex.parse_expr("x1 + 2^65536", 3) == ex.Sum((huge, ex.Var(1)))
    assert ex.parse_expr("x1 - 1/2^65536", 3) == ex.Sum(
        (ex.Const(F(-1, huge.value)), ex.Var(1))
    )
    # they print in full outside the CLI, as do literals and exponents of
    # 5000 digits, and the text parses back to the same tree
    head, tail = str(ex.parse_expr("x1 + 2^65536", 1)).split(" + ")
    assert Decimal(head) == 2**65536 and tail == "x1"
    ones, repunit = "1" * 5000, (10**5000 - 1) // 9
    assert ex.parse_expr(ones, 1) == ex.Const(F(repunit))
    literal = ex.parse_expr(f"x1 - {ones}.5", 1)
    assert literal == ex.Sum((ex.Const(-F(2 * repunit + 1, 2)), ex.Var(1)))
    assert str(literal) == "-" + "2" * 4999 + "3/2 + x1"
    power = ex.parse_expr(f"3*x1^{ones}", 1)
    assert power == ex.Prod((ex.Const(F(3)), ex.Pow(ex.Var(1), repunit)))
    assert str(power) == f"3*x1^{ones}"
    for e in (literal, power):
        assert ex.parse_expr(str(e), 1) == e
    assert sys.get_int_max_str_digits() == limit
    # the key of a constant that str prints is still str's
    assert ex._key(ex.Const(F(-7, 3))) == "0(-7/3)"


def test_digits_read_as_ints_past_the_digit_limit():
    # digits without a decimal point are an int, also past Python's
    # string-to-int digit limit (4300 digits by default): a literal, an
    # exponent and a variable index; a decimal is a Fraction
    limit = sys.get_int_max_str_digits()
    ones, repunit = "1" * 5000, (10**5000 - 1) // 9
    for digits, value in ((ones, repunit), ("-" + ones, -repunit), ("+12", 12)):
        number = exact_number(digits)
        assert type(number) is int and number == value
    decimal = exact_number(ones + ".5")
    assert type(decimal) is Fraction and decimal == F(2 * repunit + 1, 2)
    assert type(exact_number("2.50")) is Fraction
    literal = ex.parse_expr(ones, 1)
    assert type(literal.value) is int and literal.value == repunit
    power = ex.parse_expr(f"x1^{ones}", 1)
    assert type(power.exponent) is int and power.exponent == repunit
    assert ex.parse_expr("x" + "0" * 5000 + "1", 1) == ex.Var(1)
    assert sys.get_int_max_str_digits() == limit


# ---------------------------------------------------------------------------
# differentiation

def test_diff_chain_rule():
    e = ex.parse_expr("sin(x1)^2", 3)
    d = ex.differentiate(e, 1)
    expected = ex.simplify(ex.parse_expr("2*sin(x1)*cos(x1)", 3))
    assert d == expected


def test_diff_time_square():
    assert ex.differentiate(ex.parse_expr("t^2", 3), 0) == ex.simplify(
        ex.parse_expr("2*t", 3)
    )


def test_diff_linear():
    assert ex.differentiate(ex.parse_expr("-x2", 3), 2) == ex.Const(F(-1))


def test_diff_quotient_rule():
    e = ex.parse_expr("t/(1 + x1)", 3)
    d = ex.differentiate(e, 1)
    # -t/(1+x1)^2 at (t,x)=(1,0) is -1
    assert ex.eval_at_origin(ex.substitute(d, {0: ex.ONE})) == -1
    assert d == ex.parse_expr("(-t)/(1 + x1)^2", 3)


# ---------------------------------------------------------------------------
# evaluation at the origin

def test_eval_at_origin_examples():
    assert ex.eval_at_origin(ex.parse_expr("cos(x1)", 3)) == 1
    assert ex.eval_at_origin(ex.parse_expr("2*sin(x1)*cos(x1)", 3)) == 0
    assert ex.eval_at_origin(ex.parse_expr("t^2", 3)) == 0
    assert ex.eval_at_origin(ex.parse_expr("exp(x2)*3/4", 3)) == F(3, 4)


def test_eval_at_origin_errors():
    with pytest.raises(ex.DivisionByZeroError):
        ex.eval_at_origin(ex.parse_expr("1/t", 3))
    with pytest.raises(ex.NonzeroTranscendentalError):
        ex.eval_at_origin(ex.parse_expr("sin(1 + x1)", 3))


# ---------------------------------------------------------------------------
# simplify

def test_simplify_examples():
    p = lambda s: ex.parse_expr(s, 3)
    assert ex.simplify(p("0*sin(t) + x1")) == ex.Var(1)
    assert ex.simplify(p("cos(x1)*1")) == ex.Func("cos", ex.Var(1))
    assert ex.simplify(p("t + t")) == ex.Prod((ex.Const(F(2)), ex.Var(0)))


def test_simplify_folds_transcendentals_at_zero():
    p = lambda s: ex.parse_expr(s, 3)
    assert ex.simplify(p("cos(0)")) == ex.Const(F(1))
    assert ex.simplify(p("sin(x1 - x1)")) == ex.Const(F(0))
    assert ex.simplify(p("exp(0)*t")) == ex.Var(0)


def test_simplify_merges_like_terms_and_powers():
    p = lambda s: ex.parse_expr(s, 3)
    assert ex.simplify(p("x1*x1*x1")) == ex.Pow(ex.Var(1), 3)
    assert ex.simplify(p("2*t*x1 - t*x1")) == ex.Prod((ex.Var(0), ex.Var(1)))
    assert ex.simplify(p("x1 - x1")) == ex.Const(F(0))
    # a repeated quotient becomes one quotient of powers, a fixed point
    x1_over_d = p("x1/(1 + x2)")
    squared = ex.Quot(ex.Pow(ex.Var(1), 2), ex.Pow(x1_over_d.den, 2))
    assert ex.mk_prod((x1_over_d, x1_over_d)) == squared
    assert ex.simplify(squared) == squared


# random expression generator shared by the property tests

_LEAVES = {"t": ex.T, "x1": ex.Var(1), "x2": ex.Var(2), "x3": ex.Var(3)}
# transcendental arguments vanish at the origin so exact evaluation works
_FUNC_ARGS = {
    "t": ex.T,
    "x1": ex.Var(1),
    "t*x2": ex.Prod((ex.T, ex.Var(2))),
    "x3 - x3": ex.Sum((ex.Var(3), ex.Prod((ex.Const(F(-1)), ex.Var(3))))),
    "2*x1": ex.Prod((ex.Const(F(2)), ex.Var(1))),
}
# grammar levels of a text: a sum, a term (may start with '-'), a chain of
# '*' and '/', a power and an atom; an operand below the level its place
# needs is parenthesized
SUM, TERM, CHAIN, POWER, ATOM = range(5)


def _neg(raw: ex.Expr) -> ex.Expr:
    return ex.Prod((ex.Const(F(-1)), raw))


def _random(rng: random.Random, depth: int) -> tuple:
    def operand(level):
        text, raw, got = _random(rng, depth - 1)
        return (f"({text})" if got < level else text), raw

    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(3)
        if kind == 0:
            k = rng.randrange(0, 6)
            return str(k), ex.Const(F(k)), ATOM
        if kind == 1:
            p, q = rng.randrange(1, 9), rng.randrange(1, 9)
            return f"{p}/{q}", ex.Quot(ex.Const(F(p)), ex.Const(F(q))), CHAIN
        name = rng.choice(sorted(_LEAVES))
        return name, _LEAVES[name], ATOM
    op = rng.randrange(7)
    if op in (0, 1):
        (a, ra), (b, rb) = operand(SUM), operand(TERM)
        if op == 0:
            return f"{a} + {b}", ex.Sum((ra, rb)), SUM
        return f"{a} - {b}", ex.Sum((ra, _neg(rb))), SUM
    if op == 2:
        (a, ra), (b, rb) = operand(CHAIN), operand(POWER)
        return f"{a}*{b}", ex.Prod((ra, rb)), CHAIN
    if op == 3:
        # keep denominators nonzero at the origin
        (a, ra), k = operand(CHAIN), rng.randrange(1, 5)
        den = ex.Sum((ex.Const(F(k)), ex.Pow(ex.Var(2), 2)))
        return f"{a}/({k} + x2^2)", ex.Quot(ra, den), CHAIN
    if op == 4:
        (a, ra), k = operand(POWER), rng.randrange(0, 4)
        return f"{a}^{k}", ex.Pow(ra, k), POWER
    if op == 5:
        a, ra = operand(CHAIN)
        return f"-{a}", _neg(ra), TERM
    fn, arg = rng.choice(["sin", "cos", "exp"]), rng.choice(sorted(_FUNC_ARGS))
    return f"{fn}({arg})", ex.Func(fn, _FUNC_ARGS[arg]), ATOM


def random_expr(rng: random.Random, depth: int) -> tuple:
    """A random text and the raw tree it denotes, built from node
    constructors with the text's grouping and nothing simplified."""
    return _random(rng, depth)[:2]


def test_differentiate_matches_finite_differences():
    rng = random.Random(987)
    h = 1e-6
    checked = 0
    for _ in range(120):
        text, _ = random_expr(rng, 3)
        e = ex.parse_expr(text, 3)
        f = float_function(e)
        for var in range(4):
            d = ex.differentiate(e, var)
            exact = ex.eval_at_origin(d)

            def at(delta):
                point = [0.0] * 4
                point[var] = delta
                return f(point[0], point[1:])

            approx = (at(h) - at(-h)) / (2 * h)
            assert approx == pytest.approx(float(exact), rel=1e-6, abs=1e-6)
            checked += 1
    assert checked == 480


def test_simplify_preserves_values():
    # a parse is simplify of the raw tree its text denotes, with its values
    rng = random.Random(555)
    for _ in range(150):
        text, raw = random_expr(rng, 4)
        s = ex.parse_expr(text, 3)
        assert s == ex.simplify(raw), text
        assert ex.eval_at_origin(raw) == ex.eval_at_origin(s)
        t = rng.uniform(-1, 1)
        xs = [rng.uniform(-1, 1) for _ in range(3)]
        ve, vs = float_function(raw)(t, xs), float_function(s)(t, xs)
        assert vs == pytest.approx(ve, rel=1e-9, abs=1e-9)


def test_simplify_idempotent_and_roundtrip():
    rng = random.Random(31337)
    for _ in range(200):
        text, _ = random_expr(rng, 3)
        s = ex.parse_expr(text, 3)
        assert ex.simplify(s) == s
        printed = ex.expr_to_str(s)
        assert ex.parse_expr(printed, 3) == s


@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_render_reparses_exactly_property(rng):
    text, raw = random_expr(rng, 4)
    s = ex.parse_expr(text, 3)
    assert s == ex.simplify(raw)
    assert ex.parse_expr(ex.render(s), 3) == s


@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_substitute_zeroes_states_at_once_property(rng):
    # certify_drift zeroes every state in one call; the tree is the
    # one that zeroing them one at a time gives, so no verdict can change
    text, _ = random_expr(rng, 4)
    e = ex.parse_expr(text, 3)
    one_at_a_time = e
    for j in (1, 2, 3):
        one_at_a_time = ex.substitute(one_at_a_time, {j: ex.ZERO})
    assert ex.substitute(e, {1: ex.ZERO, 2: ex.ZERO, 3: ex.ZERO}) == one_at_a_time


def _subtrees(e: ex.Expr):
    """e and every node below it, by the tree's fields."""
    yield e
    for v in e._values():
        for part in v if isinstance(v, tuple) else (v,):
            if isinstance(part, ex.Expr):
                yield from _subtrees(part)


def _to_sympy(sympy, e: ex.Expr, funcs: dict):
    """e in sympy, each sin/cos/exp node a symbol of its own."""
    if isinstance(e, ex.Const):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, ex.Var):
        return sympy.Symbol(f"v{e.index}")
    if isinstance(e, ex.Func):
        return funcs.setdefault(e, sympy.Symbol(f"f{len(funcs)}"))
    if isinstance(e, ex.Pow):
        return _to_sympy(sympy, e.base, funcs) ** e.exponent
    if isinstance(e, ex.Quot):
        return _to_sympy(sympy, e.num, funcs) / _to_sympy(sympy, e.den, funcs)
    parts = [_to_sympy(sympy, p, funcs) for p in e._values()[0]]
    return sympy.Add(*parts) if isinstance(e, ex.Sum) else sympy.Mul(*parts)


@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_degrees_bound_numerator_and_denominator_property(rng):
    # the keys are the variables read, and with each function taken for a
    # constant, p and q bound the degrees of the numerator and of the
    # denominator that sympy's together gives, and f bounds the numerator
    # degree of every function argument
    sympy = pytest.importorskip("sympy")
    text, raw = random_expr(rng, 4)
    for e in (raw, ex.parse_expr(text, 3)):
        bounds = ex.degrees(e)
        nodes = list(_subtrees(e))
        assert set(bounds) == {v.index for v in nodes if isinstance(v, ex.Var)}
        funcs: dict = {}

        def fraction(x):
            return sympy.fraction(sympy.together(_to_sympy(sympy, x, funcs)))

        num, den = fraction(e)
        args = [fraction(f.arg)[0] for f in nodes if isinstance(f, ex.Func)]
        for i in range(4):
            v = sympy.Symbol(f"v{i}")
            p, q, f = bounds.get(i, (0, 0, 0))
            assert sympy.degree(num, v) <= p, (text, i)
            assert sympy.degree(den, v) <= q, (text, i)
            assert all(sympy.degree(a, v) <= f for a in args), (text, i)


def test_substitute_rebuilds_through_the_constructors():
    # a replacement can merge factors that were apart
    e = ex.parse_expr("x1*x2/(1 + t) - sin(x2)^2", 3)
    assert ex.substitute(e, {2: ex.Var(1)}) == ex.parse_expr(
        "x1^2/(1 + t) - sin(x1)^2", 3
    )


@pytest.mark.parametrize(
    "text",
    ["1 - 2/(1 + x1)", "x1 - 7/(3 + x2^2)/(1 + x2^2)", "-x1/t", "(-x1)/t"],
)
def test_quotients_print_as_written(text):
    s = ex.parse_expr(text, 3)
    assert ex.render(s) == text
    assert ex.parse_expr(ex.render(s), 3) == s


@st.composite
def fraction_strategy(draw):
    num = draw(st.integers(min_value=-30, max_value=30))
    den = draw(st.integers(min_value=1, max_value=12))
    return Fraction(num, den)


@given(
    coeffs=st.lists(fraction_strategy(), min_size=1, max_size=5),
    powers=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_polynomial_roundtrip_property(coeffs, powers):
    terms = []
    for c, p in zip(coeffs, powers):
        terms.append(ex.mk_prod((ex.Const(c), ex.mk_pow(ex.Var(1), p))))
    e = ex.mk_sum(terms)
    printed = ex.expr_to_str(e)
    assert ex.parse_expr(printed, 3) == ex.simplify(e)
    # evaluation agreement at a rational point via substitution
    at2 = ex.substitute(e, {1: ex.Const(Fraction(2))})
    expected = sum(c * Fraction(2) ** p for c, p in zip(coeffs, powers))
    assert ex.eval_at_origin(at2) == expected
