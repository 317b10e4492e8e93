import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homapprox import verify as vf
from homapprox.algebra import enumerate_basis
from homapprox.approx import approximate
from homapprox.cli import parse_system_file, run_verification
from homapprox.series import SeriesComputer, system_from_strings
from homapprox.verify import (
    CONTROL_PIECES,
    CONTROL_VALUES,
    DEFAULT_STEPS,
    THETAS,
    PiecewiseConstantControl,
    VerificationError,
    backward_endpoint,
    compile_backward,
    evaluate_moments,
    fit_slope,
    max_shuffle_residual,
    order_check,
    random_control,
    series_prediction,
)
from reference_moments import all_words, reference_moments
from reference_rk4 import reference_backward_endpoint, reference_field, sample
from reparse import reparsed
from slopes import order_check_passed

U_ONE = PiecewiseConstantControl((1.0,))
SYSTEMS = Path(__file__).resolve().parent.parent / "perfbench" / "systems"


def checked_moments(controls, table):
    """Each control's moments of the table's words, as order_check takes them."""
    return [evaluate_moments(c, table.coeffs) for c in controls]


def test_control_sampling():
    # the reference integrator's control at each step
    u = PiecewiseConstantControl((1.0, -1.0))
    assert sample(u, 0.25, 1.0) == 1.0
    assert sample(u, 0.75, 1.0) == -1.0
    assert sample(u, 1.0, 1.0) == -1.0  # clamped to the last piece
    assert sample(u, -0.01, 1.0) == 1.0


def test_control_pieces_divide_the_steps():
    # so backward_endpoint accepts every control random_control draws
    assert all(DEFAULT_STEPS % k == 0 for k in CONTROL_PIECES)


def test_random_control_shape():
    rng = random.Random(3)
    for _ in range(20):
        u = random_control(rng)
        assert len(u.values) in CONTROL_PIECES
        assert all(v in CONTROL_VALUES for v in u.values)


def test_moments_constant_control_closed_forms():
    # with u = 1 on the unit horizon: xi_(m) = 1/(m+1), and nesting
    # integrates the tail
    moments = evaluate_moments(U_ONE, all_words(4))
    assert moments[()] == 1
    assert moments[(0,)] == F(1)
    assert moments[(1,)] == F(1, 2)
    assert moments[(2,)] == F(1, 3)
    assert moments[(0, 0)] == F(1, 2)
    assert moments[(0, 1)] == F(1, 6)
    assert moments[(1, 0)] == F(1, 3)
    assert moments[(0, 0, 0)] == F(1, 6)
    assert all(type(v) is F for v in moments.values())
    assert len(moments) == 2**4


def test_moments_match_sympy_piecewise_integrals():
    # an independent oracle: sympy integrates every iterated integral of
    # a two-piece control written as a Piecewise function of time
    sympy = pytest.importorskip("sympy")
    r, s = sympy.symbols("r s", nonnegative=True)
    half = sympy.Rational(1, 2)
    u = sympy.Piecewise((-half, r < half), (1, True))
    want = {(): sympy.Integer(1)}
    for m in range(1, 6):
        for w in enumerate_basis(m):
            integrand = r ** w[0] * u * want[w[1:]].subs(s, r)
            want[w] = sympy.piecewise_fold(sympy.integrate(integrand, (r, 0, s)))
    got = evaluate_moments(PiecewiseConstantControl((-0.5, 1.0)), all_words(5))
    assert set(got) == set(want)
    for w, xi in want.items():
        assert sympy.Rational(got[w].numerator, got[w].denominator) == xi.subs(s, 1), w


def test_backward_endpoint_scalar(sys_scalar):
    # dx = u with x(theta) = 0 gives x(0) = -integral of u
    theta = 0.4
    integrate = compile_backward(sys_scalar)
    x0 = backward_endpoint(integrate, U_ONE, theta)
    assert x0[0] == pytest.approx(-theta, abs=1e-12)
    zero = PiecewiseConstantControl((0.0,))
    assert backward_endpoint(integrate, zero, theta)[0] == 0.0


def test_series_prediction_matches_backward_for_exact_series(sys_scalar):
    table = SeriesComputer(sys_scalar).table_up_to(3)
    u = PiecewiseConstantControl((1.0, -0.5, 0.5, 1.0))
    theta = 0.3
    moments = evaluate_moments(u, all_words(3))
    predicted = series_prediction(table, moments, theta)
    actual = backward_endpoint(compile_backward(sys_scalar), u, theta)
    assert predicted[0] == pytest.approx(actual[0], abs=1e-12)
    # so every residual of order_check sits at the noise floor
    (check,) = order_check(sys_scalar, table, [u], [moments]).checks
    assert check.thetas == THETAS
    assert max(check.residuals) < 1e-12
    assert check.slope is None


def test_reference_field_agrees_with_exact_evaluation(sys3):
    # sympy, the series oracle, evaluates the fixture's strings exactly at
    # rational points, independently of the printed field code
    sympy = pytest.importorskip("sympy")
    t, *xs = sympy.symbols("t x1:4")
    names = {"t": t, **{str(x): x for x in xs}}
    a = ["0", "-sin(x1)^2", "2*x1^2*sin(t)"]
    b = ["-cos(x1)", "t^2", "-x2"]
    fields = [
        [sympy.sympify(s.replace("^", "**"), locals=names) for s in pair]
        for pair in zip(a, b)
    ]
    f = reference_field(sys3)
    rng = random.Random(9)
    for _ in range(25):
        point = [F(rng.randint(-16, 16), 16) for _ in range(4)]
        u = rng.choice(CONTROL_VALUES)
        got = f(float(point[0]), [float(v) for v in point[1:]], u)
        at = dict(zip((t, *xs), map(sympy.Rational, point)))
        for i, (ai, bi) in enumerate(fields):
            want = float(ai.subs(at)) + float(bi.subs(at)) * u
            assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_fit_slope():
    residuals = [3.0 * t**5 for t in THETAS]
    slope = fit_slope(residuals)
    assert slope == pytest.approx(5.0, abs=1e-9)
    assert fit_slope([1e-15] * len(THETAS)) is None
    # points at the floor are discarded before fitting
    mixed = [3.0 * t**5 for t in THETAS[:3]] + [1e-16] * (len(THETAS) - 3)
    assert fit_slope(mixed) == pytest.approx(5.0, abs=1e-6)


def test_order_check_on_worked_example(sys3):
    table = SeriesComputer(sys3).table_up_to(4)
    controls = [
        PiecewiseConstantControl((1.0, -1.0, 0.5, -0.5)),
        PiecewiseConstantControl((-0.5, 1.0, 1.0, -1.0, 0.5, -1.0, 0.5, 1.0)),
    ]
    result = order_check(sys3, table, controls, checked_moments(controls, table))
    assert result.N == 4
    assert result.required_slope == pytest.approx(4.7)
    assert order_check_passed(result), [c.slope for c in result.checks]
    assert min(c.slope for c in result.checks if c.slope is not None) > 4.7


def test_order_check_fails_for_wrong_series(sys3):
    # corrupt one coefficient: the residual saturates at order 1
    table = SeriesComputer(sys3).table_up_to(4)
    table.coeffs[(0,)] = (table.coeffs[(0,)][0] + 1, *table.coeffs[(0,)][1:])
    controls = [PiecewiseConstantControl((1.0, -0.5, 1.0, 0.5))]
    try:
        result = order_check(sys3, table, controls, checked_moments(controls, table))
        assert not order_check_passed(result)
        assert min(c.slope for c in result.checks if c.slope is not None) < 2.0
    finally:
        table.coeffs[(0,)] = (table.coeffs[(0,)][0] - 1, *table.coeffs[(0,)][1:])


def test_order_check_approximation_output(sys3):
    # the reconstructed polynomial system satisfies its own series too
    res = approximate(sys3)
    out = reparsed(res.nonautonomous)
    table = SeriesComputer(out).table_up_to(4)
    controls = [PiecewiseConstantControl((0.5, -1.0, 1.0, -0.5))]
    result = order_check(out, table, controls, checked_moments(controls, table))
    assert order_check_passed(result)


def test_shuffle_identity_numerically():
    rng = random.Random(12)
    for _ in range(12):
        moments = evaluate_moments(random_control(rng), all_words(4))
        assert max_shuffle_residual(moments, 4) == 0.0
    # the given moments are the ones checked
    moments[(0, 0)] += 1
    assert max_shuffle_residual(moments, 4) > 0.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 6), data=st.data())
def test_restricted_moments_match_all_moments_property(seed, N, data):
    control = random_control(random.Random(seed))
    everything = all_words(N)
    words = data.draw(st.lists(st.sampled_from(everything), max_size=6))
    full = evaluate_moments(control, everything)
    got = evaluate_moments(control, words)
    suffixes = {()} | {w[i:] for w in words for i in range(len(w))}
    assert set(got) == suffixes
    assert all(got[w] == full[w] for w in suffixes)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 0.1, 1e-9, -1.0, 0.5, 3.0]),
        ),
        min_size=1,
        max_size=25,
    ),
    N=st.integers(1, 6),
    data=st.data(),
)
def test_integer_moments_match_the_fraction_reference_property(values, N, data):
    control = PiecewiseConstantControl(tuple(values))
    everything = all_words(N)
    words = data.draw(
        st.one_of(
            st.just(everything), st.lists(st.sampled_from(everything), max_size=6)
        )
    )
    got = evaluate_moments(control, words)
    assert got == reference_moments(control, words)
    assert all(type(v) is F for v in got.values())


def hexed(values):
    return [float.hex(v) for v in values]


def test_backward_endpoint_matches_the_reference_bit_for_bit(sys_scalar, sys3):
    # float.hex tells -0.0 from 0.0, which == does not
    systems = {
        # a constant component, no t
        "scalar": sys_scalar,
        # x3 read by no field; parts reading t alone (t^2, sin(t))
        "sys3": sys3,
        # a constant component, a constant b beside a non-constant a, x2 read by
        # no field, no t
        "deep7": system_from_strings(2, ["0", "x1^6"], ["1", "0"]),
        "quot": system_from_strings(2, ["0", "x1/(1-x2)"], ["exp(t)", "cos(x1)"]),
        # nested parts reading t alone
        "nested": system_from_strings(
            2,
            ["0", "1 + t + x1*sin(t^2) + cos(sin(t))*x2 + t*x1"],
            ["1 + t", "2*cos(t)*cos(sin(t))*exp(x1)"],
        ),
        # constant b beside an a reading t and a state
        "scaled": system_from_strings(2, ["x2", "t*x2 - x1"], ["1/2", "-3"]),
        **{
            name: parse_system_file((SYSTEMS / f"{name}.txt").read_text())
            for name in ("mixed4", "rat3")
        },
    }
    rng = random.Random(21)
    for name, sys in systems.items():
        integrate = compile_backward(sys)
        for pieces in CONTROL_PIECES:
            control = PiecewiseConstantControl(
                tuple(rng.choice(CONTROL_VALUES) for _ in range(pieces))
            )
            for theta in THETAS:
                want = reference_backward_endpoint(sys, control, theta, DEFAULT_STEPS)
                got = backward_endpoint(integrate, control, theta)
                assert hexed(got) == hexed(want), (name, pieces, theta)


# t, the states and constants; a time-only part of depth 3 at most stays far
# below float range on [0, 0.2], so only parts reading a state can fail, and
# they fail in the reference's order
_LEAVES = st.sampled_from(["t", "x1", "x2", "0", "1", "-1", "1/3", "3/2"])


def _fields(depth):
    if depth == 0:
        return _LEAVES
    inner = _fields(depth - 1)
    return st.one_of(
        _LEAVES,
        st.builds("({})+({})".format, inner, inner),
        st.builds("({})*({})".format, inner, inner),
        st.builds("({})/(1+({})^2)".format, inner, inner),
        st.builds("({})^{}".format, inner, st.integers(0, 3)),
        st.builds("{}({})".format, st.sampled_from(["sin", "cos", "exp"]), inner),
    )


def _outcome(run):
    try:
        return hexed(run())
    except (ArithmeticError, ValueError, VerificationError) as err:
        return type(err), str(err)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    fields=st.lists(_fields(3), min_size=4, max_size=4),
    values=st.lists(st.sampled_from((0.0, *CONTROL_VALUES)), min_size=1, max_size=10),
    theta=st.sampled_from(THETAS),
)
def test_backward_endpoint_matches_the_reference_property(fields, values, theta):
    sys = system_from_strings(2, fields[:2], fields[2:])
    control = PiecewiseConstantControl(tuple(values))
    steps = 20 * len(values)
    want = _outcome(lambda: reference_backward_endpoint(sys, control, theta, steps))
    got = _outcome(lambda: compile_backward(sys)(control.values, theta, steps))
    assert got == want, fields


def _calls(monkeypatch, name, sys, values, steps):
    """How often one integration calls math.<name>, patched before compiling."""
    calls = []
    f = getattr(math, name)
    monkeypatch.setattr(math, name, lambda x: calls.append(x) or f(x))
    compile_backward(sys)(values, 0.2, steps)
    monkeypatch.setattr(math, name, f)
    return len(calls)


def test_each_part_of_the_field_is_evaluated_as_often_as_it_can_change(monkeypatch):
    steps, values = 40, (1.0, -0.5, 0.5, -1.0)
    timed = system_from_strings(2, ["0", "0"], ["sin(t)", "cos(x1)"])
    # once at theta, then at t + h/2 and t + h in each step
    assert _calls(monkeypatch, "sin", timed, values, steps) == 2 * steps + 1
    # a part reading a state, at each of the four stages
    assert _calls(monkeypatch, "cos", timed, values, steps) == 4 * steps
    # a constant x1' makes stages 2 and 3 read the same state
    steady = system_from_strings(2, ["0", "0"], ["1", "cos(x1)"])
    assert _calls(monkeypatch, "cos", steady, values, steps) == 3 * steps
    # a part free of t and x, once per piece
    constant = system_from_strings(1, ["0"], ["exp(1)"])
    assert _calls(monkeypatch, "exp", constant, values, steps) == len(values)


@pytest.mark.parametrize(
    "a, b, u, theta, error",
    [
        # a part reading t alone divides by zero at t = theta
        (["0"], ["1/(1-5*t)"], -1.0, 0.2, ZeroDivisionError),
        # a part reading a state divides by zero in the first step's last stage
        (["0", "x2/(1-x1)"], ["10000", "1"], -1.0, 0.2, ZeroDivisionError),
        # the blow-up of test_backward_endpoint_blow_up_matches_the_reference
        (["x1^2"], ["1000000"], 1.0, THETAS[0], VerificationError),
        # a product past float range reaches sin
        (["0", "sin(x2*(10^308+x1)*(10^308+x1+x2))"], ["1", "1"], 1.0, 0.2, ValueError),
    ],
)
def test_a_failing_step_raises_what_the_reference_raises(a, b, u, theta, error):
    sys = system_from_strings(len(a), a, b)
    control = PiecewiseConstantControl((u,))
    with pytest.raises(error) as want:
        reference_backward_endpoint(sys, control, theta, DEFAULT_STEPS)
    with pytest.raises(error) as got:
        compile_backward(sys)(control.values, theta, DEFAULT_STEPS)
    assert str(got.value) == str(want.value)
    # backward_endpoint reports the field's float errors as a VerificationError
    with pytest.raises(VerificationError) as reported:
        backward_endpoint(compile_backward(sys), control, theta)
    if error is VerificationError:
        assert str(reported.value) == str(want.value)
    else:
        assert type(reported.value.__cause__) is error
        assert str(reported.value) == f"{want.value} in backward integration"


def test_backward_endpoint_needs_the_pieces_to_divide_the_steps(sys_scalar):
    control = PiecewiseConstantControl((1.0, -1.0, 0.5))
    assert DEFAULT_STEPS % 3
    with pytest.raises(ValueError, match="3 control pieces do not divide"):
        backward_endpoint(compile_backward(sys_scalar), control, 0.1)


def test_backward_endpoint_blow_up_matches_the_reference():
    # x1' = x1^2 + 10^6 u leaves float range
    sys = system_from_strings(1, ["x1^2"], ["1000000"])
    integrate = compile_backward(sys)
    for theta in THETAS[:2]:
        with pytest.raises(VerificationError, match="blow-up"):
            reference_backward_endpoint(sys, U_ONE, theta, DEFAULT_STEPS)
        with pytest.raises(VerificationError, match="blow-up"):
            backward_endpoint(integrate, U_ONE, theta)


def test_run_verification_integrates_each_control_once(sys3, monkeypatch):
    result = approximate(sys3)
    calls = []
    evaluate = vf.evaluate_moments

    def counted(control, words):
        calls.append(control)
        return evaluate(control, words)

    monkeypatch.setattr(vf, "evaluate_moments", counted)
    got = run_verification(result)
    assert len(calls) == len(set(calls)) == len(got["order_check"].checks) == 3
    # the same numbers as integrating every word for each check on its own
    monkeypatch.setattr(vf, "evaluate_moments", evaluate)
    controls = [c.control for c in got["order_check"].checks]
    table = result.table
    alone = order_check(sys3, table, controls, checked_moments(controls, table))
    assert alone == got["order_check"]
    low = min(result.N, 4)
    shuffle = max(
        max_shuffle_residual(evaluate(c, all_words(low)), low) for c in controls[:2]
    )
    assert got["shuffle_residual"] == shuffle
