import random

import pytest

from homapprox.approx import approximate
from homapprox.series import SeriesComputer
from homapprox.verify import (
    CONTROL_PIECES,
    CONTROL_VALUES,
    PiecewiseConstantControl,
    backward_endpoint,
    compile_system,
    evaluate_moments,
    fit_slope,
    max_shuffle_residual,
    order_check,
    random_control,
    residual,
    series_prediction,
)

U_ONE = PiecewiseConstantControl((1.0,))


def test_control_sampling():
    u = PiecewiseConstantControl((1.0, -1.0))
    assert u.sample(0.25, 1.0) == 1.0
    assert u.sample(0.75, 1.0) == -1.0
    assert u.sample(1.0, 1.0) == -1.0  # clamped to the last piece
    assert u.sample(-0.01, 1.0) == 1.0


def test_random_control_shape():
    rng = random.Random(3)
    for _ in range(20):
        u = random_control(rng)
        assert len(u.values) in CONTROL_PIECES
        assert all(v in CONTROL_VALUES for v in u.values)


def test_moments_constant_control_closed_forms():
    # with u = 1: xi_(m) = theta^(m+1)/(m+1), and nesting integrates the tail
    theta = 0.7
    moments = evaluate_moments(U_ONE, theta, 4)
    assert moments[()] == 1.0
    assert moments[(0,)] == pytest.approx(theta, abs=1e-12)
    assert moments[(1,)] == pytest.approx(theta**2 / 2, abs=1e-12)
    assert moments[(2,)] == pytest.approx(theta**3 / 3, abs=1e-12)
    assert moments[(0, 0)] == pytest.approx(theta**2 / 2, abs=1e-12)
    assert moments[(0, 1)] == pytest.approx(theta**3 / 6, abs=1e-12)
    assert moments[(1, 0)] == pytest.approx(theta**3 / 3, abs=1e-12)
    assert moments[(0, 0, 0)] == pytest.approx(theta**3 / 6, abs=1e-12)


def test_moments_integrator_is_fourth_order():
    # xi_(4) = theta^5/5 has a quartic integrand, so halving the step
    # must cut the quadrature error by about 2^4
    theta = 1.0
    exact = theta**5 / 5
    err = []
    for steps in (8, 16):
        got = evaluate_moments(U_ONE, theta, 5, steps=steps)[(4,)]
        err.append(abs(got - exact))
    ratio = err[0] / err[1]
    assert 13.0 < ratio < 19.0


def test_backward_endpoint_scalar(sys_scalar):
    # dx = u with x(theta) = 0 gives x(0) = -integral of u
    theta = 0.4
    x0 = backward_endpoint(sys_scalar, U_ONE, theta)
    assert x0[0] == pytest.approx(-theta, abs=1e-12)
    zero = PiecewiseConstantControl((0.0,))
    assert backward_endpoint(sys_scalar, zero, theta)[0] == 0.0


def test_series_prediction_matches_backward_for_exact_series(sys_scalar):
    table = SeriesComputer(sys_scalar).table_up_to(3)
    u = PiecewiseConstantControl((1.0, -0.5, 0.5, 1.0))
    theta = 0.3
    moments = evaluate_moments(u, theta, 3)
    predicted = series_prediction(table, moments)
    actual = backward_endpoint(sys_scalar, u, theta)
    assert predicted[0] == pytest.approx(actual[0], abs=1e-12)
    assert residual(sys_scalar, table, u, theta) < 1e-12


def test_compile_system_agrees_with_exact_evaluation(sys3):
    from homapprox import expr as ex

    f = compile_system(sys3)
    rng = random.Random(9)
    for _ in range(25):
        t = rng.uniform(-1, 1)
        x = [rng.uniform(-1, 1) for _ in range(3)]
        u = rng.choice(CONTROL_VALUES)
        got = f(t, x, u)
        for i in range(3):
            want = ex.eval_float(sys3.a[i], t, x) + ex.eval_float(sys3.b[i], t, x) * u
            assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_fit_slope():
    thetas = [0.2 * 2**-j for j in range(5)]
    residuals = [3.0 * t**5 for t in thetas]
    slope = fit_slope(thetas, residuals)
    assert slope == pytest.approx(5.0, abs=1e-9)
    assert fit_slope(thetas, [1e-15] * 5) is None
    # points at the floor are discarded before fitting
    mixed = [3.0 * t**5 for t in thetas[:3]] + [1e-16, 1e-16]
    assert fit_slope(thetas, mixed) == pytest.approx(5.0, abs=1e-6)


def test_order_check_on_worked_example(sys3):
    table = SeriesComputer(sys3).table_up_to(4)
    controls = [
        PiecewiseConstantControl((1.0, -1.0, 0.5, -0.5)),
        PiecewiseConstantControl((-0.5, 1.0, 1.0, -1.0, 0.5, -1.0, 0.5, 1.0)),
    ]
    result = order_check(sys3, table, controls)
    assert result.N == 4
    assert result.required_slope == pytest.approx(4.7)
    assert result.passed(), [c.slope for c in result.checks]
    assert min(c.slope for c in result.checks if c.slope is not None) > 4.7


def test_order_check_fails_for_wrong_series(sys3):
    # corrupt one coefficient: the residual saturates at order 1
    table = SeriesComputer(sys3).table_up_to(4)
    table.coeffs[(0,)] = (table.coeffs[(0,)][0] + 1, *table.coeffs[(0,)][1:])
    try:
        result = order_check(
            sys3, table, [PiecewiseConstantControl((1.0, -0.5, 1.0, 0.5))]
        )
        assert not result.passed()
        assert min(c.slope for c in result.checks if c.slope is not None) < 2.0
    finally:
        table.coeffs[(0,)] = (table.coeffs[(0,)][0] - 1, *table.coeffs[(0,)][1:])


def test_order_check_approximation_output(sys3):
    # the reconstructed polynomial system satisfies its own series too
    res = approximate(sys3)
    out = res.nonautonomous.to_control_system()
    table = SeriesComputer(out).table_up_to(4)
    result = order_check(
        out, table, [PiecewiseConstantControl((0.5, -1.0, 1.0, -0.5))]
    )
    assert result.passed()


def test_shuffle_identity_numerically():
    rng = random.Random(12)
    for theta in (0.05, 0.1, 0.2):
        for _ in range(4):
            u = random_control(rng)
            assert max_shuffle_residual(u, theta, 4) < 1e-8
