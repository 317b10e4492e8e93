"""Numerical cross-checks of the symbolic pipeline.

Two independent routes are compared: the computed series evaluated at
the exact moments of the control on one side, and RK4 backward
integration of the state equation with end condition x(theta) = 0 on
the other.  The residual between them must shrink like theta^(N+1).
Controls are piecewise constant, so every moment is a polynomial on each
piece and is integrated exactly in rationals, once per control for all
horizons; the control pieces are aligned to the RK4 grid, so the backward
integrator keeps its full order across control switches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .algebra import Word, enumerate_basis, word_order, _shuffle_words
from .series import ControlSystem, SeriesTable

DEFAULT_STEPS = 2000
NOISE_FLOOR = 1e-13
CONTROL_VALUES = (-1.0, -0.5, 0.5, 1.0)
# piece counts dividing DEFAULT_STEPS, so switches land on the grid nodes
# of backward_endpoint
CONTROL_PIECES = (4, 8, 10, 16, 20, 25)


class VerificationError(Exception):
    pass


@dataclass(frozen=True)
class PiecewiseConstantControl:
    values: tuple

    def sample(self, s: float, horizon: float) -> float:
        k = len(self.values)
        idx = int(s / horizon * k)
        if idx < 0:
            idx = 0
        if idx >= k:
            idx = k - 1
        return self.values[idx]

    def describe(self) -> str:
        return "piecewise-constant " + str(list(self.values))


def random_control(rng) -> PiecewiseConstantControl:
    pieces = rng.choice(CONTROL_PIECES)
    values = tuple(rng.choice(CONTROL_VALUES) for _ in range(pieces))
    return PiecewiseConstantControl(values)


def evaluate_moments(control: PiecewiseConstantControl, N: int) -> dict:
    """Exact values at sigma = 1 of all moments of order <= N, the empty
    word included, with the control spread over the unit horizon.

    xi_{m1 w'}(s) is the integral from 0 to s of r^{m1} u(r) xi_{w'}(r).
    On a piece where u is the constant c this is the polynomial
    xi_{m1 w'}(start) + c * integral from start to s of r^{m1} xi_{w'},
    so the moments are integrated piece by piece (Chen's identity), with
    words in order of increasing order so that each tail is known.
    """
    words = [w for m in range(1, N + 1) for w in enumerate_basis(m)]
    values = {(): Fraction(1), **dict.fromkeys(words, Fraction(0))}
    k = len(control.values)
    for j, u in enumerate(control.values):
        start, end, c = Fraction(j, k), Fraction(j + 1, k), Fraction(u)
        polys = {(): [Fraction(1)]}  # coefficients by ascending power of s
        for w in words:
            m1 = w[0]
            poly = [Fraction(0)] * (m1 + 1) + [
                c * a / (m1 + 1 + i) for i, a in enumerate(polys[w[1:]])
            ]
            poly[0] = values[w] - _at(poly, start)
            polys[w] = poly
            values[w] = _at(poly, end)
    return values


def _at(poly: list, s: Fraction) -> Fraction:
    out = Fraction(0)
    for a in reversed(poly):
        out = out * s + a
    return out


def compile_system(sys: ControlSystem):
    """Compile a(t,x) + b(t,x)u into a fast float callable f(t, x, u)."""

    def py(e: ex.Expr) -> str:
        if isinstance(e, ex.Const):
            return f"({float(e.value)!r})"
        if isinstance(e, ex.Var):
            return "t" if e.index == 0 else f"x[{e.index - 1}]"
        if isinstance(e, ex.Sum):
            return "(" + "+".join(py(t) for t in e.terms) + ")"
        if isinstance(e, ex.Prod):
            return "(" + "*".join(py(f) for f in e.factors) + ")"
        if isinstance(e, ex.Quot):
            return f"({py(e.num)}/{py(e.den)})"
        if isinstance(e, ex.Pow):
            return f"({py(e.base)}**{e.exponent})"
        if isinstance(e, ex.Func):
            return f"math.{e.name}({py(e.arg)})"
        raise TypeError(f"not an Expr: {e!r}")

    comps = [f"{py(ai)} + ({py(bi)})*u" for ai, bi in zip(sys.a, sys.b)]
    src = "def _f(t, x, u):\n    return [" + ", ".join(comps) + "]\n"
    namespace = {"math": math}
    exec(src, namespace)
    return namespace["_f"]


def backward_endpoint(
    sys: ControlSystem,
    control: PiecewiseConstantControl,
    theta: float,
    steps: int = DEFAULT_STEPS,
) -> list:
    """RK4 integration of dx/dt = a + b u backwards from x(theta) = 0;
    returns x(0), the point the series represents."""
    f = compile_system(sys)
    x = [0.0] * sys.n
    h = -theta / steps
    t = theta
    for _ in range(steps):
        u = control.sample(t + 0.5 * h, theta)
        k1 = f(t, x, u)
        k2 = f(t + 0.5 * h, [a + 0.5 * h * b for a, b in zip(x, k1)], u)
        k3 = f(t + 0.5 * h, [a + 0.5 * h * b for a, b in zip(x, k2)], u)
        k4 = f(t + h, [a + h * b for a, b in zip(x, k3)], u)
        x = [
            a + (h / 6.0) * (p + 2.0 * q + 2.0 * r + s)
            for a, p, q, r, s in zip(x, k1, k2, k3, k4)
        ]
        t += h
        if any(abs(v) > 1e12 or v != v for v in x):
            raise VerificationError("numerical blow-up in backward integration")
    return x


def series_prediction(table: SeriesTable, moments: dict, theta: float) -> list:
    """The series at horizon theta from the unit-horizon moments: the
    substitution s = theta * sigma gives xi_w(theta) = theta^order(w) xi_w(1)."""
    th = Fraction(theta)
    out = [Fraction(0)] * table.n
    for w, vec in table.coeffs.items():
        xi = moments[w] * th ** word_order(w)
        for i, c in enumerate(vec):
            out[i] += c * xi
    return [float(x) for x in out]


def residual(
    sys: ControlSystem,
    table: SeriesTable,
    control: PiecewiseConstantControl,
    moments: dict,
    theta: float,
) -> float:
    predicted = series_prediction(table, moments, theta)
    actual = backward_endpoint(sys, control, theta)
    return math.sqrt(sum((p - a) ** 2 for p, a in zip(predicted, actual)))


def fit_slope(thetas, residuals, floor: float = NOISE_FLOOR):
    """Least-squares slope of log(residual) against log(theta), ignoring
    residuals at the double-precision noise floor; None if fewer than two
    usable points remain."""
    points = [
        (math.log(t), math.log(r))
        for t, r in zip(thetas, residuals)
        if r > floor
    ]
    if len(points) < 2:
        return None
    mx = sum(p[0] for p in points) / len(points)
    my = sum(p[1] for p in points) / len(points)
    sxx = sum((p[0] - mx) ** 2 for p in points)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in points)
    return sxy / sxx


@dataclass
class ControlCheck:
    control: PiecewiseConstantControl
    thetas: tuple
    residuals: tuple
    slope: object  # float | None when all residuals sit at the noise floor


@dataclass
class OrderCheckResult:
    N: int
    checks: list
    required_slope: float

    def passed(self) -> bool:
        for c in self.checks:
            if c.slope is None:
                continue  # residuals at noise floor beat any slope bound
            if c.slope < self.required_slope:
                return False
        return True


def order_check(
    sys: ControlSystem, table: SeriesTable, controls, thetas=None
) -> OrderCheckResult:
    """Residual between series prediction and backward integration must
    vanish at rate theta^(N+1): fitted slope >= N + 0.7 per control."""
    if thetas is None:
        thetas = tuple(0.2 * 2**-j for j in range(6))
    checks = []
    for control in controls:
        moments = evaluate_moments(control, table.N)
        res = tuple(residual(sys, table, control, moments, th) for th in thetas)
        checks.append(
            ControlCheck(control, tuple(thetas), res, fit_slope(thetas, res))
        )
    return OrderCheckResult(table.N, checks, table.N + 0.7)


def shuffle_identity_residual(moments: dict, w1: Word, w2: Word) -> Fraction:
    """xi_{w1} xi_{w2} - sum of shuffle moments, which vanishes: the
    product of two iterated integrals is the shuffle of their words."""
    lhs = moments[w1] * moments[w2]
    if w1 > w2:
        w1, w2 = w2, w1
    return lhs - sum(mult * moments[w] for w, mult in _shuffle_words(w1, w2))


def max_shuffle_residual(control: PiecewiseConstantControl, max_order: int) -> float:
    """Largest |shuffle-identity violation| over all word pairs whose
    orders sum to at most max_order; the identity is homogeneous in the
    horizon, so the unit horizon checks every theta."""
    moments = evaluate_moments(control, max_order)
    return float(max(
        (
            abs(shuffle_identity_residual(moments, w1, w2))
            for m1 in range(1, max_order)
            for m2 in range(m1, max_order + 1 - m1)
            for w1 in enumerate_basis(m1)
            for w2 in enumerate_basis(m2)
        ),
        default=0,
    ))
