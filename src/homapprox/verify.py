"""Numerical cross-checks of the symbolic pipeline.

Two independent routes are compared: classical RK4 integration of the
moment ODEs combined with the computed series on one side, and direct
backward integration of the state equation with end condition x(theta)=0
on the other.  The residual between them must shrink like theta^(N+1).
Controls are piecewise constant with pieces aligned to the RK4 grid, so
the integrator keeps its full order across control switches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import expr as ex
from .algebra import Word, enumerate_basis, _shuffle_words
from .series import ControlSystem, SeriesTable

DEFAULT_STEPS = 2000
NOISE_FLOOR = 1e-13
CONTROL_VALUES = (-1.0, -0.5, 0.5, 1.0)
# piece counts dividing DEFAULT_STEPS, so switches land on grid nodes
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


def evaluate_moments(
    control: PiecewiseConstantControl, theta: float, N: int, steps: int = DEFAULT_STEPS
) -> dict:
    """RK4 values at time theta of all moments of order <= N.

    The moments satisfy the triangular system
    d/ds xi_{m1 m2...}(s) = s^{m1} u(s) xi_{m2...}(s) with value 1 on the
    empty word; each integration step samples the control at the step
    midpoint, which is exact for grid-aligned piecewise constants.
    """
    words: list = [()]
    for m in range(1, N + 1):
        words.extend(enumerate_basis(m))
    index = {w: i for i, w in enumerate(words)}
    # precompute (first letter, index of the tail) for each non-empty word
    deps = [None] + [(w[0], index[w[1:]]) for w in words[1:]]
    y = [0.0] * len(words)
    y[0] = 1.0
    h = theta / steps

    def rhs(s: float, state: list, u: float) -> list:
        out = [0.0] * len(state)
        for i in range(1, len(state)):
            m1, tail = deps[i]
            out[i] = (s**m1) * u * state[tail]
        return out

    for step in range(steps):
        s = step * h
        u = control.sample(s + 0.5 * h, theta)
        k1 = rhs(s, y, u)
        y2 = [a + 0.5 * h * b for a, b in zip(y, k1)]
        k2 = rhs(s + 0.5 * h, y2, u)
        y3 = [a + 0.5 * h * b for a, b in zip(y, k2)]
        k3 = rhs(s + 0.5 * h, y3, u)
        y4 = [a + h * b for a, b in zip(y, k3)]
        k4 = rhs(s + h, y4, u)
        y = [
            a + (h / 6.0) * (p + 2.0 * q + 2.0 * r + t)
            for a, p, q, r, t in zip(y, k1, k2, k3, k4)
        ]
    return {w: y[i] for w, i in index.items()}


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
        if isinstance(e, ex.Neg):
            return f"(-{py(e.arg)})"
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


def series_prediction(table: SeriesTable, moments: dict) -> list:
    out = [0.0] * table.n
    for w, vec in table.coeffs.items():
        xi = moments[w]
        for i in range(table.n):
            if vec[i]:
                out[i] += float(vec[i]) * xi
    return out


def residual(
    sys: ControlSystem,
    table: SeriesTable,
    control: PiecewiseConstantControl,
    theta: float,
    steps: int = DEFAULT_STEPS,
) -> float:
    moments = evaluate_moments(control, theta, table.N, steps)
    predicted = series_prediction(table, moments)
    actual = backward_endpoint(sys, control, theta, steps)
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
    sys: ControlSystem,
    table: SeriesTable,
    controls,
    thetas=None,
    steps: int = DEFAULT_STEPS,
) -> OrderCheckResult:
    """Residual between series prediction and backward integration must
    vanish at rate theta^(N+1): fitted slope >= N + 0.7 per control."""
    if thetas is None:
        thetas = tuple(0.2 * 2**-j for j in range(6))
    checks = []
    for control in controls:
        res = tuple(residual(sys, table, control, th, steps) for th in thetas)
        checks.append(
            ControlCheck(control, tuple(thetas), res, fit_slope(thetas, res))
        )
    return OrderCheckResult(table.N, checks, table.N + 0.7)


def shuffle_identity_residual(moments: dict, w1: Word, w2: Word) -> float:
    """|xi_{w1} xi_{w2} - sum of shuffle moments|; the product of two
    iterated integrals must equal the shuffle of their words."""
    lhs = moments[w1] * moments[w2]
    if w1 > w2:
        w1, w2 = w2, w1
    rhs = 0.0
    for w, mult in _shuffle_words(tuple(w1), tuple(w2)):
        rhs += mult * moments[w]
    return abs(lhs - rhs)


def max_shuffle_residual(
    control: PiecewiseConstantControl,
    theta: float,
    max_order: int,
    steps: int = DEFAULT_STEPS,
) -> float:
    """Worst shuffle-identity violation over all word pairs whose orders
    sum to at most max_order."""
    moments = evaluate_moments(control, theta, max_order, steps)
    worst = 0.0
    pairs = []
    for m1 in range(1, max_order):
        for m2 in range(m1, max_order + 1 - m1):
            for w1 in enumerate_basis(m1):
                for w2 in enumerate_basis(m2):
                    pairs.append((w1, w2))
    for w1, w2 in pairs:
        worst = max(worst, shuffle_identity_residual(moments, w1, w2))
    return worst
