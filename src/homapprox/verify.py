"""Numerical cross-checks of the symbolic pipeline.

Two independent routes are compared: the computed series evaluated at
the exact moments of the control on one side, and RK4 backward
integration of the state equation with end condition x(theta) = 0 on
the other.  The residual between them must shrink like theta^(N+1).
Controls are piecewise constant, so every moment is a polynomial on each
piece and is integrated exactly in rationals, once per control for all
horizons, and only for the words the series uses and their suffixes.
The backward integrator is one RK4 loop generated from the expression
printer and compiled once per system; the control pieces are aligned to
the RK4 grid, so it keeps its full order across control switches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .algebra import Word, enumerate_basis, word_order, word_sort_key, _shuffle_words
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


def evaluate_moments(control: PiecewiseConstantControl, N: int, words=None) -> dict:
    """Exact values at sigma = 1 of the moments of the given words and of
    their suffixes, the empty word included, with the control spread over
    the unit horizon; all words of order <= N when words is None (N is not
    used otherwise).

    xi_{m1 w'}(s) is the integral from 0 to s of r^{m1} u(r) xi_{w'}(r).
    On a piece where u is the constant c this is the polynomial
    xi_{m1 w'}(start) + c * integral from start to s of r^{m1} xi_{w'},
    so the moments are integrated piece by piece (Chen's identity), with
    words in order of increasing order so that each tail is known.
    """
    if words is None:
        words = [w for m in range(1, N + 1) for w in enumerate_basis(m)]
    else:
        suffixes = {w[i:] for w in words for i in range(len(w))}
        words = sorted(suffixes, key=word_sort_key)
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


def _py(e: ex.Expr, names: tuple) -> str:
    """Python source for the float value of e, where names[i] is the
    source of variable i (t is variable 0)."""
    if isinstance(e, ex.Const):
        return f"({float(e.value)!r})"
    if isinstance(e, ex.Var):
        return names[e.index]
    if isinstance(e, ex.Sum):
        return "(" + "+".join(_py(t, names) for t in e.terms) + ")"
    if isinstance(e, ex.Prod):
        return "(" + "*".join(_py(f, names) for f in e.factors) + ")"
    if isinstance(e, ex.Quot):
        return f"({_py(e.num, names)}/{_py(e.den, names)})"
    if isinstance(e, ex.Pow):
        return f"({_py(e.base, names)}**{e.exponent})"
    if isinstance(e, ex.Func):
        return f"math.{e.name}({_py(e.arg, names)})"
    raise TypeError(f"not an Expr: {e!r}")


def _field(sys: ControlSystem, names: tuple) -> list:
    """Source of each component of a + b u at the variables names."""
    return [f"{_py(a, names)} + ({_py(b, names)})*u" for a, b in zip(sys.a, sys.b)]


def _define(src: str, name: str):
    namespace = {"math": math, "VerificationError": VerificationError}
    exec(src, namespace)
    return namespace[name]


def compile_system(sys: ControlSystem):
    """Compile a(t,x) + b(t,x)u into a fast float callable f(t, x, u)."""
    names = ("t", *(f"x[{i}]" for i in range(sys.n)))
    comps = _field(sys, names)
    return _define("def _f(t, x, u):\n    return [" + ", ".join(comps) + "]\n", "_f")


_BACKWARD = """\
def _backward(sample, theta, steps):
    {states} = 0.0
    h = -theta / steps
    hh = 0.5 * h
    h6 = h / 6.0
    t = theta
    for _ in range(steps):
        th = t + hh
        tf = t + h
        u = sample(th, theta)
{body}
        t += h
        if {blown}:
            raise VerificationError("numerical blow-up in backward integration")
    return [{states_list}]
"""


def compile_backward(sys: ControlSystem):
    """One RK4 integrator of dx/dt = a + b u backwards from x(theta) = 0,
    called as integrate(control.sample, theta, steps) -> x(0).

    Each state is a local variable and the field is written out at each
    of the four stages.  The float operations, and their order, are those
    of the textbook loop that calls compile_system's f on lists of states.
    """
    idx = range(1, sys.n + 1)
    xs = tuple(f"x{i}" for i in idx)
    ys = tuple(f"y{i}" for i in idx)
    body = []
    # stage k evaluates the field at (time, state), then moves y to x + step * k
    for k, time, state, step in (
        (1, "t", xs, "hh"), (2, "th", ys, "hh"), (3, "th", ys, "h"), (4, "tf", ys, None)
    ):
        body += [f"k{k}_{i} = {c}" for i, c in zip(idx, _field(sys, (time, *state)))]
        if step:
            body += [f"y{i} = x{i} + {step} * k{k}_{i}" for i in idx]
    body += [
        f"x{i} = x{i} + h6 * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
        for i in idx
    ]
    src = _BACKWARD.format(
        states=" = ".join(xs),
        body="\n".join(" " * 8 + line for line in body),
        blown=" or ".join(f"not abs({x}) <= 1e12" for x in xs),  # NaN included
        states_list=", ".join(xs),
    )
    return _define(src, "_backward")


def backward_endpoint(
    sys: ControlSystem,
    control: PiecewiseConstantControl,
    theta: float,
    steps: int = DEFAULT_STEPS,
    integrate=None,
) -> list:
    """RK4 integration of dx/dt = a + b u backwards from x(theta) = 0;
    returns x(0), the point the series represents.  integrate, from
    compile_backward(sys), is compiled here when not given."""
    if integrate is None:
        integrate = compile_backward(sys)
    return integrate(control.sample, theta, steps)


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
    integrate=None,
) -> float:
    predicted = series_prediction(table, moments, theta)
    actual = backward_endpoint(sys, control, theta, integrate=integrate)
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


def order_check(
    sys: ControlSystem, table: SeriesTable, controls, thetas=None, moments=None
) -> OrderCheckResult:
    """Residual between series prediction and backward integration must
    vanish at rate theta^(N+1): fitted slope >= N + 0.7 per control.
    moments, if given, holds each control's moments of the table's words."""
    if thetas is None:
        thetas = tuple(0.2 * 2**-j for j in range(6))
    if moments is None:
        moments = [evaluate_moments(c, table.N, table.coeffs) for c in controls]
    integrate = compile_backward(sys)
    checks = []
    for control, xi in zip(controls, moments):
        res = tuple(residual(sys, table, control, xi, th, integrate) for th in thetas)
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


def max_shuffle_residual(
    control: PiecewiseConstantControl, max_order: int, moments=None
) -> float:
    """Largest |shuffle-identity violation| over all word pairs whose
    orders sum to at most max_order; the identity is homogeneous in the
    horizon, so the unit horizon checks every theta.  moments, if given,
    must hold the control's moments of every word of order <= max_order."""
    if moments is None:
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
