"""Numerical cross-checks of the symbolic pipeline.

Two independent routes are compared: the computed series evaluated at
the exact moments of the control on one side, and RK4 backward
integration of the state equation with end condition x(theta) = 0 on
the other.  The residual between them must shrink like theta^(N+1).
Controls are piecewise constant, so every moment is a polynomial on each
piece.  Scaled by the control values' common denominator, the piece
count and a fixed divisor per word, these polynomials have integer
coefficients, so the moments are integrated exactly in integers, once
per control for all horizons, and only for the words the series uses
and their suffixes; each becomes a Fraction at the end.  The backward
integrator is one RK4 loop generated from the expression printer and
compiled once per system.  It runs piece by piece over the control, and
the piece count divides the step count, so no step straddles a switch
and RK4 keeps its full order.  Each part of the field is computed only
as often as its value can change, with every float bit for bit that of
the textbook loop (see compile_backward).
"""
from __future__ import annotations

import math
from collections import Counter, namedtuple
from contextlib import contextmanager
from fractions import Fraction

from . import expr as ex
from .algebra import Word, enumerate_basis, word_order, word_sort_key, _shuffle_words
from .series import ControlSystem, SeriesTable

DEFAULT_STEPS = 2000
NOISE_FLOOR = 1e-13
THETAS = tuple(0.2 * 2**-j for j in range(6))  # order_check's horizons
CONTROL_SEED = 20240801  # run_verification's controls, the same every run
CONTROL_VALUES = (-1.0, -0.5, 0.5, 1.0)
# piece counts dividing DEFAULT_STEPS, as backward_endpoint requires, so
# switches land on its grid nodes
CONTROL_PIECES = (4, 8, 10, 16, 20, 25)


class VerificationError(Exception):
    pass


@contextmanager
def _stage(name: str, errors=ArithmeticError):
    """A float error of the block as a VerificationError naming the stage."""
    try:
        yield
    except errors as err:
        # a float overflow carries (errno, reason); the reason is the message
        reason = err.args[-1] if err.args else err
        raise VerificationError(f"{reason} in {name}") from err


class PiecewiseConstantControl(namedtuple("PiecewiseConstantControl", "values")):
    __slots__ = ()

    def describe(self) -> str:
        return "piecewise-constant " + str(list(self.values))


def random_control(rng) -> PiecewiseConstantControl:
    pieces = rng.choice(CONTROL_PIECES)
    values = tuple(rng.choice(CONTROL_VALUES) for _ in range(pieces))
    return PiecewiseConstantControl(values)


def evaluate_moments(control: PiecewiseConstantControl, words) -> dict:
    """Exact values at sigma = 1 of the moments of the given words and of
    their suffixes, the empty word included, with the control spread over
    the unit horizon.

    xi_{m1 w'}(s) is the integral from 0 to s of r^{m1} u(r) xi_{w'}(r).
    With k pieces whose values are g_j / q (g_j integers), the scaled
    moment Y_w(rho) = xi_w(rho / k) q^len(w) k^order(w) obeys
    Y_{m1 w'}(rho) = integral from 0 to rho of g(r) r^{m1} Y_{w'}(r), with
    piece j on [j, j + 1].  There D_w Y_w is a polynomial with integer
    coefficients, where D_w = D_{w'} lcm(m1 + 1, ..., order(w)) clears
    the integration's divisors, and it is an integer at every piece
    boundary.  So the moments are integrated piece by piece (Chen's
    identity) in integers, with words in order of increasing order so
    that each tail is known, and divided out once at the end.
    """
    words = sorted({w[i:] for w in words for i in range(len(w))}, key=word_sort_key)
    pieces = [Fraction(u) for u in control.values]
    q = math.lcm(*(u.denominator for u in pieces))
    denom = {(): 1}
    plan = []  # per word: its tail, zeros for the powers 1..m1, integration factors
    for w in words:
        lo, top = w[0] + 1, word_order(w)
        lcm = math.lcm(*range(lo, top + 1))
        denom[w] = denom[w[1:]] * lcm
        plan.append((w, w[1:], [0] * w[0], [lcm // p for p in range(lo, top + 1)]))
    scaled = dict.fromkeys(words, 0)  # D_w Y_w at the current piece boundary
    for j, u in enumerate(pieces):
        g, j1 = u.numerator * (q // u.denominator), j + 1
        polys = {(): [1]}  # D_w Y_w on this piece, by ascending power of rho
        for w, tail, zeros, factors in plan:
            integral = [g * a * f for a, f in zip(polys[tail], factors)]
            at_j = at_j1 = 0
            for c in reversed(integral):
                at_j = at_j * j + c
                at_j1 = at_j1 * j1 + c
            lo = len(zeros) + 1
            start = scaled[w] - at_j * j**lo
            polys[w] = [start, *zeros, *integral]
            scaled[w] = start + at_j1 * j1**lo
    k = len(pieces)
    values = {(): Fraction(1)}
    for w in words:
        values[w] = Fraction(scaled[w], denom[w] * q ** len(w) * k ** word_order(w))
    return values


def _level(e: ex.Expr) -> int:
    """0 when e reads no variable, 1 when it reads t alone, 2 when it
    reads a state."""
    v = ex.variables(e)
    return 2 if v - {0} else len(v)


def _py(e: ex.Expr, names: tuple, bind=None) -> str:
    """Python source for the float value of e, where names[i] is the
    source of variable i (t is variable 0).  Given bind, each largest part
    of e that reads no state and is more than a name or a constant is
    computed apart: its source is bind(source, _level(part), names[0]), a
    name."""
    if bind and _level(e) < 2 and not isinstance(e, (ex.Const, ex.Var)):
        return bind(_py(e, names), _level(e), names[0])
    if isinstance(e, ex.Const):
        # a true division, as in float() of a Fraction: same OverflowError text
        return f"({e.value.numerator / e.value.denominator!r})"
    if isinstance(e, ex.Var):
        return names[e.index]
    if isinstance(e, (ex.Sum, ex.Prod)):
        op, parts = ("+", e.terms) if isinstance(e, ex.Sum) else ("*", e.factors)
        return "(" + op.join(_py(p, names, bind) for p in parts) + ")"
    if isinstance(e, ex.Quot):
        return f"({_py(e.num, names, bind)}/{_py(e.den, names, bind)})"
    if isinstance(e, ex.Pow):
        # hex: compile refuses decimal literals past the int-to-string limit
        return f"({_py(e.base, names, bind)}**{hex(e.exponent)})"
    if isinstance(e, ex.Func):
        return f"{e.name}({_py(e.arg, names, bind)})"
    raise TypeError(f"not an Expr: {e!r}")


def _field(a: ex.Expr, b: ex.Expr, names: tuple, bind) -> str:
    """A name for the value of a + (b)*u at the variables names; where a
    or b reads no variable, the part is bound at level 0."""
    if _level(a) == _level(b) == 0:
        return bind(f"{_py(a, names)} + ({_py(b, names)})*u", 0)
    a = _py(a, names, bind)
    if _level(b) == 0:
        return bind(f"{a} + {bind(f'({_py(b, names)})*u', 0)}", 2)
    return bind(f"{a} + ({_py(b, names, bind)})*u", 2)


_BACKWARD = """\
def _backward(values, theta, steps):
    {states} = 0.0
    h = -theta / steps
    hh = 0.5 * h
    h6 = h / 6.0
    per_piece = steps // len(values)
{init}
    for u in reversed(values):
{piece}
        for _ in range(per_piece):
{step}
            if {blown}:
                raise VerificationError("numerical blow-up in backward integration")
    return [{states_list}]
"""


def compile_backward(sys: ControlSystem):
    """One RK4 integrator of dx/dt = a + b u backwards from x(theta) = 0,
    called as integrate(control.values, theta, steps) -> x(0), where the
    number of pieces divides steps.

    Its float operations, and their operands, are those of the textbook
    loop that evaluates the field on lists of states at each of the four
    stages and samples the control at each step's midpoint t + h/2.  The
    loop runs over the pieces instead, steps/k steps each: every midpoint
    lies half a step, theta/(2 steps), inside its piece, while the
    rounding drift of t += h over all steps is about steps 2^-53 theta,
    far smaller, so u is the value the sampled control would have had at
    every step.

    Each part of the field is computed only as often as its value can
    change, and each rule keeps every float bit for bit:
    - a part free of t and x, such as (b_i)*u for a constant b_i, or a
      whole constant component with its four equal stages and their
      multiples by h/2, h and h/6, once per piece, and a source that
      recurs within a step (a stage equal to the one before) once: the
      same operations on the same operands give the same floats;
    - a part reading t alone once at t + h/2 for stages 2 and 3 and once
      at t + h, which is the next step's value at t, since t + h is the
      same operation as t += h;
    - a stage state no field reads, and t when no field reads it, never:
      they are never read.
    A step that raises does so in the same stage as the textbook loop,
    with the same error unless two parts of that stage fail differently.
    """
    read = set().union(*map(ex.variables, (*sys.a, *sys.b)))
    init, piece, step = [], [], []
    if 0 in read:
        init.append("t = theta")
        step += ["th = t + hh", "tf = t + h"]
    names, counts, constant = {}, Counter(), set()

    def bind(src: str, level: int, time: str = "") -> str:
        # a name for src's value, computed once per piece at level 0, in
        # the step at level 2, and at level 1 at the given stage time: at t
        # once before the loop, and after that carried over from t + h
        if src not in names:
            prefix = ("p", f"{time}_", "v")[level]
            name = names[src] = f"{prefix}{counts[prefix]}"
            counts[prefix] += 1
            (piece if level == 0 else init if prefix == "t_" else step).append(
                f"{name} = {src}"
            )
            if level == 0:
                constant.add(name)
        return names[src]

    def once(src: str, k: str) -> str:
        """src, a multiple of k, as a level-0 name when k is one."""
        return bind(src, 0) if k in constant else src

    idx = range(1, sys.n + 1)
    xs = tuple(f"x{i}" for i in idx)
    state, ks = xs, []
    # each stage evaluates the field at (time, state), then moves the
    # state to x + move * k for the next stage
    for time, move in (("t", "hh"), ("th", "hh"), ("th", "h"), ("tf", None)):
        ks.append([_field(a, b, (time, *state), bind) for a, b in zip(sys.a, sys.b)])
        if move:
            state = [
                bind(f"x{i} + {once(f'{move} * {k}', k)}", 2) if i in read else None
                for i, k in zip(idx, ks[-1])
            ]
    for x, k in zip(xs, zip(*ks)):
        rk4 = "h6 * ({} + 2.0 * {} + 2.0 * {} + {})".format(*k)
        step.append(f"{x} = {x} + {once(rk4, k[0])}")
    if 0 in read:
        step += ["t = tf", *(f"t_{j} = tf_{j}" for j in range(counts["t_"]))]
    src = _BACKWARD.format(
        states=" = ".join(xs),
        init="\n".join(" " * 4 + line for line in init),
        piece="\n".join(" " * 8 + line for line in piece),
        step="\n".join(" " * 12 + line for line in step),
        blown=" or ".join(f"not abs({x}) <= 1e12" for x in xs),  # NaN included
        states_list=", ".join(xs),
    )
    namespace = {name: getattr(math, name) for name in ex.FUNCTIONS}
    namespace["VerificationError"] = VerificationError
    exec(src, namespace)
    return namespace["_backward"]


def backward_endpoint(integrate, control, theta: float) -> list:
    """x(0) of dx/dt = a + b u integrated backwards from x(theta) = 0 by
    integrate, from compile_backward, in DEFAULT_STEPS RK4 steps: the
    point the series represents.  The control's piece count must divide
    DEFAULT_STEPS, so that no step straddles a switch.  A division by
    zero, an overflow or a math domain error in the field is a
    VerificationError."""
    if DEFAULT_STEPS % len(control.values):
        raise ValueError(
            f"{len(control.values)} control pieces do not divide {DEFAULT_STEPS} steps"
        )
    with _stage("backward integration", (ArithmeticError, ValueError)):
        return integrate(control.values, theta, DEFAULT_STEPS)


def series_prediction(table: SeriesTable, moments: dict, theta: float) -> list:
    """The series at horizon theta from the unit-horizon moments: the
    substitution s = theta * sigma gives xi_w(theta) = theta^order(w) xi_w(1).
    A value past float range is a VerificationError."""
    th = Fraction(theta)
    powers = {m: th**m for m in set(map(word_order, table.coeffs))}
    out = [Fraction(0)] * table.n
    for w, vec in table.coeffs.items():
        xi = moments[w] * powers[word_order(w)]
        for i, c in enumerate(vec):
            out[i] += c * xi
    with _stage(f"series prediction at theta = {theta!r}"):
        return [float(x) for x in out]


def fit_slope(residuals):
    """Least-squares slope of log(residual) against log(theta) over
    THETAS, ignoring residuals at the double-precision noise floor; None
    if fewer than two usable points remain."""
    points = [
        (math.log(t), math.log(r))
        for t, r in zip(THETAS, residuals)
        if r > NOISE_FLOOR
    ]
    if len(points) < 2:
        return None
    mx = sum(p[0] for p in points) / len(points)
    my = sum(p[1] for p in points) / len(points)
    sxx = sum((p[0] - mx) ** 2 for p in points)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in points)
    return sxy / sxx


class ControlCheck(namedtuple("ControlCheck", "control thetas residuals slope")):
    # slope: float | None when all residuals sit at the noise floor
    __slots__ = ()


class OrderCheckResult(namedtuple("OrderCheckResult", "N checks required_slope")):
    __slots__ = ()


def order_check(
    sys: ControlSystem, table: SeriesTable, controls, moments
) -> OrderCheckResult:
    """Residual between series prediction and backward integration must
    vanish at rate theta^(N+1): fitted slope >= N + 0.7 per control.
    moments holds each control's moments of the table's words."""
    with _stage("backward integration"):  # a constant past float range
        integrate = compile_backward(sys)
    checks = []
    for control, xi in zip(controls, moments):
        res = []
        for theta in THETAS:
            predicted = series_prediction(table, xi, theta)
            actual = backward_endpoint(integrate, control, theta)
            with _stage(f"residual at theta = {theta!r}"):
                squares = sum((p - a) ** 2 for p, a in zip(predicted, actual))
                res.append(math.sqrt(squares))
        checks.append(ControlCheck(control, THETAS, tuple(res), fit_slope(res)))
    return OrderCheckResult(table.N, checks, table.N + 0.7)


def shuffle_identity_residual(moments: dict, w1: Word, w2: Word) -> Fraction:
    """xi_{w1} xi_{w2} - sum of shuffle moments, which vanishes: the
    product of two iterated integrals is the shuffle of their words."""
    lhs = moments[w1] * moments[w2]
    if w1 > w2:
        w1, w2 = w2, w1
    return lhs - sum(mult * moments[w] for w, mult in _shuffle_words(w1, w2))


def max_shuffle_residual(moments: dict, max_order: int) -> float:
    """Largest |shuffle-identity violation| among one control's moments,
    over all word pairs whose orders sum to at most max_order; moments
    must hold every word of order <= max_order.  The identity is
    homogeneous in the horizon, so the unit horizon checks every theta."""
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
