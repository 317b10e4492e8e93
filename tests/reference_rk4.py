"""The backward RK4 integrator as it was before `verify` generated one
loop per system and per control piece: a compiled field f(t, x, u)
called on lists at each stage, with the control sampled at each step's
midpoint.  `verify.backward_endpoint` must return exactly the same
floats, which ties `verify`'s printer to `reference_field`, and
`test_verify` checks `reference_field` against sympy."""
import math

from homapprox import expr as ex
from homapprox.verify import VerificationError


def sample(control, s, horizon):
    """The value of the control, spread over [0, horizon], at time s; times
    outside the horizon take the nearest piece."""
    k = len(control.values)
    idx = int(s / horizon * k)
    if idx < 0:
        idx = 0
    if idx >= k:
        idx = k - 1
    return control.values[idx]


def reference_field(sys):
    def py(e):
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


def reference_backward_endpoint(sys, control, theta, steps):
    f = reference_field(sys)
    x = [0.0] * sys.n
    h = -theta / steps
    t = theta
    for _ in range(steps):
        u = sample(control, t + 0.5 * h, theta)
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
