"""Moment series of a single-input control-affine system.

The coefficient attached to the word (m1, ..., mk) is

    v = ((-1)^k / (m1! ... mk!)) ad_{R_a}^{m1} R_b ... ad_{R_a}^{mk} R_b E

evaluated at t = 0, x = 0 and applied to the identity map E, where
R_a f = f_t + f_x a and R_b f = f_x b.  The operators act on truncated
Taylor jets at the origin (Griewank & Walther, Evaluating Derivatives,
2nd ed. 2008), which keeps every coefficient exact: see SeriesComputer.
The jets have int coefficients over one common denominator Q, so the
stacks never divide: see JetSystem.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import expr as ex
from .algebra import AlgElem, Word, enumerate_basis, exact_str, word_order, word_sort_key


class EquilibriumError(ValueError):
    """a(t,0) is not identically zero (or cannot be certified zero)."""


class ControlSystem(namedtuple("ControlSystem", "n a b")):
    """dx/dt = a(t,x) + b(t,x) u with analytic right-hand sides."""

    __slots__ = ()

    def __new__(cls, n: int, a: tuple, b: tuple):
        if n < 1:
            raise ValueError("state dimension must be >= 1")
        if len(a) != n or len(b) != n:
            raise ValueError("a and b must each have n components")
        for f in (*a, *b):
            bad = [i for i in ex.degrees(f) if i > n]
            if bad:
                raise ValueError(f"component uses x{max(bad)} but n = {n}")
        return super().__new__(cls, n, a, b)


def system_from_strings(n: int, a_strs, b_strs) -> ControlSystem:
    a = tuple(ex.parse_expr(s, n) for s in a_strs)
    b = tuple(ex.parse_expr(s, n) for s in b_strs)
    return ControlSystem(n, a, b)


def certify_drift(name: str, ai, n: int) -> None:
    """Require the drift component `name` = ai to vanish at x = 0: by
    simplification to 0, else by d + 1 exact zeros among the first
    ex.MAX_SAMPLES times, poles skipped, where d is the larger of the
    numerator bounds p and f that `ex.degrees` gives a(t,0) in t.
    Proof: at those times every subtree is defined and each sin/cos/exp
    argument is 0.  Innermost first, such an argument is P/Q with deg P
    <= f <= d once the functions inside it are constants, and Q != 0 at
    d + 1 zeros of P, so P = 0 and the function is a constant too.  Then
    a(t,0) = P/Q with deg P <= p <= d, and the same argument gives P = 0."""
    at0 = ex.substitute(ai, dict.fromkeys(range(1, n + 1), ex.ZERO))
    p, _, f = ex.degrees(at0).get(0, (0, 0, 0))
    needed = 0 if at0 == ex.ZERO else max(p, f) + 1
    for k in range(1, ex.MAX_SAMPLES + 1):
        if not needed:
            return
        t_val = Fraction(k if k <= 10 else 10 - k if k <= 20 else k - 10, 7)
        try:
            val = ex.eval_at_origin(ex.substitute(at0, {0: ex.Const(t_val)}))
        except ex.DivisionByZeroError:
            continue
        except ex.EvalError as err:
            raise EquilibriumError(
                f"{name}(t,0) cannot be certified zero at t={t_val}: {err}; "
                "rewrite the drift so a(t,0) simplifies to 0"
            ) from err
        if val != 0:
            raise EquilibriumError(
                f"{name}(t,0) = {exact_str(val)} != 0 at t = {t_val}; "
                "the origin must be an equilibrium of the drift"
            )
        needed -= 1
    if needed:
        raise EquilibriumError(
            f"{name}(t,0) cannot be certified zero in {ex.MAX_SAMPLES} sample times; "
            "rewrite the drift so a(t,0) simplifies to 0"
        )


def _nonzero(jet: dict) -> dict:
    return {k: c for k, c in jet.items() if c}


def _sub(f: dict, g: dict) -> dict:
    out = dict(f)
    for k, c in g.items():
        out[k] = out.get(k, 0) - c
    return _nonzero(out)


def _reduced(jet: dict, d: int) -> tuple:
    """(jet, d) divided by the gcd of d and the coefficients, with d > 0."""
    g = math.gcd(d, *jet.values())
    g = -g if d < 0 else g
    return ({k: c // g for k, c in jet.items()} if g != 1 else jet), d // g


def _series_coeffs(name: str, D: int, q: int) -> list:
    """Taylor coefficients of sin, cos or exp at 0 up to degree D, each
    times D!*q^(D-k): the series of f(r/q), times D!*q^D, in powers of r."""
    out = []
    for k in range(D + 1):
        c = math.factorial(D) // math.factorial(k) * q ** (D - k)
        if name == "exp":
            out.append(c)
        elif k % 2 != (name == "sin"):  # sin is odd, cos is even
            out.append(0)
        else:
            out.append(c if k % 4 < 2 else -c)
    return out


class JetSystem:
    """A control system as Taylor jets at the origin, truncated at total
    degree D in (t, x1..xn); its components are Exprs or monomial maps.

    A jet is a dict from packed monomials to nonzero int coefficients.
    The monomial t^e0 x1^e1 ... xn^en of total degree d packs into
    d*B^(n+1) + sum_i e_i*B^i with B = D + 1.  Monomials of total degree
    <= D multiply by adding their keys, without carries; keys sort by
    total degree first; and a product has degree > L exactly when its
    key is >= (L + 1)*B^(n+1).

    Q is the lcm of the denominators of the jets of a and b.  R_a and R_b
    are Q times the operators' coefficient vectors on (d_t, d_x1, ..,
    d_xn): Q*(1, a_1, .., a_n) and Q*(0, b_1, .., b_n), each a jet as a
    sorted item list, so a stack of k operators is Q^k times the true one.
    """

    def __init__(self, sys, D: int):
        self.D = D
        self._base = D + 1
        self._unit = tuple(self._base**i for i in range(sys.n + 1))
        self._degree_unit = self._base ** (sys.n + 1)
        self.identity = tuple(self.expand(ex.Var(i))[0] for i in range(1, sys.n + 1))
        parts = [self.expand(f) for f in (*sys.a, *sys.b)]
        self.Q = math.lcm(*(d for _, d in parts))
        ops = [sorted((k, c * (self.Q // d)) for k, c in jet.items()) for jet, d in parts]
        self.R_a = ([(0, self.Q)], *ops[: sys.n])
        self.R_b = ([], *ops[sys.n :])

    def _limit(self, degree: int) -> int:
        # smallest key of total degree > degree
        return (degree + 1) * self._degree_unit

    def _mul(self, f: dict, g: list, degree: int) -> dict:
        """f*g truncated at total degree `degree`; g is a sorted item list."""
        limit = self._limit(degree)
        out = {}
        for k1, c1 in f.items():
            room = limit - k1
            for k2, c2 in g:
                if k2 >= room:
                    break
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return _nonzero(out)

    def _compose(self, arg: dict, coeffs: list) -> dict:
        """sum_k coeffs[k]*r^k for r = arg minus its constant term, by Horner."""
        r = sorted((k, c) for k, c in arg.items() if k)
        out = {}
        for c in reversed(coeffs):
            out = self._mul(out, r, self.D)
            if c:
                out[0] = c
        return out

    def expand(self, e) -> tuple:
        """(J, d): the jet of an expression or a monomial map, exact up to
        total degree D, is J/d, with d > 0 coprime to J's coefficients.

        Like `ex.eval_at_origin`, raises ex.DivisionByZeroError for a
        denominator that vanishes at the origin and
        ex.NonzeroTranscendentalError for sin/cos/exp of an argument that
        does not.
        """
        if isinstance(e, dict):
            # a monomial map; each power of variable i adds B^i + B^(n+1) to the key
            step = [u + self._degree_unit for u in self._unit]
            d = math.lcm(*(Fraction(c).denominator for c in e.values()))
            return _reduced({
                sum(q * s for q, s in zip((t, *xs), step)): int(c * d)
                for (t, xs), c in e.items()
                if t + sum(xs) <= self.D
            }, d)
        if isinstance(e, ex.Const):
            c = e.value
            return ({0: c.numerator}, c.denominator) if c else ({}, 1)
        if isinstance(e, ex.Var):
            return ({self._degree_unit + self._unit[e.index]: 1} if self.D else {}), 1
        if isinstance(e, ex.Sum):
            parts = [self.expand(term) for term in e.terms]
            d = math.lcm(*(q for _, q in parts))
            out = {}
            for jet, q in parts:
                for k, c in jet.items():
                    out[k] = out.get(k, 0) + c * (d // q)
            return _reduced(_nonzero(out), d)
        if isinstance(e, ex.Prod):
            out, d = {0: 1}, 1
            for f in e.factors:
                jet, q = self.expand(f)
                out, d = self._mul(out, sorted(jet.items()), self.D), d * q
            return _reduced(out, d)
        if isinstance(e, ex.Pow):
            # square and multiply: about 2*log2(exponent) truncated products,
            # each reduced, so a square truncated to 0 drops its denominator
            (square, q), (out, d), k = self.expand(e.base), ({0: 1}, 1), e.exponent
            while k:
                if k & 1:
                    out, d = _reduced(self._mul(out, sorted(square.items()), self.D), d * q)
                k >>= 1
                if k:
                    square, q = _reduced(self._mul(square, sorted(square.items()), self.D), q * q)
            return out, d
        if isinstance(e, ex.Quot):
            den, q = self.expand(e.den)
            d0 = den.get(0, 0)
            if d0 == 0:
                raise ex.DivisionByZeroError("division by zero at the origin")
            num, p = self.expand(e.num)
            # q/(d0 + r) = q*sum_k (-r)^k d0^(D-k) / d0^(D+1)
            inverse = [q * (-1) ** k * d0 ** (self.D - k) for k in range(self.D + 1)]
            out = self._mul(num, sorted(self._compose(den, inverse).items()), self.D)
            return _reduced(out, p * d0 ** (self.D + 1))
        if isinstance(e, ex.Func):
            arg, q = self.expand(e.arg)
            a0 = arg.get(0, 0)
            if a0:
                raise ex.NonzeroTranscendentalError(
                    f"{e.name}({exact_str(Fraction(a0, q))}) has no exact rational value"
                )
            out = self._compose(arg, _series_coeffs(e.name, self.D, q))
            return _reduced(out, math.factorial(self.D) * q**self.D)
        raise TypeError(f"not an Expr: {e!r}")

    def apply(self, op: tuple, fs, degree: int) -> tuple:
        """Componentwise sum_i d_i f * op_i, truncated at total degree `degree`."""
        limit = self._limit(degree)
        base = self._base
        out = []
        for f in fs:
            acc = {}
            for unit, g in zip(self._unit, op):
                if not g:
                    continue
                step = unit + self._degree_unit
                for k, c in f.items():
                    e = k // unit % base
                    if not e:
                        continue
                    k1 = k - step
                    c1 = c * e
                    room = limit - k1
                    for k2, c2 in g:
                        if k2 >= room:
                            break
                        key = k1 + k2
                        acc[key] = acc.get(key, 0) + c1 * c2
            out.append(_nonzero(acc))
        return tuple(out)


def apply_R_a(jets: JetSystem, fs, degree: int) -> tuple:
    """Componentwise Q*(f_t + f_x a), truncated at total degree `degree`."""
    return jets.apply(jets.R_a, fs, degree)


def apply_R_b(jets: JetSystem, fs, degree: int) -> tuple:
    """Componentwise Q*f_x b, truncated at total degree `degree`."""
    return jets.apply(jets.R_b, fs, degree)


class SeriesTable(namedtuple("SeriesTable", "n N coeffs")):
    """Moment coefficients v(w) for all words of order <= N (zeros omitted)."""

    __slots__ = ()

    def v(self, w: Word) -> tuple:
        w = tuple(w)
        if word_order(w) > self.N:
            raise ValueError(f"word {w} has order {word_order(w)} > N = {self.N}")
        return self.coeffs.get(w, (Fraction(0),) * self.n)

    def v_elem(self, e: AlgElem) -> tuple:
        """Linear extension to algebra elements of order <= N."""
        acc = [Fraction(0)] * self.n
        for w, c in e.terms.items():
            if w == ():
                raise ValueError("moment functional is undefined on scalars")
            vw = self.v(w)
            if w in self.coeffs:  # every other word has v = 0
                for i in range(self.n):
                    acc[i] += c * vw[i]
        return tuple(acc)

    def nonzero_items(self) -> list:
        return sorted(self.coeffs.items(), key=lambda p: word_sort_key(p[0]))

    def to_json(self) -> list:
        return [
            {"word": list(w), "coeff": [exact_str(c) for c in vec]}
            for w, vec in self.nonzero_items()
        ]


def _stack(jets: JetSystem, memo: dict, j: int, w: Word, p: int) -> tuple:
    """(ad_{R_a}^j R_b) applied to R_a^p (stack of w) on jets; for j = -1,
    R_a^p applied to the stack of w, the identity for w = ().  memo holds
    the stacks already computed on these jets, keyed by (j, w, p)."""
    key = (j, w, p)
    got = memo.get(key)
    if got is not None:
        return got
    degree = jets.D - word_order(w) - p - j - 1
    if j < 0:
        if p:
            got = apply_R_a(jets, _stack(jets, memo, -1, w, p - 1), degree)
        else:
            got = _stack(jets, memo, w[0], w[1:], 0) if w else jets.identity
    elif j == 0:
        got = apply_R_b(jets, _stack(jets, memo, -1, w, p), degree)
    else:
        left = apply_R_a(jets, _stack(jets, memo, j - 1, w, p), degree)
        got = tuple(map(_sub, left, _stack(jets, memo, j - 1, w, p + 1)))
    memo[key] = got
    return got


class SeriesComputer:
    """Evaluates moment coefficients on Taylor jets of the system.

    A word of order m applies m first-order operators, each lowering the
    total degree of any term by at most one, so terms above degree m
    never reach the value at the origin: jets truncated at degree N give
    every word of order <= N exactly, and a stack that has applied k
    operators is kept only up to degree N - k.  One `table_up_to(N)`
    call owns its jets, built at degree N when it first meets a word
    without a vector, and its memo of operator stacks; both go when it
    returns.  The exact moment vectors persist, so a larger table
    computes only the words it adds.  It takes a PolynomialSystem as it
    stands; `approximate` certifies the equilibrium.
    """

    def __init__(self, sys):
        self.sys = sys
        self._vectors: dict = {}

    def table_up_to(self, N: int) -> SeriesTable:
        jets, memo = None, {}
        coeffs = {}
        for m in range(1, N + 1):
            for w in enumerate_basis(m):
                vec = self._vectors.get(w)
                if vec is None:
                    if jets is None:
                        jets = JetSystem(self.sys, N)
                    # the stack applied order(w) operators, each Q times R_a or R_b
                    denom = (-1) ** len(w) * jets.Q ** word_order(w)
                    for k in w:
                        denom *= math.factorial(k)
                    stack = _stack(jets, memo, -1, w, 0)
                    vec = self._vectors[w] = tuple(Fraction(f.get(0, 0), denom) for f in stack)
                if any(c != 0 for c in vec):
                    coeffs[w] = vec
        return SeriesTable(self.sys.n, N, coeffs)
