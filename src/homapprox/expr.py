"""Exact symbolic expressions in t, x1..xn with rational coefficients.

Node kinds cover what analytic control vector fields need: rational
constants, variables, sums, products, quotients, non-negative integer
powers and the functions sin, cos, exp; a minus is a product with the
constant -1.  The parser builds every node through the smart
constructors, so a parsed tree is already in ``simplify``'s normal form.
All structural operations (parsing, differentiation, substitution,
evaluation at the origin) are exact; ``--verify`` compiles the trees to
float code in ``verify``.
"""
from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .algebra import exact_number, exact_str, scaled, signed_sum

# nesting levels the parser accepts, one per parenthesis, function call or '/'
# in a chain: the recursive passes and --verify's generated code (at most 4
# parentheses a level) stay far from Python's recursion and parenthesis limits
MAX_DEPTH = 32
# bits a constant power c^k may take: k times the bit length of c's larger part
MAX_POWER_BITS = 2**17


class ExprError(Exception):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    """Raised by the parser; carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ExprError):
    """Base class for exact-evaluation failures."""


class DivisionByZeroError(EvalError):
    pass


class NonzeroTranscendentalError(EvalError):
    pass


class PowerTooLargeError(EvalError):
    pass


class Expr:
    """An immutable node.  Each kind lists its fields in ``__slots__`` and
    is built from their values in that order; nodes are equal when they
    are of one kind with equal fields, and hash alike then."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, *value):  # also __delattr__, without a value
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __str__(self) -> str:
        return render(self)


class Const(Expr):
    __slots__ = ("value",)  # an int when integral, else a Fraction

    def __init__(self, value):
        object.__setattr__(self, "value", value.numerator if value.denominator == 1 else value)


class Var(Expr):
    # index 0 is the time variable t; index i >= 1 is the state x_i
    __slots__ = ("index",)


class Sum(Expr):
    __slots__ = ("terms",)  # a tuple


class Prod(Expr):
    __slots__ = ("factors",)  # a tuple


class Quot(Expr):
    __slots__ = ("num", "den")


class Pow(Expr):
    __slots__ = ("base", "exponent")  # exponent: an int


class Func(Expr):
    __slots__ = ("name", "arg")


FUNCTIONS = ("sin", "cos", "exp")

ZERO = Const(0)
ONE = Const(1)
MINUS_ONE = Const(-1)
T = Var(0)


# ---------------------------------------------------------------------------
# canonical ordering key, used to sort terms and factors deterministically

def _key(e: Expr) -> str:
    if isinstance(e, Const):
        return f"0({exact_str(e.value)})"
    if isinstance(e, Var):
        return f"1({e.index:06d})"
    if isinstance(e, Pow):
        return f"3({_key(e.base)},{exact_str(e.exponent).zfill(4)})"
    if isinstance(e, Func):
        return f"4({e.name},{_key(e.arg)})"
    if isinstance(e, Quot):
        return f"5({_key(e.num)},{_key(e.den)})"
    if isinstance(e, Prod):
        return "6(" + ",".join(_key(f) for f in e.factors) + ")"
    if isinstance(e, Sum):
        return "7(" + ",".join(_key(t) for t in e.terms) + ")"
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# smart constructors; arguments are assumed already simplified

def _split_coeff(e: Expr) -> tuple[int | Fraction, Expr | None]:
    """Split a simplified term into (rational coefficient, core)."""
    if isinstance(e, Const):
        return e.value, None
    if isinstance(e, Prod) and isinstance(e.factors[0], Const):
        rest = e.factors[1:]
        core = rest[0] if len(rest) == 1 else Prod(rest)
        return e.factors[0].value, core
    return 1, e


def _with_coeff(coeff: int | Fraction, core: Expr) -> Expr:
    if coeff == 0:
        return ZERO
    if coeff == 1:
        return core
    if isinstance(core, Prod):
        return Prod((Const(coeff),) + core.factors)
    return Prod((Const(coeff), core))


def mk_sum(terms: Iterable[Expr]) -> Expr:
    const_acc = 0
    cores: dict[Expr, int | Fraction] = {}  # like terms merge on the node itself
    for term in terms:
        for t in term.terms if isinstance(term, Sum) else (term,):
            coeff, core = _split_coeff(t)
            if core is None:
                const_acc += coeff
            else:
                cores[core] = cores.get(core, 0) + coeff
    out = [_with_coeff(c, core) for core, c in cores.items() if c != 0]
    if const_acc != 0:
        out.append(Const(const_acc))
    out.sort(key=_key)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


def mk_prod(factors: Iterable[Expr]) -> Expr:
    coeff = 1
    bases: dict[Expr, int] = {}  # repeated factors merge on the node itself
    for f in factors:
        for p in f.factors if isinstance(f, Prod) else (f,):
            base, exp = (p.base, p.exponent) if isinstance(p, Pow) else (p, 1)
            if isinstance(base, Const):
                coeff *= base.value**exp
            else:
                bases[base] = bases.get(base, 0) + exp
    if coeff == 0:
        return ZERO
    out = []
    for base, exp in bases.items():
        if exp == 0:
            continue
        # mk_pow, so that a repeated quotient becomes one quotient of powers
        out.append(base if exp == 1 else mk_pow(base, exp))
    out.sort(key=_key)
    if not out:
        return Const(coeff)
    if coeff != 1:
        out.insert(0, Const(coeff))
    if len(out) == 1:
        return out[0]
    return Prod(tuple(out))


def mk_pow(base: Expr, exponent: int) -> Expr:
    if exponent < 0:
        raise ValueError("exponents must be non-negative integers")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return Const(_const_pow(base.value, exponent))
    if isinstance(base, Pow):
        return mk_pow(base.base, base.exponent * exponent)
    if isinstance(base, Prod):
        return mk_prod(mk_pow(f, exponent) for f in base.factors)
    if isinstance(base, Quot):
        return mk_quot(mk_pow(base.num, exponent), mk_pow(base.den, exponent))
    return Pow(base, exponent)


def _const_pow(c: int | Fraction, k: int) -> int | Fraction:
    if c not in (0, 1, -1) and k * max(
        c.numerator.bit_length(), c.denominator.bit_length()
    ) > MAX_POWER_BITS:
        power = render(Pow(Const(c), k))
        raise PowerTooLargeError(f"{power} has more than {MAX_POWER_BITS} bits")
    return c**k


def mk_quot(num: Expr, den: Expr) -> Expr:
    if isinstance(den, Const):
        if den.value == 0:
            # keep the bad quotient; evaluation reports the error
            return Quot(num, den)
        return mk_prod((Const(Fraction(1, den.value)), num))
    return Quot(num, den)


def mk_neg(e: Expr) -> Expr:
    return mk_prod((MINUS_ONE, e))


def mk_func(name: str, arg: Expr) -> Expr:
    if arg == ZERO:
        if name == "sin":
            return ZERO
        return ONE  # cos(0) = exp(0) = 1
    return Func(name, arg)


def substitute(e: Expr, values: dict) -> Expr:
    """Rebuild e through the smart constructors, with every variable whose
    index is a key of ``values`` replaced by its (simplified) value."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return values.get(e.index, e)
    if isinstance(e, Sum):
        return mk_sum(substitute(t, values) for t in e.terms)
    if isinstance(e, Prod):
        return mk_prod(substitute(f, values) for f in e.factors)
    if isinstance(e, Quot):
        return mk_quot(substitute(e.num, values), substitute(e.den, values))
    if isinstance(e, Pow):
        return mk_pow(substitute(e.base, values), e.exponent)
    if isinstance(e, Func):
        return mk_func(e.name, substitute(e.arg, values))
    raise TypeError(f"not an Expr: {e!r}")


def simplify(e: Expr) -> Expr:
    """Rule-based normal form: flat sorted sums/products, merged like
    terms and repeated factors, folded constants, sin/cos/exp folded at 0.
    Idempotent by construction (smart constructors are fixed points)."""
    return substitute(e, {})


# ---------------------------------------------------------------------------
# calculus and evaluation

def differentiate(e: Expr, v: Var | int) -> Expr:
    """Exact partial derivative with respect to t (index 0) or x_i."""
    idx = v.index if isinstance(v, Var) else int(v)
    return _diff(simplify(e), idx)


def _diff(e: Expr, idx: int) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == idx else ZERO
    if isinstance(e, Sum):
        return mk_sum(_diff(t, idx) for t in e.terms)
    if isinstance(e, Prod):
        terms = []
        for i, f in enumerate(e.factors):
            df = _diff(f, idx)
            if df == ZERO:
                continue
            rest = e.factors[:i] + e.factors[i + 1 :]
            terms.append(mk_prod(rest + (df,)))
        return mk_sum(terms)
    if isinstance(e, Quot):
        dn = _diff(e.num, idx)
        dd = _diff(e.den, idx)
        num = mk_sum((mk_prod((dn, e.den)), mk_neg(mk_prod((e.num, dd)))))
        return mk_quot(num, mk_pow(e.den, 2))
    if isinstance(e, Pow):
        return mk_prod(
            (Const(e.exponent), mk_pow(e.base, e.exponent - 1), _diff(e.base, idx))
        )
    if isinstance(e, Func):
        da = _diff(e.arg, idx)
        if e.name == "sin":
            outer = mk_func("cos", e.arg)
        elif e.name == "cos":
            outer = mk_neg(mk_func("sin", e.arg))
        else:
            outer = mk_func("exp", e.arg)
        return mk_prod((outer, da))
    raise TypeError(f"not an Expr: {e!r}")


def eval_at_origin(e: Expr) -> int | Fraction:
    """Exact value at t = 0, x = 0.

    Transcendental functions are only defined here at argument 0
    (sin 0 = 0, cos 0 = exp 0 = 1); anything else raises, as does a
    vanishing denominator.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return 0
    if isinstance(e, Sum):
        return sum(eval_at_origin(t) for t in e.terms)
    if isinstance(e, Prod):
        acc = 1
        for f in e.factors:
            acc *= eval_at_origin(f)
        return acc
    if isinstance(e, Quot):
        den = eval_at_origin(e.den)
        if den == 0:
            raise DivisionByZeroError("division by zero at the origin")
        return Fraction(eval_at_origin(e.num), den)  # exact, also for two ints
    if isinstance(e, Pow):
        return _const_pow(eval_at_origin(e.base), e.exponent)
    if isinstance(e, Func):
        v = eval_at_origin(e.arg)
        if v != 0:
            raise NonzeroTranscendentalError(
                f"{e.name}({exact_str(v)}) has no exact rational value"
            )
        return 0 if e.name == "sin" else 1
    raise TypeError(f"not an Expr: {e!r}")


def variables(e: Expr) -> set[int]:
    """Indices of all variables occurring in the expression."""
    if isinstance(e, Const):
        return set()
    if isinstance(e, Var):
        return {e.index}
    if isinstance(e, Sum):
        out = set()
        for t in e.terms:
            out |= variables(t)
        return out
    if isinstance(e, Prod):
        out = set()
        for f in e.factors:
            out |= variables(f)
        return out
    if isinstance(e, Quot):
        return variables(e.num) | variables(e.den)
    if isinstance(e, Pow):
        return variables(e.base)
    if isinstance(e, Func):
        return variables(e.arg)
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# parsing

_WS = " \t\r\n"
_DIGITS = frozenset("0123456789")  # str.isdigit also takes non-ASCII digits


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0
        # the nesting level here, and the deepest level of the current chain
        self.depth = self.peak = 0

    def error(self, message: str, pos: int | None = None):
        raise ExprSyntaxError(message, self.pos if pos is None else pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in _WS:
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def check_depth(self, pos: int):
        self.peak = max(self.peak, self.depth)
        if self.peak > MAX_DEPTH:
            self.error(f"nesting deeper than {MAX_DEPTH} levels", pos)

    def parse(self) -> Expr:
        e = self.parse_sum()
        if self.peek():
            self.error(f"unexpected character {self.peek()!r}")
        return e

    def parse_sum(self) -> Expr:
        terms = [self.parse_term()]
        while self.peek() in ("+", "-"):
            sign = self.take()
            term = self.parse_term()
            terms.append(mk_neg(term) if sign == "-" else term)
        return mk_sum(terms)

    def parse_term(self) -> Expr:
        if self.peek() == "-":
            self.take()
            return mk_neg(self.parse_chain())
        return self.parse_chain()

    def parse_chain(self) -> Expr:
        depth, outer_peak = self.depth, self.peak
        self.peak = depth
        cur = self.parse_postfix()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                cur = mk_prod((cur, self.parse_postfix()))
                continue
            # a quotient nests the chain so far, and the rest, one level deeper
            self.depth += 1
            self.peak += 1
            self.check_depth(self.pos - 1)
            cur = mk_quot(cur, self.parse_postfix())
        self.depth, self.peak = depth, max(outer_peak, self.peak)
        return cur

    def parse_postfix(self) -> Expr:
        e = self.parse_atom()
        while self.peek() == "^":
            caret = self.pos
            self.take()
            try:
                e = mk_pow(e, self.parse_exponent())
            except PowerTooLargeError as err:
                self.error(str(err), caret)
        return e

    def digits(self) -> int:
        """Moves past the digits at the position; returns how many."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        return self.pos - start

    def parse_exponent(self) -> int:
        self.skip_ws()
        start = self.pos
        if not self.digits():
            self.error("'^' requires a non-negative integer literal", start)
        if self.text.startswith(".", self.pos):
            self.error("'^' requires an integer exponent, not a decimal", start)
        return exact_number(self.text[start : self.pos]).numerator

    def parse_atom(self) -> Expr:
        c = self.peek()
        start = self.pos
        if c == "(":
            self.take()
            return self.parse_group(start)
        if c in _DIGITS:
            return self.parse_number()
        if c.isalpha():
            return self.parse_name()
        if c == "":
            self.error("unexpected end of input", start)
        self.error(f"unexpected character {c!r}", start)

    def parse_group(self, start: int) -> Expr:
        """The sum after an opening parenthesis, one level deeper."""
        self.depth += 1
        self.check_depth(start)
        e = self.parse_sum()
        if self.peek() != ")":
            self.error("expected ')'")
        self.take()
        self.depth -= 1
        return e

    def parse_number(self) -> Const:
        self.skip_ws()
        start = self.pos
        self.digits()
        if self.text.startswith(".", self.pos):
            self.pos += 1
            if not self.digits():
                self.error("expected digits after decimal point", self.pos)
        return Const(exact_number(self.text[start : self.pos]))

    def parse_name(self) -> Expr:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        name = self.text[start : self.pos]
        if name in FUNCTIONS:
            if self.peek() != "(":
                self.error(f"{name} requires a parenthesized argument", start)
            self.take()
            return mk_func(name, self.parse_group(start))
        if name == "t":
            return T
        if name.startswith("x") and name.isascii() and name[1:].isdigit():
            idx = exact_number(name[1:]).numerator
            if idx < 1 or idx > self.n:
                self.error(f"variable {name} out of range (n={self.n})", start)
            return Var(idx)
        self.error(f"unknown identifier {name!r}", start)


def parse_expr(text: str, n: int = 10) -> Expr:
    """Parse the ASCII grammar: +, -, *, /, ^k, parentheses, sin/cos/exp,
    integer/rational/decimal literals, variables t and x1..xn.  There is
    no implicit multiplication.  The tree is built by the smart
    constructors, so it is its own ``simplify``."""
    return _Parser(text, n).parse()


# ---------------------------------------------------------------------------
# rendering; parse_expr(render(e)) == e for every simplified e

def _is_pow_atom(e: Expr) -> bool:
    if isinstance(e, (Var, Func)):
        return True
    return isinstance(e, Const) and e.value.denominator == 1 and e.value >= 0


def render(e: Expr) -> str:
    if isinstance(e, Const):
        return exact_str(e.value)
    if isinstance(e, Var):
        return "t" if e.index == 0 else f"x{e.index}"
    if isinstance(e, Func):
        return f"{e.name}({render(e.arg)})"
    if isinstance(e, Pow):
        base = render(e.base)
        if not _is_pow_atom(e.base):
            base = f"({base})"
        return f"{base}^{exact_str(e.exponent)}"
    if isinstance(e, Prod):
        c, factors = 1, e.factors
        if isinstance(factors[0], Const):
            c, factors = factors[0].value, factors[1:]
        if c == -1 and len(factors) == 1 and isinstance(factors[0], Quot):
            return "-" + render(factors[0])
        body = "*".join(
            f"({render(f)})" if isinstance(f, (Sum, Quot)) else render(f)
            for f in factors
        )
        return scaled(c, body, "*")
    if isinstance(e, Quot):
        num = render(e.num)
        if isinstance(e.num, Sum) or num.startswith("-"):
            num = f"({num})"
        den = render(e.den)
        if not (_is_pow_atom(e.den) or isinstance(e.den, Pow)):
            den = f"({den})"
        return f"{num}/{den}"
    if isinstance(e, Sum):
        return signed_sum([render(t) for t in e.terms])
    raise TypeError(f"not an Expr: {e!r}")


def expr_to_str(e: Expr) -> str:
    """Canonical text of the simplified expression."""
    return render(simplify(e))
