"""Free associative algebra on the letters xi_0, xi_1, xi_2, ...

A word (m1, ..., mk) stands for the basis element xi_{m1 ... mk}; its
order is m1 + ... + mk + k and its length is k.  Elements are finite
rational combinations of words, stored sparsely; every operation
that can cancel terms builds its result through `collect`, which sums
the coefficients of equal words and drops the zeros once, at the end.
Besides the concatenation product the module provides the shuffle
product, the derivation phi used by the autonomous construction and the
one enumerator of exponent tuples: words, shuffle monomials, codimensions.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain

Word = tuple  # tuple[int, ...]


def word_order(w: Word) -> int:
    return sum(w) + len(w)


def word_sort_key(w: Word):
    # canonical order: by order, then length, then lexicographic
    return (word_order(w), len(w), w)


def weighted_multi_indices(weights, degree: int) -> list:
    """All exponent tuples q >= 0 with sum q_j * weights_j = degree,
    lexicographically ascending."""
    out = [((), degree)]  # (leading exponents, degree left for the rest)
    for w in weights[:-1]:
        out = [(q + (k,), r - k * w) for q, r in out for k in range(r // w + 1)]
    if weights:  # the last exponent takes the degree left, where it divides
        out = [(q + (r // weights[-1],), 0) for q, r in out if r % weights[-1] == 0]
    return [q for q, r in out if r == 0]


@lru_cache(maxsize=None)
def enumerate_basis(m: int) -> tuple:
    """All words of order m, length-ascending then lexicographic: for each
    length k, the words (m1, ..., mk) with m1 + ... + mk = m - k."""
    if m < 1:
        raise ValueError("order must be >= 1")
    return tuple(
        chain.from_iterable(
            weighted_multi_indices((1,) * k, m - k) for k in range(1, m + 1)
        )
    )


def signed_sum(terms: list) -> str:
    """Rendered terms joined by " + ", a leading "-" folded into " - "."""
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def exact_str(c) -> str:
    """str(c) for an int or Fraction c, with any number of digits."""
    try:
        return str(c)
    except ValueError:  # past Python's int-to-string digit limit, which Decimal lacks
        from decimal import Decimal  # only here, off the start-up path

        c = Fraction(c)
        num = str(Decimal(c.numerator))
        return num if c.denominator == 1 else f"{num}/{Decimal(c.denominator)}"


def exact_number(digits: str) -> Fraction:
    """Exact value of ASCII digits with an optional sign and decimal part, of
    any length."""
    try:
        return Fraction(digits)
    except ValueError:
        from decimal import Decimal

        return Fraction(Decimal(digits))


def scaled(c: Fraction, body: str, times: str) -> str:
    """The term c*body: the body alone for c = 1, -body for c = -1, the
    coefficient alone for an empty body, else c `times` body."""
    if not body:
        return exact_str(c)
    if c == 1:
        return body
    if c == -1:
        return "-" + body
    return f"{exact_str(c)}{times}{body}"


class AlgElem:
    """Sparse element of the free algebra (plus an optional scalar part,
    keyed by the empty word, such as a shuffle power's constant 1 or the
    prefix of a length-1 word)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        # zeros are dropped after the Fraction conversion
        pairs = ((tuple(w), Fraction(c)) for w, c in (terms or {}).items())
        self.terms = collect(pairs).terms

    @classmethod
    def from_word(cls, w: Word, coeff=1) -> "AlgElem":
        return cls({tuple(w): Fraction(coeff)})

    @classmethod
    def scalar(cls, c) -> "AlgElem":
        return cls({(): Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_items(self) -> list:
        return sorted(self.terms.items(), key=lambda p: word_sort_key(p[0]))

    def __add__(self, other: "AlgElem") -> "AlgElem":
        return collect(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "AlgElem") -> "AlgElem":
        return self + (-other)

    def __neg__(self) -> "AlgElem":
        r = AlgElem()
        r.terms = {w: -c for w, c in self.terms.items()}
        return r

    def scale(self, c) -> "AlgElem":
        c = Fraction(c)
        r = AlgElem()
        if c != 0:
            r.terms = {w: c * cw for w, cw in self.terms.items()}
        return r

    def __rmul__(self, c) -> "AlgElem":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgElem) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"AlgElem({self})"

    def render(self, name, times: str) -> str:
        """Signed sum of the terms in canonical order; `name` renders a
        nonempty word and `times` joins a coefficient to it."""
        return signed_sum(
            [scaled(c, name(w) if w else "", times) for w, c in self.sorted_items()]
        )

    def __str__(self) -> str:
        return self.render(lambda w: "xi_{" + " ".join(map(str, w)) + "}", "*")

    def to_json(self) -> list:
        return [
            {"word": list(w), "coeff": exact_str(c)} for w, c in self.sorted_items()
        ]


def collect(pairs) -> AlgElem:
    """The element sum c*w over (word, coefficient) pairs: coefficients of
    equal words are summed, and the zero sums dropped once, at the end."""
    sums: dict = {}
    for w, c in pairs:
        sums[w] = sums.get(w, 0) + c
    r = AlgElem.__new__(AlgElem)
    r.terms = {w: c for w, c in sums.items() if c}
    return r


def concat(e1: AlgElem, e2: AlgElem) -> AlgElem:
    """Concatenation product; orders add."""
    return collect(
        (w1 + w2, c1 * c2)
        for w1, c1 in e1.terms.items()
        for w2, c2 in e2.terms.items()
    )


@lru_cache(maxsize=None)
def _shuffle_words(w1: Word, w2: Word) -> tuple:
    """Shuffle of two words as ((word, integer multiplicity), ...)."""
    if not w1:
        return ((w2, 1),)
    if not w2:
        return ((w1, 1),)
    acc: dict = {}
    for w, c in _shuffle_words(w1[1:], w2):
        key = (w1[0],) + w
        acc[key] = acc.get(key, 0) + c
    for w, c in _shuffle_words(w1, w2[1:]):
        key = (w2[0],) + w
        acc[key] = acc.get(key, 0) + c
    return tuple(sorted(acc.items()))


def shuffle(e1: AlgElem, e2: AlgElem) -> AlgElem:
    """Shuffle product; bilinear over the word recursion
    u xi_a sh v xi_b = (u sh v xi_b) xi_a + (u xi_a sh v) xi_b."""
    def pairs():
        for w1, c1 in e1.terms.items():
            for w2, c2 in e2.terms.items():
                c = c1 * c2
                for w, mult in _shuffle_words(min(w1, w2), max(w1, w2)):
                    yield w, c * mult

    return collect(pairs())


def phi(e: AlgElem) -> AlgElem:
    """Derivation with phi(xi_0) = 0 and phi(xi_m) = m xi_{m-1}."""
    return collect(
        (w[:i] + (mi - 1,) + w[i + 1 :], mi * c)
        for w, c in e.terms.items()
        for i, mi in enumerate(w)
        if mi
    )
