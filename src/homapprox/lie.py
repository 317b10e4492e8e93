"""Graded basis of the free Lie algebra inside the free algebra.

Candidates at order m and length k are the right-normed brackets
[xi_{m1},[...[xi_{m_{k-1}},xi_{m_k}]...]] of the words of that block,
scanned in canonical order; a candidate is kept iff its expansion is
linearly independent of the kept ones.  Each order is computed once per
process and kept in memory; nothing is read from or written to disk.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import groupby

from .algebra import AlgElem, Word, concat, enumerate_basis
from .linalg import IntEchelon


class LieBasisElement(namedtuple("LieBasisElement", "word expansion order index")):
    # index: 1-based position in the assembled basis
    __slots__ = ()


@lru_cache(maxsize=None)
def expand_right_normed(w: Word) -> AlgElem:
    """Image of the right-normed bracket of w in the free algebra."""
    w = tuple(w)
    if not w:
        raise ValueError("empty bracket word")
    if len(w) == 1:
        return AlgElem.from_word(w)
    head = AlgElem.from_word(w[:1])
    rest = expand_right_normed(w[1:])
    return concat(head, rest) - concat(rest, head)


def _mobius(d: int) -> int:
    if d == 1:
        return 1
    out = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            out = -out
        else:
            p += 1
    if d > 1:
        out = -out
    return out


def witt_dimension(m: int) -> int:
    """Dimension of the order-m graded piece of the free Lie algebra on
    countably many letters with order(xi_j) = j + 1."""
    if m < 1:
        raise ValueError("order must be >= 1")
    if m == 1:
        return 1
    total = 0
    for d in range(1, m + 1):
        if m % d == 0:
            total += _mobius(d) * 2 ** (m // d)
    return total // m


@lru_cache(maxsize=None)
def _kept_words(m: int) -> tuple:
    """The words of order m, in canonical order, whose right-normed
    expansions are independent of those of the words kept before them.
    Expansions of different lengths share no word, so each length block
    of `enumerate_basis(m)` is reduced on its own, over its own columns."""
    kept = []
    for _, block in groupby(enumerate_basis(m), len):
        index = {w: j for j, w in enumerate(block)}  # word -> column
        echelon = IntEchelon(len(index))
        for w in index:
            vec = [0] * len(index)
            for word, c in expand_right_normed(w).terms.items():
                assert c.denominator == 1
                vec[index[word]] = c.numerator
            if echelon.add(vec):
                kept.append(w)
    expected = witt_dimension(m)
    if len(kept) != expected:
        raise AssertionError(
            f"order {m}: kept {len(kept)} brackets, Witt formula gives {expected}"
        )
    return tuple(kept)


def build_lie_basis(N: int) -> list:
    """Basis elements of all orders <= N, order-ascending, 1-indexed."""
    if N < 1:
        raise ValueError("N must be >= 1")
    out = []
    idx = 1
    for m in range(1, N + 1):
        for w in _kept_words(m):
            out.append(
                LieBasisElement(
                    word=w,
                    expansion=expand_right_normed(w),
                    order=m,
                    index=idx,
                )
            )
            idx += 1
    return out
