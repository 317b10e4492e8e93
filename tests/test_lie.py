import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from homapprox import lie
from homapprox.algebra import AlgElem, enumerate_basis, word_order
from homapprox.lie import build_lie_basis, expand_right_normed, witt_dimension
from dense import vectorize


def xi(*letters):
    return AlgElem.from_word(tuple(letters))


def rank_of(vectors):
    rows = [[Fraction(v) for v in vec] for vec in vectors]
    rank, col = 0, 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / lead
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_expand_single_letters():
    assert expand_right_normed((0,)) == xi(0)
    assert expand_right_normed((3,)) == xi(3)


def test_expand_bracket_examples():
    assert expand_right_normed((0, 1)) == xi(0, 1) - xi(1, 0)
    assert expand_right_normed((0, 2)) == xi(0, 2) - xi(2, 0)
    assert expand_right_normed((0, 1, 0)) == 2 * xi(0, 1, 0) - xi(0, 0, 1) - xi(1, 0, 0)


def test_expand_antisymmetry():
    for a in range(3):
        for b in range(3):
            s = expand_right_normed((a, b)) + expand_right_normed((b, a))
            assert s.is_zero()


def test_expand_homogeneous():
    for w in [(0, 1), (1, 2, 0), (0, 0, 1, 2), (2, 0, 3)]:
        e = expand_right_normed(w)
        assert {word_order(v) for v in e.terms} == {word_order(w)}


def test_expand_degenerate_brackets_vanish():
    # a repeated letter in the innermost bracket kills the whole tower
    assert expand_right_normed((1, 1)).is_zero()
    assert expand_right_normed((0, 0, 1, 1)).is_zero()


def test_witt_dimensions():
    assert [witt_dimension(m) for m in range(1, 11)] == [
        1, 1, 2, 3, 6, 9, 18, 30, 56, 99,
    ]


def test_basis_matches_published_low_orders():
    basis = build_lie_basis(4)
    got = [(g.index, g.order, g.expansion) for g in basis]
    assert got[:6] == [
        (1, 1, xi(0)),
        (2, 2, xi(1)),
        (3, 3, xi(2)),
        (4, 3, xi(0, 1) - xi(1, 0)),
        (5, 4, xi(3)),
        (6, 4, xi(0, 2) - xi(2, 0)),
    ]
    # the third order-4 element spans the same line as [xi0,[xi1,xi0]]
    published = 2 * xi(0, 1, 0) - xi(0, 0, 1) - xi(1, 0, 0)
    assert basis[6].expansion == -published
    assert basis[6].order == 4
    assert len(basis) == 7


def test_basis_counts_and_independence():
    basis = build_lie_basis(6)
    by_order = {}
    for g in basis:
        by_order.setdefault(g.order, []).append(g)
    for m in range(1, 7):
        elems = by_order[m]
        assert len(elems) == witt_dimension(m)
        for g in elems:
            assert {word_order(v) for v in g.expansion.terms} == {m}
            assert all(c.denominator == 1 for _, c in g.expansion.terms.items())
        vecs = [vectorize(g.expansion, m) for g in elems]
        assert rank_of(vecs) == len(elems)
    assert [g.index for g in basis] == list(range(1, len(basis) + 1))


def test_each_order_is_computed_once():
    lie._kept_words.cache_clear()
    first = build_lie_basis(5)
    deeper = build_lie_basis(6)
    assert lie._kept_words.cache_info().misses == 6
    assert [g.word for g in deeper[: len(first)]] == [g.word for g in first]


def test_words_are_valid_bracketings():
    # every stored word re-expands to the stored element
    for g in build_lie_basis(5):
        assert expand_right_normed(g.word) == g.expansion


def test_witt_dimension_rejects_bad_input():
    with pytest.raises(ValueError):
        witt_dimension(0)


# the kept words of each order m <= 13 (1376 in all), as the scan over
# whole orders chose them; a per-letter-multiset basis must keep the same
KEPT_WORDS = Path(__file__).with_name("lie_kept_words.json")


def test_kept_words_match_the_pinned_scan():
    pinned = json.loads(KEPT_WORDS.read_text())
    assert sum(map(len, pinned.values())) == 1376
    for m in range(1, 14):
        assert lie._kept_words(m) == tuple(map(tuple, pinned[str(m)])), m


def mobius(d: int) -> int:
    out, p = 1, 2
    while d > 1:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            out = -out
        p += 1
    return out


def multigraded_witt(counts) -> int:
    """(1/|a|) sum over d | gcd(a) of mu(d) (|a|/d)! / prod (a_i/d)!, the
    dimension of the free Lie algebra's piece with letter multiplicities a
    (Reutenauer, Free Lie Algebras, 1993)."""
    size = sum(counts)
    total = 0
    for d in range(1, math.gcd(*counts) + 1):
        if all(c % d == 0 for c in counts):
            ways = math.factorial(size // d)
            for c in counts:
                ways //= math.factorial(c // d)
            total += mobius(d) * ways
    assert total % size == 0
    return total // size


def test_kept_words_per_letter_multiset_match_multigraded_witt():
    checked = 0
    for m in range(1, 13):
        kept = Counter(tuple(sorted(w)) for w in lie._kept_words(m))
        multisets = {tuple(sorted(w)) for w in enumerate_basis(m)}
        for letters in multisets:
            counts = list(Counter(letters).values())
            assert kept[letters] == multigraded_witt(counts), letters
        assert set(kept) <= multisets
        checked += len(multisets)
    assert checked == 271  # the partitions of 1..12
