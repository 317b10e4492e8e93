import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from homapprox.algebra import (
    AlgElem,
    concat,
    enumerate_basis,
    phi,
    shuffle,
    word_order,
    word_sort_key,
)
from dense import basis_index, shuffle_monomial, shuffle_power, vectorize


def xi(*letters):
    return AlgElem.from_word(tuple(letters))


def orders(e):
    return {word_order(w) for w in e.terms}


# independent oracle: a shuffle is the multiset of positional interleavings
def shuffle_oracle(w1, w2):
    total = len(w1) + len(w2)
    counts = Counter()
    for slots in itertools.combinations(range(total), len(w1)):
        out = [None] * total
        for pos, letter in zip(slots, w1):
            out[pos] = letter
        it = iter(w2)
        for i in range(total):
            if out[i] is None:
                out[i] = next(it)
        counts[tuple(out)] += 1
    return AlgElem({w: Fraction(m) for w, m in counts.items()})


def random_word(rng, max_len=4, max_letter=3):
    return tuple(rng.randrange(max_letter + 1) for _ in range(rng.randrange(1, max_len + 1)))


# ---------------------------------------------------------------------------
# basis enumeration

def test_basis_low_orders():
    assert enumerate_basis(1) == ((0,),)
    assert enumerate_basis(2) == ((1,), (0, 0))
    assert enumerate_basis(3) == ((2,), (0, 1), (1, 0), (0, 0, 0))
    assert enumerate_basis(4) == (
        (3,),
        (0, 2),
        (1, 1),
        (2, 0),
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
        (0, 0, 0, 0),
    )


def test_basis_counts_and_order():
    for m in range(1, 13):
        words = enumerate_basis(m)
        assert len(words) == 2 ** (m - 1)
        assert all(word_order(w) == m for w in words)
        keys = [word_sort_key(w) for w in words]
        assert keys == sorted(keys)
        assert len(set(words)) == len(words)
    idx = basis_index(5)
    for i, w in enumerate(enumerate_basis(5)):
        assert idx[w] == i


def test_word_order():
    assert word_order((0,)) == 1
    assert word_order((1,)) == 2
    assert word_order((0, 1, 0)) == 4
    assert word_order(()) == 0


# ---------------------------------------------------------------------------
# element arithmetic

def test_elem_arithmetic_and_vectorize():
    e = xi(0, 1) - 2 * xi(1, 0)
    assert e.terms.get((0, 1), 0) == 1
    assert e.terms.get((1, 0), 0) == -2
    assert e.terms.get((2,), 0) == 0
    assert (e - e).is_zero()
    assert orders(e) == {3}
    v = vectorize(e, 3)
    assert v == [0, 1, -2, 0]
    mixed = xi(0) + xi(1)
    assert orders(mixed) == {1, 2}
    with pytest.raises(ValueError):
        vectorize(mixed, 3)


def test_concat_examples():
    assert concat(xi(0), xi(1)) == xi(0, 1)
    e = concat(xi(0) + xi(1), xi(0))
    assert e == xi(0, 0) + xi(1, 0)
    assert concat(AlgElem.scalar(3), xi(2)) == 3 * xi(2)
    assert concat(xi(0), xi(1, 0)) == xi(0, 1, 0)


def test_json_roundtrip():
    e = Fraction(2, 5) * xi(0, 1) - xi(2)
    data = json.loads(json.dumps(e.to_json()))
    assert data == [{"word": [2], "coeff": "-1"}, {"word": [0, 1], "coeff": "2/5"}]
    assert AlgElem({tuple(d["word"]): Fraction(d["coeff"]) for d in data}) == e


# ---------------------------------------------------------------------------
# shuffle product

def test_shuffle_frozen_examples():
    assert shuffle(xi(0), xi(0)) == 2 * xi(0, 0)
    assert shuffle(xi(0), xi(0, 1)) == 2 * xi(0, 0, 1) + xi(0, 1, 0)
    assert shuffle(xi(1), xi(0)) == xi(1, 0) + xi(0, 1)
    # scalars act multiplicatively
    assert shuffle(AlgElem.scalar(2), xi(3)) == 2 * xi(3)


def test_shuffle_matches_interleaving_oracle():
    rng = random.Random(2024)
    for _ in range(60):
        w1, w2 = random_word(rng), random_word(rng)
        assert shuffle(
            AlgElem.from_word(w1), AlgElem.from_word(w2)
        ) == shuffle_oracle(w1, w2), (w1, w2)


def test_shuffle_commutative_associative_bilinear():
    rng = random.Random(77)
    for _ in range(20):
        a = AlgElem.from_word(random_word(rng, 3))
        b = AlgElem.from_word(random_word(rng, 3))
        c = AlgElem.from_word(random_word(rng, 2))
        assert shuffle(a, b) == shuffle(b, a)
        assert shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c))
        assert shuffle(a + b, c) == shuffle(a, c) + shuffle(b, c)
        assert shuffle(a.scale(Fraction(3, 7)), c) == shuffle(a, c).scale(
            Fraction(3, 7)
        )


def test_order_additivity():
    rng = random.Random(5)
    for _ in range(25):
        w1, w2 = random_word(rng), random_word(rng)
        target = word_order(w1) + word_order(w2)
        sh = shuffle(AlgElem.from_word(w1), AlgElem.from_word(w2))
        assert orders(sh) == {target}
        assert orders(concat(AlgElem.from_word(w1), AlgElem.from_word(w2))) == {target}


def test_shuffle_power():
    assert shuffle_power(xi(0), 2) == 2 * xi(0, 0)
    assert shuffle_power(xi(0), 3) == 6 * xi(0, 0, 0)
    assert shuffle_power(xi(1), 0) == AlgElem.scalar(1)
    e = xi(0) + xi(1)
    assert shuffle_power(e, 2) == shuffle(e, e)


def test_shuffle_monomial():
    # a monomial in several generators is the shuffle of their powers
    assert shuffle_monomial([xi(0)], (2,)) == 2 * xi(0, 0)
    assert shuffle_monomial([xi(0)], (0,)) == AlgElem.scalar(1)
    assert shuffle_monomial([xi(0), xi(1)], (1, 1)) == xi(0, 1) + xi(1, 0)


# ---------------------------------------------------------------------------
# the derivation phi

def test_phi_examples():
    assert phi(xi(3)) == 3 * xi(2)
    assert phi(xi(0)).is_zero()
    assert phi(xi(2, 1)) == 2 * xi(1, 1) + xi(2, 0)
    assert phi(xi(0, 1, 0)) == xi(0, 0, 0)


def test_phi_is_shuffle_derivation():
    rng = random.Random(11)
    for _ in range(30):
        a = AlgElem.from_word(random_word(rng, 3))
        b = AlgElem.from_word(random_word(rng, 3))
        left = phi(shuffle(a, b))
        right = shuffle(phi(a), b) + shuffle(a, phi(b))
        assert left == right


def test_phi_lowers_order_by_one():
    rng = random.Random(13)
    for _ in range(25):
        w = random_word(rng)
        img = phi(AlgElem.from_word(w))
        if not img.is_zero():
            assert orders(img) == {word_order(w) - 1}
