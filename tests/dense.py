"""Dense coefficient vectors over all 2^(m-1) words of an order m, for
tests only, and the shuffle polynomial solve on them that
`approx.express_as_shuffle_poly` did before it solved over the words that
occur: a reference that must give the same answers.  Its shuffle monomials
are built from scratch, as shuffles of shuffle powers, so they are also the
reference for `approx.ShuffleMonomials`."""
from fractions import Fraction
from functools import lru_cache, reduce

from homapprox.algebra import (
    AlgElem,
    enumerate_basis,
    shuffle,
    weighted_multi_indices,
)
from homapprox.approx import NotRepresentableError
from homapprox.linalg import solve_particular


def shuffle_power(e: AlgElem, q: int) -> AlgElem:
    """q-fold shuffle power; the 0th power is the scalar 1."""
    if q < 0:
        raise ValueError("shuffle powers need q >= 0")
    acc = AlgElem.scalar(1)
    for _ in range(q):
        acc = shuffle(acc, e)
    return acc


def shuffle_monomial(generators: list, q) -> AlgElem:
    """The shuffle of the generators' powers q, built from scratch."""
    return reduce(shuffle, map(shuffle_power, generators, q), AlgElem.scalar(1))


@lru_cache(maxsize=None)
def basis_index(m: int) -> dict:
    return {w: i for i, w in enumerate(enumerate_basis(m))}


def vectorize(e: AlgElem, m: int) -> list:
    """Coefficient vector of a homogeneous element over enumerate_basis(m)."""
    idx = basis_index(m)
    vec = [Fraction(0)] * len(idx)
    for w, c in e.terms.items():
        if w not in idx:
            raise ValueError(f"word {w} is not of order {m}")
        vec[idx[w]] = c
    return vec


def dense_shuffle_poly(target: AlgElem, generators: list, weights, degree: int) -> dict:
    """{q: c} with target = sum c * (shuffle monomial q of the generators),
    solved over every word of the order; NotRepresentableError when there
    is none."""
    weights = tuple(weights)
    if degree == 0:
        # only constants live in degree 0
        if any(w != () for w in target.terms):
            raise NotRepresentableError(target, 0)
        c = target.terms.get((), 0)
        return {(0,) * len(weights): c} if c != 0 else {}
    qs = weighted_multi_indices(weights, degree)
    if not qs:
        if target.is_zero():
            return {}
        raise NotRepresentableError(target, degree)
    columns = [vectorize(shuffle_monomial(generators, q), degree) for q in qs]
    sol = solve_particular(columns, vectorize(target, degree))
    if sol is None:
        raise NotRepresentableError(target, degree)
    return {q: c for q, c in zip(qs, sol) if c != 0}
