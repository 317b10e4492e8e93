"""Properties of the whole pipeline on random accessible polynomial
systems: the output's own series reproduces the projections, the
non-autonomous approximation is a fixed point of `approximate`, and the
dense graded blocks of the ideal have the codimension the theory gives."""
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homapprox.algebra import AlgElem, concat, enumerate_basis, vectorize
from homapprox.approx import (
    NotAccessibleError,
    approximate,
    check_self_consistency,
    weighted_multi_indices,
)
from homapprox.series import system_from_strings
from reparse import reparsed
from rowspace import row_space_canonical


def monomials(n, need_state):
    """'c*t^k*x_i*x_j' with k <= 1 and at most two state factors; with
    need_state at least one, so a(t, 0) = 0."""
    return st.builds(
        lambda c, k, xs: "*".join([f"({c})", *["t"] * k, *(f"x{i}" for i in xs)]),
        st.sampled_from([-2, -1, 1, 2]),
        st.integers(0, 1),
        st.lists(st.integers(1, n), min_size=int(need_state), max_size=2),
    )


def components(n, need_state):
    terms = st.lists(monomials(n, need_state), min_size=int(not need_state), max_size=2)
    return terms.map(lambda ts: " + ".join(ts) or "0")


@st.composite
def systems(draw):
    n = draw(st.integers(1, 3))
    a = [draw(components(n, True)) for _ in range(n)]
    b = [draw(components(n, False)) for _ in range(n)]
    return system_from_strings(n, a, b), draw(st.integers(n, 6))


@settings(max_examples=60, deadline=None)
@given(systems())
def test_random_accessible_systems(case):
    system, max_order = case
    try:
        res = approximate(system, max_order)
    except NotAccessibleError:
        assume(False)
    check_self_consistency(res)
    for m in range(1, max(res.weights) + 1):
        rows = [
            vectorize(concat(d.elem, AlgElem.from_word(s)), m)
            for d in res.core.dees
            if d.order <= m
            for s in (enumerate_basis(m - d.order) if d.order < m else [()])
        ]
        codim = len(enumerate_basis(m)) - len(row_space_canonical(rows))
        assert codim == len(weighted_multi_indices(res.weights, m)), m
        if m in res.blocks:
            assert len(res.blocks[m].complement) == codim, m
    again = approximate(reparsed(res.nonautonomous), max_order)
    assert again.weights == res.weights
    assert again.nonautonomous.a == res.nonautonomous.a
    assert again.nonautonomous.b == res.nonautonomous.b
