"""Properties of the whole pipeline on random accessible polynomial
systems: the output's own series reproduces the projections, the
non-autonomous approximation is a fixed point of `approximate`, the
dense graded blocks of the ideal have the codimension the theory gives,
the autonomous system equals the one of the old psi route, the shuffle
polynomial solves agree with a dense reference, and scaling the control
changes only what the theory says it scales."""
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from homapprox.algebra import AlgElem, concat, enumerate_basis, phi
from homapprox.approx import (
    NotAccessibleError,
    NotRepresentableError,
    approximate,
    check_self_consistency,
    express_as_shuffle_poly,
    weighted_multi_indices,
)
from homapprox.series import system_from_strings
from dense import dense_shuffle_poly, vectorize
from reference_autonomous import psi, reference_autonomous
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
def system_strings(draw):
    """(n, a, b, max_order) with the components as strings."""
    n = draw(st.integers(1, 3))
    a = [draw(components(n, True)) for _ in range(n)]
    b = [draw(components(n, False)) for _ in range(n)]
    return n, a, b, draw(st.integers(n, 6))


def systems():
    return system_strings().map(lambda s: (system_from_strings(*s[:3]), s[3]))


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


def xi(*letters):
    return AlgElem.from_word(tuple(letters))


def test_psi_examples():
    assert psi(xi(1, 0)) == xi(1)
    assert psi(xi(0)) == AlgElem.scalar(1)
    assert psi(xi(0, 1)).is_zero()
    assert psi(xi(2)).is_zero()
    assert psi(xi(0, 1, 0) - 2 * xi(0, 0)) == xi(0, 1) - 2 * xi(0)


@settings(max_examples=60, deadline=None)
@given(systems())
# weights (1, 2): l~_1 = xi_0, whose prefix is the empty word
@example((system_from_strings(2, ["0", "x1"], ["1", "0"]), 4))
# phi(l~_1) is the witness
@example((system_from_strings(1, ["0"], ["t"]), 3))
def test_autonomous_matches_the_psi_route(case):
    system, max_order = case
    try:
        res = approximate(system, max_order)
    except NotAccessibleError:
        assume(False)
    assert res.autonomous == reference_autonomous(res.core, res.projected)


def _shuffle_poly_problems(res):
    """What the reconstructions solve for each l~_i: each of its last-letter
    tails, and its phi image, over l~_1..l~_{i-1}."""
    for i, (w_i, ltilde) in enumerate(zip(res.weights, res.projected)):
        tails: dict = {}
        for word, c in ltilde.terms.items():
            tails.setdefault(word[-1], {})[word[:-1]] = c
        problems = [(AlgElem(y), w_i - j - 1) for j, y in tails.items()]
        for target, degree in problems + [(phi(ltilde), w_i - 1)]:
            yield target, res.projected[:i], res.weights[:i], degree


def _solved(solve, problem):
    try:
        return solve(*problem)
    except NotRepresentableError:
        return "not representable"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(systems())
# l~_2 = 1/5 xi_2 - 2/5 xi_01: a degree-0 tail, and a phi image that is not
# representable
@example((system_from_strings(3, ["0", "-x1^2", "2*x1^2*t"], ["-1", "t^2", "-x2"]), 4))
def test_shuffle_poly_solve_matches_the_dense_reference(case):
    system, max_order = case
    try:
        res = approximate(system, max_order)
    except NotAccessibleError:
        assume(False)
    for problem in _shuffle_poly_problems(res):
        got = _solved(express_as_shuffle_poly, problem)
        assert got == _solved(dense_shuffle_poly, problem), problem


def _outcome(n, a, b, max_order):
    try:
        return approximate(system_from_strings(n, a, b), max_order)
    except NotAccessibleError as err:
        return err


@settings(max_examples=80, deadline=None)
@given(system_strings())
def test_control_scaling_keeps_the_structure(case):
    # u -> c*u multiplies v(w) by c^len(w); a Lie element's words share one
    # letter multiset, so each v(g) scales as a whole and the same basis
    # elements stay independent
    n, a, b, max_order = case
    base = _outcome(n, a, b, max_order)
    for c in (Fraction(2), Fraction(-1, 3)):
        scaled = _outcome(n, a, [f"({c})*({bi})" for bi in b], max_order)
        _assert_same_structure(base, scaled, c)


def _assert_same_structure(base, scaled, c):
    assert type(scaled) is type(base)
    if isinstance(base, NotAccessibleError):
        assert (scaled.N, scaled.achieved) == (base.N, base.achieved)
        return
    assert scaled.N == base.N
    assert scaled.weights == base.weights
    assert [l.index for l in scaled.core.ell] == [l.index for l in base.core.ell]
    assert scaled.table.coeffs.keys() == base.table.coeffs.keys()
    for w, vec in base.table.coeffs.items():
        assert scaled.table.coeffs[w] == tuple(c ** len(w) * x for x in vec), w
    assert scaled.autonomous_exists() == base.autonomous_exists()
    outputs = [(scaled.nonautonomous, base.nonautonomous)]
    if base.autonomous_exists():
        outputs.append((scaled.autonomous, base.autonomous))
    else:
        assert scaled.autonomous.index == base.autonomous.index
    for got, want in outputs:
        assert [comp.keys() for comp in got.b] == [comp.keys() for comp in want.b]
