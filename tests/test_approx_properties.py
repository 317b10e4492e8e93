"""Properties of the whole pipeline on random accessible polynomial
systems: the output's own series reproduces the projections, and so does
the autonomous output's where it exists, the non-autonomous
approximation is a fixed point of `approximate`, the dense graded
blocks of the ideal have the codimension the theory gives, the
autonomous system equals the one of the old psi route, the shuffle
monomial table and the shuffle polynomial solves agree with dense
references built from scratch, scaling the control
changes only what the theory says it scales, and a polynomial change of
coordinates changes nothing."""
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from homapprox.algebra import (
    AlgElem,
    concat,
    enumerate_basis,
    phi,
    weighted_multi_indices,
)
from homapprox.approx import (
    NotAccessibleError,
    NotRepresentableError,
    ShuffleMonomials,
    approximate,
    check_self_consistency,
    express_as_shuffle_poly,
)
from homapprox.series import system_from_strings
from dense import dense_shuffle_poly, shuffle_monomial, vectorize
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
def system_strings(draw, min_n=1):
    """(n, a, b, max_order) with the components as strings."""
    n = draw(st.integers(min_n, 3))
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


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(systems())
# weights (1, 2), with an autonomous system whose b_1 = 1 comes from xi_0
@example((system_from_strings(2, ["0", "x1"], ["1", "0"]), 4))
def test_autonomous_series_reproduces_the_projections(case):
    # the self-check's identity holds for the autonomous system too: its own
    # series gives each l~_k at order w_k in component k and nothing below
    system, max_order = case
    try:
        res = approximate(system, max_order)
    except NotAccessibleError:
        assume(False)
    assume(res.autonomous_exists())
    check_self_consistency(res._replace(nonautonomous=res.autonomous))


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


# small elements of mixed orders: the table needs no homogeneity
elements = st.dictionaries(
    st.lists(st.integers(0, 2), max_size=2).map(tuple),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=3,
).map(AlgElem)


@st.composite
def monomial_queries(draw):
    """(generators, exponent tuples), each tuple over a prefix of the
    generators, some with trailing zeros."""
    generators = draw(st.lists(elements, max_size=3))
    exponents = st.lists(st.integers(0, 3), max_size=len(generators)).map(tuple)
    exponents = exponents.filter(lambda q: sum(q) <= 4)  # words of length <= 8
    return generators, draw(st.lists(exponents, min_size=1, max_size=4))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(monomial_queries())
@example(([xi(0), xi(1) - xi(0, 0)], [(2, 1), (0, 2), (1,), (0, 0), ()]))
def test_shuffle_monomial_table_matches_monomials_from_scratch(case):
    # one table answers every query, as one reconstruction's solves share it
    generators, queries = case
    table = ShuffleMonomials(generators)
    for q in queries:
        assert table[q] == shuffle_monomial(generators, q), q


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
    table = ShuffleMonomials(res.projected)  # shared, as by both reconstructions
    for target, generators, weights, degree in _shuffle_poly_problems(res):
        got = _solved(express_as_shuffle_poly, (target, table, weights, degree))
        want = _solved(dense_shuffle_poly, (target, generators, weights, degree))
        assert got == want, (target, weights, degree)


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


@st.composite
def coordinate_changes(draw):
    """(n, a, b, max_order) with n >= 2 and (A, h) for y = A(x + h(x)): A
    unit lower-triangular over the integers, h_i a quadratic form in
    x_1..x_{i-1}, so the inverse map is polynomial too."""
    n, a, b, max_order = draw(system_strings(min_n=2))
    A = [
        [int(i == j) if j >= i else draw(st.integers(-2, 2)) for j in range(n)]
        for i in range(n)
    ]
    # h_i: up to two terms c*x_j*x_k with j, k < i
    terms = [
        st.tuples(st.sampled_from([-1, 1]), st.integers(0, i - 1), st.integers(0, i - 1))
        for i in range(1, n)
    ]
    h = [[]] + [draw(st.lists(term, max_size=2)) for term in terms]
    return (n, a, b, max_order), (A, h)


def _changed_strings(n, a, b, A, h):
    """The system in the coordinates y = A(x + h(x)), named x_i again."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x1:{n + 1}")
    names = {"t": sympy.Symbol("t"), **{str(x): x for x in xs}}
    hx = [sum((c * xs[j] * xs[k] for c, j, k in hi), sympy.Integer(0)) for hi in h]
    y = sympy.Matrix(A) * sympy.Matrix([x + hi for x, hi in zip(xs, hx)])
    z = sympy.Matrix(A).inv() * sympy.Matrix(xs)
    old = []  # x in terms of y, by forward substitution
    for i in range(n):
        old.append(sympy.expand(z[i] - hx[i].subs(dict(zip(xs, old)), simultaneous=True)))
    back = dict(zip(xs, old))
    jac = y.jacobian(xs).subs(back, simultaneous=True)

    def pushed(field):
        f = sympy.Matrix([sympy.sympify(s.replace("^", "**"), locals=names) for s in field])
        g = jac * f.subs(back, simultaneous=True)
        return [str(sympy.expand(e)).replace("**", "^") for e in g]

    return pushed(a), pushed(b)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(coordinate_changes())
def test_coordinate_change_keeps_the_approximation(case):
    # y(t) = A(x(t) + h(x(t))) gives v_y(w) = A v_x(w) plus shuffles of
    # nonempty words, which vanish on Lie elements: the v-image of every
    # Lie element is only multiplied by the invertible A, which keeps each
    # independence and each solved combination
    (n, a, b, max_order), (A, h) = case
    try:
        base = approximate(system_from_strings(n, a, b), max_order)
    except NotAccessibleError:
        assume(False)
    changed = system_from_strings(n, *_changed_strings(n, a, b, A, h))
    moved = approximate(changed, max_order)
    assert moved.N == base.N
    assert moved.weights == base.weights
    assert [l.word for l in moved.core.ell] == [l.word for l in base.core.ell]
    assert [(d.elem, d.combo) for d in moved.core.dees] == [
        (d.elem, d.combo) for d in base.core.dees
    ]
    assert moved.projected == base.projected
    assert moved.nonautonomous == base.nonautonomous
    assert moved.autonomous == base.autonomous
