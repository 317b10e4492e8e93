"""Properties of the whole pipeline on random accessible polynomial
systems: the output's own series reproduces the projections, and the
non-autonomous approximation is a fixed point of `approximate`."""
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homapprox.approx import NotAccessibleError, approximate, check_self_consistency
from homapprox.series import system_from_strings


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
    again = approximate(res.nonautonomous.to_control_system(), max_order)
    assert again.weights == res.weights
    assert again.nonautonomous.a == res.nonautonomous.a
    assert again.nonautonomous.b == res.nonautonomous.b
