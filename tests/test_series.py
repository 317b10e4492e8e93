import math
from fractions import Fraction
from pathlib import Path

import pytest

from homapprox import expr as ex
from homapprox.algebra import word_order
from homapprox.approx import approximate
from homapprox.cli import parse_system_file
from homapprox.lie import build_lie_basis, expand_right_normed
from homapprox.series import (
    ControlSystem,
    EquilibriumError,
    JetSystem,
    SeriesComputer,
    apply_R_a,
    apply_R_b,
    system_from_strings,
    validate_equilibrium,
)
from reparse import reparsed

SYSTEMS = Path(__file__).resolve().parent.parent / "perfbench" / "systems"

F = Fraction


def vec(*vals):
    return tuple(F(v) for v in vals)


# ---------------------------------------------------------------------------
# system construction

def test_system_validation():
    with pytest.raises(ValueError):
        system_from_strings(2, ["0"], ["1", "0"])
    with pytest.raises(ValueError):
        ControlSystem(0, (), ())
    with pytest.raises(ex.ExprSyntaxError):
        # the parser already rejects x3 when n = 2
        system_from_strings(2, ["0", "x3"], ["1", "0"])
    with pytest.raises(ValueError):
        # hand-built trees are checked by the constructor
        ControlSystem(2, (ex.ZERO, ex.Var(3)), (ex.Const(F(1)), ex.ZERO))


def test_render_mentions_every_state(sys3):
    a = [ex.expr_to_str(c) for c in sys3.a]
    assert a == ["0", "-sin(x1)^2", "2*x1^2*sin(t)"]
    assert [ex.expr_to_str(c) for c in sys3.b] == ["-cos(x1)", "t^2", "-x2"]


# ---------------------------------------------------------------------------
# the operators R_a and R_b, which the jets hold times their common denominator Q

def q_times(jets, text, n):
    """Q times the jet of `text`, exactly."""
    jet, d = jets.expand(ex.parse_expr(text, n))
    return {k: F(c * jets.Q, d) for k, c in jet.items()}


def test_operators_on_simple_functions(sys_scalar):
    # a = 0, b = 1: R_a only differentiates in t, R_b is d/dx1
    jets = JetSystem(sys_scalar, 3)
    f = (jets.expand(ex.parse_expr("t^2*x1", 1))[0],)
    ra = apply_R_a(jets, f, 2)
    assert (ra[0], jets.Q) == jets.expand(ex.parse_expr("2*t*x1", 1))
    rb = apply_R_b(jets, f, 2)
    assert (rb[0], jets.Q) == jets.expand(ex.parse_expr("t^2", 1))


def test_operators_use_drift(sys3):
    # R_a x3 = (x3)_t + (x3)_x a = a3, here up to total degree 4
    jets = JetSystem(sys3, 4)
    f = (jets.expand(ex.Var(3))[0],)
    ra = apply_R_a(jets, f, 4)
    assert ra[0] == q_times(jets, "2*x1^2*sin(t)", 3)
    rb = apply_R_b(jets, f, 4)
    assert rb[0] == q_times(jets, "-x2", 3)


def test_jets_are_integers_over_one_denominator(sys3):
    # -sin(x1)^2 and -cos(x1) up to degree 4 bring 1/3, 1/2 and 1/24: Q = 24
    jets = JetSystem(sys3, 4)
    assert jets.Q == 24
    for op in (jets.R_a, jets.R_b):
        assert all(type(c) is int for items in op for _, c in items)
    for text in ["x1/3 + t^2/6", "cos(x1/2)/(4 - x2)", "exp(t)*sin(x3)", "2*x1 - 4*x2"]:
        jet, d = jets.expand(ex.parse_expr(text, 3))
        assert d > 0 and math.gcd(d, *jet.values()) == 1, text
        assert all(type(c) is int for c in jet.values()), text
    # integer polynomial systems keep the unscaled operators
    for name in ["deep11", "chain4", "deep7"]:
        psys = parse_system_file((SYSTEMS / f"{name}.txt").read_text())
        assert JetSystem(psys, 6).Q == 1, name


# ---------------------------------------------------------------------------
# moment coefficients of the worked example

EXPECTED_SYS3_TABLE = {
    (0,): vec(1, 0, 0),
    (2,): vec(0, -1, 0),
    (0, 1): vec(0, 2, 0),
    (0, 0, 0): vec(-1, 0, 0),
    (2, 0): vec(0, 0, -1),
    (0, 2): vec(0, 0, -2),
    (0, 1, 0): vec(0, 0, 2),
    (0, 0, 1): vec(0, 0, -2),
}


def test_moment_coefficients_match_published_values(sys3):
    table = SeriesComputer(sys3).table_up_to(4)
    assert table.coeffs == EXPECTED_SYS3_TABLE


def test_lie_coefficients_match_published_values(sys3):
    table = SeriesComputer(sys3).table_up_to(4)
    basis = build_lie_basis(4)
    got = [table.v_elem(g.expansion) for g in basis[:6]]
    assert got == [
        vec(1, 0, 0),
        vec(0, 0, 0),
        vec(0, -1, 0),
        vec(0, 2, 0),
        vec(0, 0, 0),
        vec(0, 0, -1),
    ]
    # the published order-4 bracket [xi0,[xi1,xi0]] has value (0,0,6)
    assert table.v_elem(expand_right_normed((0, 1, 0))) == vec(0, 0, 6)


def test_table_linear_extension(sys3):
    table = SeriesComputer(sys3).table_up_to(4)
    e = expand_right_normed((0, 1))  # xi01 - xi10
    assert table.v_elem(e) == vec(0, 2, 0)
    with pytest.raises(ValueError):
        table.v((0, 0, 0, 0, 0))  # order 5 > N
    from homapprox.algebra import AlgElem

    with pytest.raises(ValueError):
        table.v_elem(AlgElem.scalar(1))


def test_scalar_integrator_series(sys_scalar):
    # dx = u: only xi_0 appears, with v_0 = -b(0,0)
    table = SeriesComputer(sys_scalar).table_up_to(5)
    assert table.coeffs == {(0,): (F(-1),)}


def test_control_scaling_scales_by_word_length():
    base = system_from_strings(2, ["0", "x1^2"], ["1", "0"])
    scaled = system_from_strings(2, ["0", "x1^2"], ["3", "0"])
    t1 = SeriesComputer(base).table_up_to(5)
    t2 = SeriesComputer(scaled).table_up_to(5)
    words = set(t1.coeffs) | set(t2.coeffs)
    for w in words:
        k = len(w)
        assert t2.v(w) == tuple(F(3) ** k * c for c in t1.v(w)), w


def test_table_after_smaller_table_matches_fresh_computer(sys3_drift):
    # growing N rebuilds the jets at the larger truncation degree
    comp = SeriesComputer(sys3_drift)
    comp.table_up_to(3)
    assert comp.table_up_to(5) == SeriesComputer(sys3_drift).table_up_to(5)


def test_table_grown_one_order_at_a_time_matches_fresh_builds():
    # select_core's pattern: each call rebuilds the jets at its order and
    # computes only the words the last table lacked; rat3's components
    # include a quotient, cos and exp
    rat3 = parse_system_file((SYSTEMS / "rat3.txt").read_text())
    comp = SeriesComputer(rat3)
    for m in range(1, 7):
        assert comp.table_up_to(m) == SeriesComputer(rat3).table_up_to(m), m
    assert any(word_order(w) == 6 for w in comp.table_up_to(6).coeffs)


@pytest.mark.parametrize(
    "b1, error",
    [
        ("1/x1", ex.DivisionByZeroError),
        ("sin(1+x1)", ex.NonzeroTranscendentalError),
        ("exp(t - 2)", ex.NonzeroTranscendentalError),
    ],
)
def test_jets_reject_components_undefined_at_origin(b1, error):
    sys = system_from_strings(1, ["0"], [b1])
    with pytest.raises(error):
        SeriesComputer(sys).table_up_to(2)


@pytest.mark.parametrize(
    "base", ["x1", "1 + x1 - t*x2", "2 - sin(x2)", "t + x1*x2", "x1/3 + t/2", "1/2 - sin(x2)"]
)
def test_power_jet_matches_repeated_product(base):
    b = ex.simplify(ex.parse_expr(base, 2))
    jets = JetSystem(system_from_strings(2, ["0", "0"], ["1", "0"]), 6)
    for k in range(13):
        assert jets.expand(ex.Pow(b, k)) == jets.expand(ex.Prod((b,) * k)), k


@pytest.mark.parametrize("base", ["x1/3 + t", "sin(x2)"])
def test_power_jet_with_a_huge_exponent_is_zero(base):
    # below degree 10^12 the power vanishes; the denominator of the untruncated
    # power, 3^(10^12) or 120^(10^12), must never be formed
    b = ex.simplify(ex.parse_expr(base, 2))
    jets = JetSystem(system_from_strings(2, ["0", "0"], ["1", "0"]), 6)
    assert jets.expand(ex.Pow(b, 10**12)) == ({}, 1)


def test_monomial_map_jet_drops_monomials_above_its_degree():
    jets = JetSystem(system_from_strings(2, ["0", "0"], ["1", "0"]), 2)
    comp = {(0, (0, 0)): 3, (1, (1, 0)): F(1, 2), (0, (0, 2)): -2, (2, (1, 0)): 5}
    want = jets.expand(ex.simplify(ex.parse_expr("3 + t*x1/2 - 2*x2^2", 2)))
    assert jets.expand(comp) == want
    assert len(want[0]) == 3 and want[1] == 2


@pytest.mark.parametrize("name", ["sys3", "sys3_drift", "mixed4", "deep7"])
def test_output_jets_match_the_reparsed_text(name):
    # the series of an output system read from its monomial maps equals the
    # series of its printed text; at N = 2 the maps lose their high monomials
    text = (SYSTEMS / f"{name}.txt").read_text()
    res = approximate(parse_system_file(text))
    outputs = [res.nonautonomous]
    if res.autonomous_exists():
        outputs.append(res.autonomous)
    for psys in outputs:
        for N in (2, max(res.weights)):
            want = SeriesComputer(reparsed(psys)).table_up_to(N).coeffs
            assert SeriesComputer(psys).table_up_to(N).coeffs == want, N


def test_json_encoding(sys_scalar):
    data = SeriesComputer(sys_scalar).table_up_to(3).to_json()
    assert data == [{"word": [0], "coeff": ["-1"]}]


# ---------------------------------------------------------------------------
# equilibrium validation

def test_equilibrium_accepts_valid_systems(sys3, sys3_drift):
    validate_equilibrium(sys3)
    validate_equilibrium(sys3_drift)


def test_equilibrium_rejects_nonzero_drift():
    sys = system_from_strings(1, ["t"], ["1"])
    with pytest.raises(EquilibriumError):
        validate_equilibrium(sys)
    # the pipeline certifies the equilibrium on entry
    with pytest.raises(EquilibriumError):
        approximate(sys)


def test_equilibrium_certifies_by_rational_sampling():
    # a(t,0) = t^2 - t*t is 0 only after cancellation; polynomial
    # structure lets exact evaluation certify it
    sys = system_from_strings(1, ["(t + x1)^2 - t^2 - 2*t*x1 - x1^2"], ["1"])
    validate_equilibrium(sys)


def test_equilibrium_rejects_uncertifiable_identity():
    # sin(t)cos(t) - sin(2t)/2 vanishes identically, but certifying that
    # needs trig identities; the check conservatively refuses
    sys = system_from_strings(1, ["sin(t)*cos(t) - sin(2*t)/2"], ["1"])
    with pytest.raises(EquilibriumError):
        validate_equilibrium(sys)
