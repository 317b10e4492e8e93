import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from homapprox import expr as ex
from homapprox import report, series
from homapprox.algebra import AlgElem, enumerate_basis, phi, weighted_multi_indices
from homapprox.approx import (
    NoAutonomousApproximation,
    NotAccessibleError,
    NotRepresentableError,
    ShuffleMonomials,
    approximate,
    build_ideal_blocks,
    check_homogeneity,
    check_self_consistency,
    express_as_shuffle_poly,
    select_core,
)
from homapprox.approx import InternalConsistencyError
from homapprox.lie import build_lie_basis
from homapprox.series import SeriesComputer, SeriesTable, system_from_strings
from dense import dense_shuffle_poly, vectorize
from reparse import reparsed
from rowspace import row_space_canonical, spans_ideal_block

F = Fraction


def xi(*letters):
    return AlgElem.from_word(tuple(letters))


@pytest.fixture(scope="module")
def res3(sys3):
    return approximate(sys3)


@pytest.fixture(scope="module")
def res_drift(sys3_drift):
    return approximate(sys3_drift)


@pytest.fixture(scope="module")
def res_deep(sys_deep):
    return approximate(sys_deep)


# ---------------------------------------------------------------------------
# core selection

def test_core_selection_published(sys3):
    core, table = select_core(SeriesComputer(sys3), 3, 4)
    assert table.N == 4
    assert [l.index for l in core.ell] == [1, 3, 6]
    assert [l.elem for l in core.ell] == [xi(0), xi(2), xi(0, 2) - xi(2, 0)]
    assert core.weights == (1, 3, 4)
    assert [l.vcoeff for l in core.ell] == [
        (F(1), F(0), F(0)),
        (F(0), F(-1), F(0)),
        (F(0), F(0), F(-1)),
    ]
    assert [(d.order, d.elem) for d in core.dees] == [
        (2, xi(1)),
        (3, 2 * xi(2) + xi(0, 1) - xi(1, 0)),
        (4, xi(3)),
        (4, 6 * xi(0, 2) - 6 * xi(2, 0) - xi(0, 0, 1) + 2 * xi(0, 1, 0) - xi(1, 0, 0)),
    ]
    assert core.dees[0].combo == ((F(1), 2),)
    assert core.dees[1].combo == ((F(1), 4), (F(2), 3))
    assert core.dees[2].combo == ((F(1), 5),)
    assert core.dees[3].combo == ((F(-1), 7), (F(6), 6))


def test_core_selection_changed(sys3_drift):
    core, table = select_core(SeriesComputer(sys3_drift), 3, 4)
    assert table.N == 4
    assert [l.index for l in core.ell] == [1, 4, 6]
    assert core.ell[1].elem == xi(0, 1) - xi(1, 0)
    assert core.weights == (1, 3, 4)


def test_core_complete_below_n_keeps_the_series_at_order_n():
    # weights (1, 2, 3, 3): the core is complete at order 3 < n = 4
    early4 = system_from_strings(4, ["0", "x1", "x2", "x1^2"], ["1", "0", "0", "0"])
    res = approximate(early4)
    assert res.weights == (1, 2, 3, 3)
    assert res.N == 4
    assert {d.order for d in res.core.dees} <= {1, 2, 3}


def test_each_basis_element_is_scanned_once(monkeypatch):
    deep7 = system_from_strings(2, ["0", "x1^6"], ["1", "0"])
    scanned = []
    v_elem = SeriesTable.v_elem
    monkeypatch.setattr(
        SeriesTable, "v_elem", lambda table, e: scanned.append(e) or v_elem(table, e)
    )
    res = approximate(deep7)
    assert res.N == 7
    assert len(scanned) == len(build_lie_basis(res.N)) == 40


def test_not_accessible_without_control():
    dead = system_from_strings(1, ["0"], ["0"])
    with pytest.raises(NotAccessibleError) as err:
        approximate(dead, max_order=3)
    assert err.value.achieved == 0
    assert err.value.N == 3


# ---------------------------------------------------------------------------
# ideal blocks

def test_ideal_blocks_published(res3):
    blocks = res3.blocks
    assert sorted(blocks) == [1, 3, 4]
    assert (blocks[1].rank, blocks[1].dim) == (0, 1)
    assert (blocks[3].rank, blocks[3].dim) == (2, 4)
    assert (blocks[4].rank, blocks[4].dim) == (5, 8)
    assert blocks[1].complement == [xi(0)]
    # J_3 = span{xi_10, 2 xi_2 + xi_01 - xi_10}: its complement is
    # spanned by xi_2 - 2 xi_01 and xi_000
    assert row_space_canonical(
        [vectorize(c, 3) for c in blocks[3].complement]
    ) == row_space_canonical([[1, -2, 0, 0], [0, 0, 0, 1]])
    # xi_11 = d_1 xi_1 and xi_100 = d_1 xi_00 lie in J_4
    for r in (xi(1, 1), xi(1, 0, 0)):
        for c in blocks[4].complement:
            assert sum(a * b for a, b in zip(vectorize(r, 4), vectorize(c, 4))) == 0


def test_ideal_block_spans_match_published_matrices(res3):
    # rows rewritten in the canonical word order (columns xi11 and xi20
    # swapped relative to the published layout)
    published_J3 = [
        [0, 0, 1, 0],
        [2, 1, -1, 0],
    ]
    published_J4 = [
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 2, 0, 1, -1, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 6, 0, -6, -1, 2, -1, 0],
    ]
    for m, published in ((3, published_J3), (4, published_J4)):
        assert spans_ideal_block(published, res3.blocks[m])
    # one row short of J_4 no longer spans it
    assert not spans_ideal_block(published_J4[:4], res3.blocks[4])


def test_block_complement_dimension_counts_monomials(res3, res_drift, res_deep):
    for res in (res3, res_drift, res_deep):
        weights = res.weights
        for m, block in res.blocks.items():
            expected = len(weighted_multi_indices(weights, m))
            assert block.dim - block.rank == expected, (res.weights, m)


def test_blocks_check_codimension_at_runtime(res3):
    # without ideal generators J is 0 and the complement at order 2 is
    # all of it: codimension 2 (xi_1 and xi_00), but weights (1, 3, 4)
    # give only one shuffle monomial of order 2
    core = res3.core._replace(dees=[])
    with pytest.raises(InternalConsistencyError, match="order 2 has codimension 2,"):
        build_ideal_blocks(core)


# ---------------------------------------------------------------------------
# projection

def test_projection_published(res3):
    assert res3.projected[0] == xi(0)
    assert res3.projected[1] == F(1, 5) * xi(2) - F(2, 5) * xi(0, 1)
    assert res3.projected[2] == (
        F(3, 19) * xi(0, 2)
        + F(23, 285) * xi(2, 0)
        + F(8, 57) * xi(0, 0, 1)
        - F(46, 285) * xi(0, 1, 0)
    )


def test_projection_orthogonal_and_in_span(res3, res_drift, res_deep):
    for res in (res3, res_drift, res_deep):
        for l, ltilde in zip(res.core.ell, res.projected):
            m = l.order
            complement = [vectorize(c, m) for c in res.blocks[m].complement]
            # l~ lies in the span of the complement
            assert row_space_canonical(complement) == row_space_canonical(
                complement + [vectorize(ltilde, m)]
            )
            # l - l~ is orthogonal to it
            rv = vectorize(l.elem - ltilde, m)
            for c in complement:
                assert sum(a * b for a, b in zip(rv, c)) == 0


# ---------------------------------------------------------------------------
# shuffle polynomial representation

def test_weighted_multi_indices():
    assert weighted_multi_indices((1, 3), 3) == [(0, 1), (3, 0)]
    assert weighted_multi_indices((1, 3), 2) == [(2, 0)]
    assert weighted_multi_indices((1, 3, 4), 4) == [(0, 0, 1), (1, 1, 0), (4, 0, 0)]
    assert weighted_multi_indices((), 0) == [()]
    assert weighted_multi_indices((), 2) == []
    # the last exponent exists only where the last weight divides what is left
    assert weighted_multi_indices((3,), 4) == []
    assert weighted_multi_indices((2, 3), 7) == [(2, 1)]
    assert weighted_multi_indices((1, 2, 2), 4) == [
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (2, 0, 1), (2, 1, 0), (4, 0, 0)
    ]


def sparse_shuffle_poly(target, generators, weights, degree):
    return express_as_shuffle_poly(target, ShuffleMonomials(generators), weights, degree)


def test_express_shuffle_published_identities():
    # xi_00 = 1/2 xi_0 ^shuffle 2
    poly = sparse_shuffle_poly(xi(0, 0), [xi(0)], (1,), 2)
    assert poly == {(2,): F(1, 2)}
    # xi_2 - 2 xi_01 = 5 l~_2
    l2 = F(1, 5) * xi(2) - F(2, 5) * xi(0, 1)
    poly = sparse_shuffle_poly(xi(2) - 2 * xi(0, 1), [xi(0), l2], (1, 3), 3)
    assert poly == {(0, 1): F(5)}


def test_express_shuffle_not_representable():
    # phi(l~_2) = 2/5 (xi_1 - xi_00) has no representation over xi_0
    l2 = F(1, 5) * xi(2) - F(2, 5) * xi(0, 1)
    image = phi(l2)
    assert image == F(2, 5) * xi(1) - F(2, 5) * xi(0, 0)
    with pytest.raises(NotRepresentableError):
        sparse_shuffle_poly(image, [xi(0)], (1,), 2)


def test_express_shuffle_degree_zero_and_empty():
    # the one general path gives the answers the dense reference special-cases:
    # at degree 0 the only word is (), and without monomials there is no column
    for solve in (sparse_shuffle_poly, dense_shuffle_poly):
        assert solve(AlgElem.scalar(2), [], (), 0) == {(): F(2)}
        assert solve(AlgElem.scalar(2), [xi(0)], (1,), 0) == {(0,): F(2)}
        assert solve(AlgElem(), [], (), 3) == {}
        with pytest.raises(NotRepresentableError):
            solve(xi(0), [], (), 0)
        with pytest.raises(NotRepresentableError):
            solve(xi(0, 0), [], (), 3)


# ---------------------------------------------------------------------------
# reconstruction

def test_nonautonomous_published(res3):
    sysp = res3.nonautonomous
    assert sysp.weights == (1, 3, 4)
    assert sysp.a == [{}, {}, {}]
    assert sysp.b == [
        {(0, (0, 0, 0)): F(-1)},
        {(2, (0, 0, 0)): F(-1, 5), (1, (1, 0, 0)): F(2, 5)},
        {
            (2, (1, 0, 0)): F(-3, 19),
            (1, (2, 0, 0)): F(-4, 57),
            (0, (0, 1, 0)): F(-23, 57),
        },
    ]


def test_autonomous_witness_published(res3):
    assert not res3.autonomous_exists()
    wit = res3.autonomous
    assert isinstance(wit, NoAutonomousApproximation)
    assert wit.index == 2
    assert wit.kind == "phi"
    assert wit.order == 2
    assert wit.witness == F(2, 5) * xi(1) - F(2, 5) * xi(0, 0)


def test_changed_system_autonomous_published(res_drift):
    assert res_drift.autonomous_exists()
    auto = res_drift.autonomous
    assert auto.weights == (1, 3, 4)
    assert auto.a == [
        {},
        {(0, (2, 0, 0)): F(-1, 2)},
        {(0, (3, 0, 0)): F(1, 27), (0, (0, 1, 0)): F(-10, 9)},
    ]
    assert auto.b == [
        {(0, (0, 0, 0)): F(-1)},
        {},
        {(0, (0, 1, 0)): F(4, 9)},
    ]


def test_polynomial_system_expr_roundtrip(res3):
    ctrl = reparsed(res3.nonautonomous)
    assert ex.expr_to_str(ctrl.a[0]) == "0"
    assert ex.expr_to_str(ctrl.b[0]) == "-1"
    # the printed system parses back with matching dimensions
    assert ctrl.n == 3


def test_triangular_and_weighted_degrees(res3, res_drift, res_deep):
    for res in (res3, res_drift, res_deep):
        weights = res.weights
        systems = [res.nonautonomous]
        if res.autonomous_exists():
            systems.append(res.autonomous)
        for sysp in systems:
            for i in range(sysp.n):
                w_i = weights[i]
                for comp, include_t in ((sysp.a[i], True), (sysp.b[i], True)):
                    for (t_pow, x_pows), c in comp.items():
                        assert c != 0
                        # only earlier states appear
                        assert all(q == 0 for q in x_pows[i:])
                        degree = t_pow + sum(
                            q * weights[j] for j, q in enumerate(x_pows)
                        )
                        assert degree == w_i - 1, (i, t_pow, x_pows)


def test_scalar_pipeline(sys_scalar):
    res = approximate(sys_scalar)
    assert res.N == 1
    assert res.weights == (1,)
    assert res.projected == [xi(0)]
    assert res.nonautonomous.b == [{(0, (0,)): F(-1)}]
    assert res.autonomous_exists()
    assert res.autonomous.a == [{}]
    assert res.autonomous.b == [{(0, (0,)): F(-1)}]


def test_deep_pipeline(res_deep):
    assert res_deep.N == 9
    assert res_deep.weights == (1, 9)
    assert res_deep.core.ell[1].order == 9
    block = res_deep.blocks[9]
    assert block.dim == 256
    assert block.dim - block.rank == len(
        weighted_multi_indices((1, 9), 9)
    )


def test_deepening_respects_max_order(sys_deep, sys3):
    with pytest.raises(NotAccessibleError) as err:
        approximate(sys_deep, max_order=5)
    assert err.value.achieved == 1
    assert err.value.N == 5
    # the cap also lowers the start order n
    with pytest.raises(NotAccessibleError) as err:
        approximate(sys3, max_order=2)
    assert err.value.N == 2


# ---------------------------------------------------------------------------
# consistency of the output with its own series

def test_self_consistency(res3, res_drift, res_deep):
    for res in (res3, res_drift, res_deep):
        check_self_consistency(res)


def test_huge_constants_run_outside_the_cli():
    # 2^65536 has more digits than int.__str__ prints by default; the CLI
    # lifts that limit for its run, and the library must not need it
    limit = sys.get_int_max_str_digits()
    res = approximate(
        system_from_strings(2, ["0", "x1^2"], ["1 + 2^65536*x1", "0"])
    )
    check_self_consistency(res)
    assert res.weights == (1, 3)
    # and every report prints its coefficients in full
    digits = str(Decimal(2**65536))
    for render in (report.render_text, report.render_latex, report.render_json):
        assert digits in render(res)
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ex.ExprSyntaxError):
        system_from_strings(2, ["0", "x1^2"], ["1 + 2^65537*x1", "0"])


def test_self_check_builds_its_jets_once(monkeypatch):
    res = approximate(system_from_strings(2, ["0", "x1^6"], ["1", "0"]))
    degrees = []
    original = series.JetSystem

    def counting(system, D):
        degrees.append(D)
        return original(system, D)

    monkeypatch.setattr(series, "JetSystem", counting)
    check_self_consistency(res)
    assert degrees == [7]


def test_self_consistency_detects_corruption(res3):
    broken = res3._replace(
        projected=[res3.projected[0], 2 * res3.projected[1], res3.projected[2]]
    )
    message = "component 2, word (2,): series gives 1/5, projection demands 2/5"
    with pytest.raises(InternalConsistencyError, match=f"^{re.escape(message)}$"):
        check_self_consistency(broken)


def test_self_consistency_detects_a_stray_lower_order_coefficient(res3):
    # 7*x1 added to b_3 gives component 3 a coefficient at xi_{0 0}, a word
    # of order 2 < w_3 = 4 that l~_3 does not contain
    b = [dict(comp) for comp in res3.nonautonomous.b]
    b[2][(0, (1, 0, 0))] = F(7)
    broken = res3._replace(nonautonomous=res3.nonautonomous._replace(b=b))
    message = "component 3, word (0, 0): series gives -7, projection demands 0"
    with pytest.raises(InternalConsistencyError, match=f"^{re.escape(message)}$"):
        check_self_consistency(broken)


def test_homogeneity_detects_a_monomial_of_the_wrong_degree(res3):
    # 7*x3 added to b_3 has weighted degree w_3 = 4, not 3; its terms in the
    # output's series have order 5 > w_3, past what the self-check compares
    b = [dict(comp) for comp in res3.nonautonomous.b]
    b[2][(0, (0, 0, 1))] = F(7)
    broken = res3._replace(nonautonomous=res3.nonautonomous._replace(b=b))
    check_self_consistency(broken)
    message = "non-autonomous b3: t^0 x^(0, 0, 1) has weighted degree 4, not w_3 - 1 = 3"
    with pytest.raises(InternalConsistencyError, match=f"^{re.escape(message)}$"):
        check_homogeneity(broken)


def test_idempotence_nonautonomous(res3, res_drift):
    for res in (res3, res_drift):
        again = approximate(reparsed(res.nonautonomous))
        assert again.weights == res.weights
        assert again.nonautonomous.a == res.nonautonomous.a
        assert again.nonautonomous.b == res.nonautonomous.b


def test_idempotence_autonomous(res_drift):
    again = approximate(reparsed(res_drift.autonomous))
    assert again.autonomous_exists()
    assert again.autonomous.a == res_drift.autonomous.a
    assert again.autonomous.b == res_drift.autonomous.b


def test_output_series_is_projection(res3):
    # the k-th component of the output series at order w_k is exactly l~_k
    out = reparsed(res3.nonautonomous)
    table = SeriesComputer(out).table_up_to(max(res3.weights))
    for k, (l, ltilde) in enumerate(zip(res3.core.ell, res3.projected)):
        for w in enumerate_basis(l.order):
            assert table.v(w)[k] == ltilde.terms.get(w, 0)
