"""Homogeneous approximation pipeline.

From the moment series of a system the pipeline selects, in one pass
over the orders, the core Lie elements l_1..l_n (whose images under v
are independent) together with correction elements d_j generating a
right ideal J, projects each l_i onto the orthogonal complement of J in
its order, and reconstructs polynomial approximating systems from the
projected elements.  Both are read off one last-letter split of each
l~_i: the non-autonomous system always exists, with its t^j part from the
prefixes of the words ending in xi_j; the autonomous one takes the t^0
part of that as its b and exists exactly when the phi image of every
projected element is a shuffle polynomial in the previous ones.

The complement is built order by order from its last letters, never from
the 2^(m-1)-wide graded blocks of J: right multiplication by a letter is
an isometry and the images under different letters are orthogonal, so

    J^perp_0 = span{1},
    J^perp_m = { sum_k y_k xi_k : y_k in J^perp_{m-k-1} } ∩ D_m^perp,

where D_m holds the d's of order m.  Each order costs one null space of
|D_m| rows over sum_{j<m} dim J^perp_j columns.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .algebra import (
    AlgElem,
    collect,
    exact_str,
    phi,
    shuffle,
    weighted_multi_indices,
    word_order,
    word_sort_key,
)
from .lie import InternalConsistencyError, build_lie_basis
from .linalg import IntEchelon, scale_to_int, solve_particular, solve_square
from .series import ControlSystem, SeriesComputer, certify_drift

DEFAULT_MAX_ORDER = 13


class NotAccessibleError(Exception):
    """Fewer than n independent Lie coefficient directions up to order N."""

    def __init__(self, n: int, N: int, achieved: int):
        super().__init__(
            f"only {achieved} of {n} independent directions found up to order {N}; "
            "the system is not accessible at this order"
        )
        self.n = n
        self.N = N
        self.achieved = achieved


class NotRepresentableError(Exception):
    """An element is not a shuffle polynomial in the given generators."""

    def __init__(self, elem: AlgElem, order: int):
        super().__init__(
            f"element of order {order} is not a shuffle polynomial "
            f"in the projected core: {elem}"
        )
        self.elem = elem
        self.order = order


class CoreElement(namedtuple("CoreElement", "index word elem order vcoeff")):
    # index: 1-based position g_i in the Lie basis
    __slots__ = ()


class IdealGenerator(namedtuple("IdealGenerator", "elem order combo")):
    # combo: combination over Lie basis indices, e.g. d = g_7 + 6 g_6
    __slots__ = ()


class CoreDecomposition(namedtuple("CoreDecomposition", "n ell dees")):
    __slots__ = ()

    @property
    def weights(self) -> tuple:
        return tuple(l.order for l in self.ell)


class IdealBlock(namedtuple("IdealBlock", "order dim complement")):
    # dim: number of words of this order
    # complement: AlgElem basis of the orthogonal complement of J here
    __slots__ = ()

    @property
    def rank(self) -> int:
        return self.dim - len(self.complement)


class NoAutonomousApproximation(
    namedtuple("NoAutonomousApproximation", "index kind witness order")
):
    """Witness that the autonomous construction fails: the phi image of
    l~_i is not a shuffle polynomial in l~_1..l~_{i-1}."""

    # index: 1-based i of the failing projected element
    # kind: the failing map, always "phi"; the reports print it
    __slots__ = ()


class PolynomialSystem(namedtuple("PolynomialSystem", "n weights a b")):
    """dx_i/dt = a_i(t,x) + b_i(t,x) u with polynomial components stored
    as {(t_power, (x1_power, ..., xn_power)): coefficient} maps."""

    __slots__ = ()


_RESULT_FIELDS = "system N table core blocks projected nonautonomous autonomous"


class ApproximationResult(namedtuple("ApproximationResult", _RESULT_FIELDS)):
    # projected: l~_i as AlgElem, same order as core.ell
    # autonomous: PolynomialSystem | NoAutonomousApproximation
    __slots__ = ()

    @property
    def weights(self) -> tuple:
        return self.core.weights

    def autonomous_exists(self) -> bool:
        return isinstance(self.autonomous, PolynomialSystem)


def select_core(computer: SeriesComputer, n: int, max_order: int) -> tuple:
    """Split the Lie basis into core elements l (independent v-images)
    and corrected ideal generators d in one pass over the orders, growing
    the series table from order min(n, max_order) until n l's are found.
    Returns (core, table)."""
    table = computer.table_up_to(min(n, max_order))
    ell: list = []
    dees: list = []
    ech = IntEchelon(n)
    scanned = 0
    for m in range(1, max_order + 1):
        if table.N < m:
            table = computer.table_up_to(m)
        basis = build_lie_basis(m)
        for g in basis[scanned:]:
            vec = table.v_elem(g.expansion)
            if len(ell) < n and ech.add(scale_to_int(vec)):
                ell.append(CoreElement(g.index, g.word, g.expansion, m, vec))
                continue
            # v(g) lies in span{v(l_j)}; correct with same-order l's so the
            # corrected element's v-image drops into the lower-order span
            lower = [l.vcoeff for l in ell if l.order < m]
            same = [l for l in ell if l.order == m]
            sol = solve_particular(lower + [l.vcoeff for l in same], vec)
            if sol is None:
                raise InternalConsistencyError(
                    f"v(g_{g.index}) escapes the span of the selected core"
                )
            corr = sol[len(lower):]
            d_elem = g.expansion
            combo = [(Fraction(1), g.index)]
            for c, l in zip(corr, same):
                if c != 0:
                    d_elem = d_elem + (-c) * l.elem
                    combo.append((-c, l.index))
            if d_elem.sorted_items()[0][1] < 0:  # leading coefficient
                d_elem = -d_elem
                combo = [(-c, i) for c, i in combo]
            dees.append(IdealGenerator(d_elem, m, tuple(combo)))
        scanned = len(basis)
        if len(ell) == n:
            return CoreDecomposition(n, ell, dees), table
    raise NotAccessibleError(n, table.N, len(ell))


def _inner(e1: AlgElem, e2: AlgElem) -> Fraction:
    """Inner product in which the words are orthonormal."""
    if len(e1.terms) > len(e2.terms):
        e1, e2 = e2, e1
    get = e2.terms.get
    return sum((c * get(w, 0) for w, c in e1.terms.items()), Fraction(0))


def _combine(coeffs, elems: list) -> AlgElem:
    return collect(
        (w, c * cw) for c, e in zip(coeffs, elems) if c for w, cw in e.terms.items()
    )


def build_ideal_blocks(core: CoreDecomposition) -> dict:
    """Orthogonal complement of the right ideal J generated by the d's,
    order by order up to the largest weight by last-letter recursion,
    as blocks at the core orders.  At every order the complement's
    dimension must equal the number of weighted shuffle monomials."""
    dees: dict = {}
    for d in core.dees:
        dees.setdefault(d.order, []).append(d.elem)
    perp = [[AlgElem.scalar(1)]]  # perp[j]: basis of J^perp_j
    for m in range(1, max(core.weights) + 1):
        candidates = [
            AlgElem({w + (k,): c for w, c in y.terms.items()})
            for k in range(m)
            for y in perp[m - k - 1]
        ]
        ech = IntEchelon(len(candidates))
        for d in dees.get(m, ()):
            ech.add(scale_to_int([_inner(d, y) for y in candidates]))
        perp.append([_combine(z, candidates) for z in ech.nullspace_basis()])
        expected = len(weighted_multi_indices(core.weights, m))
        if len(perp[m]) != expected:
            raise InternalConsistencyError(
                f"ideal block at order {m} has codimension {len(perp[m])}, "
                f"but there are {expected} weighted shuffle monomials"
            )
    # 2^(m-1) words of order m
    return {m: IdealBlock(m, 1 << (m - 1), perp[m]) for m in sorted(set(core.weights))}


def project_core(core: CoreDecomposition, blocks: dict) -> list:
    """Orthogonal projection of each l_i onto the complement basis of its
    order, by exact normal equations."""
    out = []
    for l in core.ell:
        basis = blocks[l.order].complement
        gram = [[_inner(u, v) for v in basis] for u in basis]
        beta = solve_square(gram, [_inner(l.elem, u) for u in basis])
        ltilde = _combine(beta, basis)
        if ltilde.is_zero():
            raise InternalConsistencyError(
                f"projected core element at order {l.order} vanished"
            )
        out.append(ltilde)
    return out


# ---------------------------------------------------------------------------
# shuffle polynomial representation

class ShuffleMonomials(dict):
    """Shuffle monomials prod_k generators[k]^{sh q_k} by exponent tuple q,
    each made on first use: as q without a trailing zero, else as q - e_k
    shuffled with generators[k], k the last position.  So one table serves
    every prefix of the generators."""

    def __init__(self, generators: list):
        super().__init__({(): AlgElem.scalar(1)})
        self.generators = generators

    def __missing__(self, q: tuple) -> AlgElem:
        *head, k = q
        self[q] = m = (
            shuffle(self[(*head, k - 1)], self.generators[len(head)]) if k else self[tuple(head)]
        )
        return m


def express_as_shuffle_poly(
    target: AlgElem, monomials: ShuffleMonomials, weights, degree: int
) -> dict:
    """Write a homogeneous element of the given order as a shuffle polynomial
    {q: c} in the first len(weights) generators of `monomials` (q of weighted
    degree = order), or raise NotRepresentableError.  Dependent monomials get
    zero coefficients.  Only the words of the target and the monomials give
    rows: zero rows and the row order change neither echelon form nor solution."""
    qs = weighted_multi_indices(weights, degree)
    terms = [monomials[q].terms for q in qs]
    words = set(target.terms).union(*terms)
    sol = solve_particular(
        [[m.get(w, 0) for w in words] for m in terms],
        [target.terms.get(w, 0) for w in words],
    )
    if sol is None:
        raise NotRepresentableError(target, degree)
    return {q: c for q, c in zip(qs, sol) if c}


# ---------------------------------------------------------------------------
# reconstruction

def _pad_exponents(q, n: int) -> tuple:
    return tuple(q) + (0,) * (n - len(q))


def build_nonautonomous(core: CoreDecomposition, monomials: ShuffleMonomials) -> PolynomialSystem:
    """Non-autonomous approximating system: a = 0 and

        b_i = -sum_j P_{j,i}(x_1..x_{i-1}) t^j

    where splitting l~_i by its last letter gives l~_i = sum_j y_j xi_j and
    P_{j,i} represents y_j as a shuffle polynomial of weighted degree
    w_i - j - 1 in l~_1..l~_{i-1}, the generators of `monomials`.  The word
    xi_{w_i - 1} has the empty prefix, so y_{w_i - 1} is a constant."""
    n = core.n
    weights = core.weights
    b = []
    for i, (w_i, ltilde) in enumerate(zip(weights, monomials.generators)):
        tails: dict = {}
        for word, c in ltilde.terms.items():
            tails.setdefault(word[-1], {})[word[:-1]] = c
        comp: dict = {}
        for j in sorted(tails):
            poly = express_as_shuffle_poly(
                AlgElem(tails[j]), monomials, weights[:i], w_i - j - 1
            )
            for q, c in poly.items():
                comp[(j, _pad_exponents(q, n))] = -c
        b.append(comp)
    return PolynomialSystem(n, weights, [dict() for _ in range(n)], b)


def build_autonomous(
    core: CoreDecomposition, monomials: ShuffleMonomials, nonautonomous: PolynomialSystem
):
    """Autonomous approximating system a_i = -P_i(x), from a shuffle
    polynomial representation P_i of phi(l~_i) of weighted degree w_i - 1,
    and b_i the t^0 part of the non-autonomous b_i, which represents the
    xi_0-tail of l~_i (`monomials`' generators are the l~_i); returns a
    nonexistence witness when some phi image is not representable."""
    n = core.n
    weights = core.weights
    a = []
    for i, (w_i, ltilde) in enumerate(zip(weights, monomials.generators)):
        image = phi(ltilde)
        try:
            poly = express_as_shuffle_poly(image, monomials, weights[:i], w_i - 1)
        except NotRepresentableError:
            return NoAutonomousApproximation(i + 1, "phi", image, w_i - 1)
        a.append({(0, _pad_exponents(q, n)): -c for q, c in poly.items()})
    b = [{k: c for k, c in comp.items() if k[0] == 0} for comp in nonautonomous.b]
    return PolynomialSystem(n, weights, a, b)


# ---------------------------------------------------------------------------
# driver

def approximate(
    sys: ControlSystem, max_order: int = DEFAULT_MAX_ORDER
) -> ApproximationResult:
    """Full pipeline; N is the order of the series table on which
    select_core completed the core (at least min(n, max_order)).  Raises
    EquilibriumError unless the origin is certified an equilibrium."""
    for i, ai in enumerate(sys.a, start=1):
        certify_drift(f"a{i}", ai, sys.n)
    core, table = select_core(SeriesComputer(sys), sys.n, max_order)
    blocks = build_ideal_blocks(core)
    projected = project_core(core, blocks)
    monomials = ShuffleMonomials(projected)  # one table for both systems
    nonautonomous = build_nonautonomous(core, monomials)
    autonomous = build_autonomous(core, monomials, nonautonomous)
    return ApproximationResult(
        system=sys,
        N=table.N,
        table=table,
        core=core,
        blocks=blocks,
        projected=projected,
        nonautonomous=nonautonomous,
        autonomous=autonomous,
    )


def check_self_consistency(result: ApproximationResult) -> None:
    """The output system's own series must reproduce each l~_k exactly at
    order w_k in component k and vanish at all lower orders: its nonzero
    coefficients of order <= w_k in component k are the terms of l~_k."""
    table = SeriesComputer(result.nonautonomous).table_up_to(max(result.weights))
    for k, (w_k, ltilde) in enumerate(zip(result.weights, result.projected)):
        want = ltilde.terms
        got = {w: v[k] for w, v in table.coeffs.items() if word_order(w) <= w_k}
        wrong = [w for w in got.keys() | want if got.get(w, 0) != want.get(w, 0)]
        if wrong:
            word = min(wrong, key=word_sort_key)
            raise InternalConsistencyError(
                f"component {k + 1}, word {word}: series gives "
                f"{exact_str(got.get(word, 0))}, projection demands "
                f"{exact_str(want.get(word, 0))}"
            )


def check_homogeneity(result: ApproximationResult) -> None:
    """Every monomial t^j x^q of component i of either output system has
    weighted degree j + sum_k q_k w_k = w_i - 1.  The self-check reads the
    output's series only up to order w_i, so it cannot see a monomial of
    higher degree."""
    weights = result.weights
    systems = {"non-autonomous": result.nonautonomous}
    if result.autonomous_exists():
        systems["autonomous"] = result.autonomous
    for label, system in systems.items():
        for part, comps in (("a", system.a), ("b", system.b)):
            for i, (w_i, comp) in enumerate(zip(weights, comps), start=1):
                for j, q in comp:
                    degree = j + sum(qk * wk for qk, wk in zip(q, weights))
                    if degree != w_i - 1:
                        raise InternalConsistencyError(
                            f"{label} {part}{i}: t^{j} x^{q} has weighted degree "
                            f"{degree}, not w_{i} - 1 = {w_i - 1}"
                        )
