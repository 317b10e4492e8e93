"""The autonomous approximating system as `approx.build_autonomous` built
it before it read b off the non-autonomous system: a second shuffle
polynomial solve, on psi(l~_i).  `approx.build_autonomous` must return
the same system, or the same witness."""
from homapprox.algebra import AlgElem, phi
from homapprox.approx import (
    NoAutonomousApproximation,
    NotRepresentableError,
    PolynomialSystem,
    ShuffleMonomials,
    express_as_shuffle_poly,
)


def psi(e: AlgElem) -> AlgElem:
    """Drops a trailing xi_0 (psi(xi_0) = 1); words not ending in xi_0
    are sent to zero.  Lowers order by exactly 1 on its support."""
    return AlgElem({w[:-1]: c for w, c in e.terms.items() if w and w[-1] == 0})


def reference_autonomous(core, projected):
    """a_i = -P_{1,i}(x), b_i = -P_{2,i}(x) from shuffle polynomial
    representations of phi(l~_i) and psi(l~_i) of weighted degree
    w_i - 1; a nonexistence witness when some image is not representable."""
    n = core.n
    weights = core.weights
    monomials = ShuffleMonomials(projected)
    a, b = [], []
    for i, (w_i, ltilde) in enumerate(zip(weights, projected)):
        for kind, image, bucket in (("phi", phi(ltilde), a), ("psi", psi(ltilde), b)):
            try:
                poly = express_as_shuffle_poly(image, monomials, weights[:i], w_i - 1)
            except NotRepresentableError:
                return NoAutonomousApproximation(i + 1, kind, image, w_i - 1)
            pad = (0,) * (n - i)
            bucket.append({(0, q + pad): -c for q, c in poly.items()})
    return PolynomialSystem(n, weights, a, b)
