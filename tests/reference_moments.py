"""The moments as `verify.evaluate_moments` integrated them before its
integer kernel: polynomials in Fractions, piece by piece.
`verify.evaluate_moments` must return exactly the same dict.  Also the
word list that the tests pass for "all moments up to order N"."""
from fractions import Fraction

from homapprox.algebra import enumerate_basis, word_sort_key


def all_words(N):
    """Every word of order <= N, in canonical order."""
    return [w for m in range(1, N + 1) for w in enumerate_basis(m)]


def reference_moments(control, words):
    suffixes = {w[i:] for w in words for i in range(len(w))}
    words = sorted(suffixes, key=word_sort_key)
    values = {(): Fraction(1), **dict.fromkeys(words, Fraction(0))}
    k = len(control.values)
    for j, u in enumerate(control.values):
        start, end, c = Fraction(j, k), Fraction(j + 1, k), Fraction(u)
        polys = {(): [Fraction(1)]}  # coefficients by ascending power of s
        for w in words:
            m1 = w[0]
            poly = [Fraction(0)] * (m1 + 1) + [
                c * a / (m1 + 1 + i) for i, a in enumerate(polys[w[1:]])
            ]
            poly[0] = values[w] - _at(poly, start)
            polys[w] = poly
            values[w] = _at(poly, end)
    return values


def _at(poly, s):
    out = Fraction(0)
    for a in reversed(poly):
        out = out * s + a
    return out
