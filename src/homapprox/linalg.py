"""Exact linear algebra over the integers and rationals.

One kernel does every elimination: `IntEchelon`, an incremental
fraction-free row echelon over the integers whose stored rows are kept
primitive (gcd 1), so entries stay small.  Its rows form the reduced row
echelon form up to row scaling, and everything else reads answers off
it: independence filtering and membership, a null space basis, and the
exact solves (leftmost pivots, free variables zero), which eliminate the
augmented matrix [A | b].
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd


def primitive(row: list) -> list:
    """Divide an integer vector by the gcd of its entries."""
    g = 0
    for v in row:
        g = gcd(g, v)
        if g == 1:
            return list(row)
    if g <= 1:
        return list(row)
    return [v // g for v in row]


def scale_to_int(vec) -> list:
    """Scale a rational vector (ints or Fractions) to a primitive integer
    vector on the same line."""
    lcm = 1
    for c in vec:
        if c:
            d = c.denominator
            lcm = lcm * d // gcd(lcm, d)
    return primitive([c.numerator * (lcm // c.denominator) if c else 0 for c in vec])


class IntEchelon:
    """Incremental fraction-free row reduction over the integers.

    Invariant: every stored row is primitive, has a positive pivot (its
    leftmost nonzero entry) and vanishes at the pivot columns of all
    other stored rows, so a candidate can be reduced against the rows in
    any order and the rows are the RREF up to scaling.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[int, list] = {}  # pivot column -> row

    def pivot_columns(self) -> list:
        return sorted(self.rows)

    def reduce(self, vec) -> list:
        v = list(vec)
        for p, row in self.rows.items():
            if v[p]:
                a, b = row[p], v[p]
                v = [a * x - b * y for x, y in zip(v, row)]
        return primitive(v)

    def add(self, vec) -> bool:
        """Insert if independent of the stored rows; report whether kept."""
        v = self.reduce(vec)
        pivot = -1
        for j, val in enumerate(v):
            if val:
                pivot = j
                break
        if pivot < 0:
            return False
        if v[pivot] < 0:
            v = [-x for x in v]
        # restore the mutual-reduction invariant
        for p, row in list(self.rows.items()):
            if row[pivot]:
                a, b = v[pivot], row[pivot]
                new = primitive([a * x - b * y for x, y in zip(row, v)])
                if new[p] < 0:
                    new = [-x for x in new]
                self.rows[p] = new
        self.rows[pivot] = v
        return True

    def nullspace_basis(self) -> list:
        """Primitive integer basis of the kernel of the stored row matrix,
        one vector per free column, ordered by free column."""
        pivots = self.pivot_columns()
        pivot_set = set(pivots)
        out = []
        for free in range(self.width):
            if free in pivot_set:
                continue
            z = [Fraction(0)] * self.width
            z[free] = Fraction(1)
            for p in pivots:
                row = self.rows[p]
                if row[free]:
                    z[p] = Fraction(-row[free], row[p])
            out.append(scale_to_int(z))
        return out


def _augmented_echelon(rows, k: int) -> IntEchelon:
    """Echelon of the augmented rows [a_1 .. a_k | b]."""
    ech = IntEchelon(k + 1)
    for row in rows:
        ech.add(scale_to_int(row))
    return ech


def _read_solution(ech: IntEchelon, k: int) -> list:
    """Particular solution of a consistent augmented echelon: each pivot
    variable from its row, free variables zero."""
    sol = [Fraction(0)] * k
    for p, row in ech.rows.items():
        sol[p] = Fraction(row[k], row[p])
    return sol


def solve_particular(columns: list, target) -> list | None:
    """Exact solution c of sum_j c_j columns[j] = target, or None.

    Leftmost pivot preference: free variables (later columns, when
    earlier ones suffice) are set to zero.
    """
    k = len(columns)
    rows = ([col[i] for col in columns] + [target[i]] for i in range(len(target)))
    ech = _augmented_echelon(rows, k)
    if k in ech.rows:  # b is independent of the columns
        return None
    return _read_solution(ech, k)


def solve_square(matrix: list, rhs: list) -> list:
    """Exact solve of a nonsingular square rational system."""
    k = len(matrix)
    ech = _augmented_echelon(([*row, b] for row, b in zip(matrix, rhs)), k)
    if ech.pivot_columns() != list(range(k)):
        raise ValueError("singular matrix")
    return _read_solution(ech, k)
