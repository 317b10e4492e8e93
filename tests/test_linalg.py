import random
from fractions import Fraction

import pytest

from homapprox.linalg import (
    IntEchelon,
    primitive,
    scale_to_int,
    solve_particular,
    solve_square,
)
from rowspace import row_space_canonical

F = Fraction


def test_primitive():
    assert primitive([4, -6, 2]) == [2, -3, 1]
    assert primitive([0, 0]) == [0, 0]
    assert primitive([7]) == [1]
    assert primitive([-3, -6]) == [-1, -2]


def test_scale_to_int():
    assert scale_to_int([F(1, 2), F(1, 3)]) == [3, 2]
    assert scale_to_int([F(2), F(-4)]) == [1, -2]
    assert scale_to_int([F(0), F(5, 7)]) == [0, 1]


def test_echelon_rank_and_membership():
    ech = IntEchelon(3)
    assert ech.add([1, 2, 3])
    assert not ech.add([2, 4, 6])
    assert ech.add([0, 1, 1])
    assert len(ech.rows) == 2
    assert not any(ech.reduce([1, 3, 4]))  # sum of the two
    assert any(ech.reduce([0, 0, 1]))
    assert ech.add([0, 0, 1])
    assert len(ech.rows) == 3
    assert not any(ech.reduce([5, -7, 11]))


def test_echelon_mutual_reduction_invariant():
    rng = random.Random(42)
    for _ in range(20):
        width = rng.randrange(2, 6)
        ech = IntEchelon(width)
        for _ in range(rng.randrange(1, 7)):
            ech.add([rng.randrange(-5, 6) for _ in range(width)])
        pivots = ech.pivot_columns()
        for p in pivots:
            row = ech.rows[p]
            assert row[p] > 0
            assert primitive(row) == row
            for q in pivots:
                if q != p:
                    assert row[q] == 0


def solve_oracle_check(columns, target, sol):
    for i in range(len(target)):
        assert sum(F(c[i]) * s for c, s in zip(columns, sol)) == F(target[i])


def test_solve_particular_prefers_leftmost():
    cols = [[1, 0], [1, 0], [0, 1]]
    sol = solve_particular(cols, [3, 5])
    assert sol == [F(3), F(0), F(5)]
    solve_oracle_check(cols, [3, 5], sol)


def test_solve_particular_inconsistent():
    assert solve_particular([[1, 0]], [0, 1]) is None
    assert solve_particular([], [1]) is None
    assert solve_particular([], [0]) == []


def test_solve_particular_random_consistency():
    rng = random.Random(7)
    for _ in range(40):
        dim = rng.randrange(1, 5)
        k = rng.randrange(1, 5)
        cols = [[rng.randrange(-4, 5) for _ in range(dim)] for _ in range(k)]
        coeffs = [F(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(k)]
        target = [
            sum(c * F(col[i]) for c, col in zip(coeffs, cols))
            for i in range(dim)
        ]
        sol = solve_particular(cols, target)
        assert sol is not None
        solve_oracle_check(cols, target, sol)


def test_solve_square_published_normal_equations():
    # the 2x2 system that appears when projecting the order-3 element
    assert solve_square([[1, -1], [-1, 6]], [0, 2]) == [F(2, 5), F(2, 5)]


def test_solve_square_errors():
    with pytest.raises(ValueError):
        solve_square([[1, 2], [2, 4]], [1, 1])


def test_nullspace_annihilates_rows():
    rng = random.Random(19)
    for _ in range(25):
        width = rng.randrange(2, 7)
        ech = IntEchelon(width)
        stored = []
        for _ in range(rng.randrange(1, width + 2)):
            vec = [rng.randrange(-4, 5) for _ in range(width)]
            if ech.add(vec):
                stored.append(vec)
        kernel = ech.nullspace_basis()
        assert len(kernel) == width - len(ech.rows)
        for z in kernel:
            assert primitive(z) == z
            for row in stored:
                assert sum(a * b for a, b in zip(row, z)) == 0
        # kernel vectors are independent: one per distinct free column
        check = IntEchelon(width)
        for z in kernel:
            assert check.add(z)


def test_row_space_canonical_permutation_invariant():
    rows_a = [[2, 4, 0], [0, 0, 3], [2, 4, 3]]
    rows_b = [[1, 2, 5], [0, 0, 1]]
    assert row_space_canonical(rows_a) == row_space_canonical(rows_b)
    assert row_space_canonical([[0, 1]]) != row_space_canonical([[1, 0]])
