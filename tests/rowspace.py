"""Canonical form of a rational row space, for span comparisons in tests."""
from homapprox.linalg import IntEchelon, scale_to_int


def row_space_canonical(rows: list) -> tuple:
    """The primitive reduced rows of the span, by pivot column: equal for
    two lists of rows exactly when they span the same space."""
    ech = IntEchelon(len(rows[0]) if rows else 0)
    for row in rows:
        ech.add(scale_to_int(row))
    return tuple((p, tuple(row)) for p, row in sorted(ech.rows.items()))
