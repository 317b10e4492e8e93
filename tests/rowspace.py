"""Canonical form of a rational row space, for span comparisons in tests."""
from dense import vectorize
from homapprox.linalg import IntEchelon, scale_to_int


def row_space_canonical(rows: list) -> tuple:
    """The primitive reduced rows of the span, by pivot column: equal for
    two lists of rows exactly when they span the same space."""
    ech = IntEchelon(len(rows[0]) if rows else 0)
    for row in rows:
        ech.add(scale_to_int(row))
    return tuple((p, tuple(row)) for p, row in sorted(ech.rows.items()))


def spans_ideal_block(rows: list, block) -> bool:
    """Whether the rows (over the words of the block's order) span the
    ideal's component there: each is orthogonal to every complement
    vector, and their rank plus the complement's dimension is the
    number of words."""
    complement = [vectorize(c, block.order) for c in block.complement]
    orthogonal = all(
        sum(a * b for a, b in zip(row, c)) == 0 for row in rows for c in complement
    )
    return orthogonal and len(row_space_canonical(rows)) + len(complement) == block.dim
