"""Verdict of a residual order check, for tests: the report prints each
control's slope and the required slope, and leaves the verdict to its
reader."""


def order_check_passed(result) -> bool:
    """Every fitted slope reaches the required slope; residuals at the
    noise floor (slope None) beat any slope bound."""
    return all(
        c.slope is None or c.slope >= result.required_slope for c in result.checks
    )
