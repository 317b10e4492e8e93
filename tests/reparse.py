"""An output system's printed text, fed back through the input parser."""
from homapprox.report import polynomial_str
from homapprox.series import ControlSystem, system_from_strings


def reparsed(psys) -> ControlSystem:
    """The ControlSystem parsed from the text report's form of each
    monomial map of a PolynomialSystem."""
    return system_from_strings(
        psys.n, map(polynomial_str, psys.a), map(polynomial_str, psys.b)
    )
