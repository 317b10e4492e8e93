"""Exact homogeneous approximations of single-input control-affine systems."""

# expr (and the algebra it renders with) first: without cached bytecode every
# module is compiled on import, and compiling the largest one before the others
# are loaded lowers the peak memory of a rat3 run by about 0.3 MB (Python 3.11,
# x86-64)
from .expr import (
    Expr,
    ExprSyntaxError,
    differentiate,
    eval_at_origin,
    expr_to_str,
    parse_expr,
    simplify,
)
from .algebra import (
    AlgElem,
    concat,
    enumerate_basis,
    phi,
    shuffle,
    word_order,
)
from .approx import (
    ApproximationResult,
    CoreDecomposition,
    NoAutonomousApproximation,
    NotAccessibleError,
    NotRepresentableError,
    PolynomialSystem,
    ShuffleMonomials,
    approximate,
    build_ideal_blocks,
    build_autonomous,
    build_nonautonomous,
    check_homogeneity,
    check_self_consistency,
    express_as_shuffle_poly,
    project_core,
    select_core,
)
from .lie import (
    LieBasisElement,
    build_lie_basis,
    expand_right_normed,
    witt_dimension,
)
from .series import (
    ControlSystem,
    EquilibriumError,
    SeriesComputer,
    SeriesTable,
    system_from_strings,
)

__version__ = "0.1.0"
