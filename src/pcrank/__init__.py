"""Priority rankings from incomplete pairwise-comparison matrices.

Given judgments ``c_ij`` (how many times alternative i is preferred over j),
possibly with missing pairs, and fixed priorities for a reference subset of
alternatives, compute the remaining priorities by the arithmetic-mean or
geometric-mean estimation method.  Classical eigenvector and geometric-mean
baselines for complete matrices are included for cross-checking.
"""

from types import ModuleType as _ModuleType

from .arithmetic import ArithmeticSystem, build_arithmetic_system, solve_arithmetic
from .baselines import BaselineResult, evm, gmm
from .errors import (
    DegenerateRowError,
    KnownComparisonWarning,
    NoConvergenceError,
    NonPositiveSolutionError,
    NotConnectedError,
    ParseError,
    PcrankError,
    ReciprocityError,
    SingularMatrixError,
    StructureError,
)
from .formats import (
    Problem,
    format_value,
    parse_known,
    parse_problem,
    parse_value,
    serialize_problem,
    serialize_ranking,
)
from .geometric import GeometricSystem, build_geometric_system, solve_geometric
from .matrix import (
    DEFAULT_TOL,
    MISSING,
    Diagnostics,
    PCMatrix,
    Partition,
    Ranking,
    ReciprocityViolation,
    TriadDeviation,
    check_connectivity,
    check_consistency,
    diagnose,
    ensure_solvable,
    fill_missing,
    undefined_counts,
    validate_reciprocity,
)

__version__ = "0.1.0"

# The imports above state the public names.  Modules are left out because the
# relative imports bind the submodules too; tests/test_public_api.py pins it.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
