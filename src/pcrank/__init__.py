"""Priority rankings from incomplete pairwise-comparison matrices.

Given judgments ``c_ij`` (how many times alternative i is preferred over j),
possibly with missing pairs, and fixed priorities for a reference subset of
alternatives, compute the remaining priorities by the arithmetic-mean or
geometric-mean estimation method.  Classical eigenvector and geometric-mean
baselines for complete matrices are included for cross-checking.
"""

from .arithmetic import ArithmeticSystem, build_arithmetic_system, solve_arithmetic
from .baselines import BaselineResult, evm, gmm
from .errors import (
    DegenerateRowError,
    IncompleteMatrixError,
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

__all__ = [
    "ArithmeticSystem",
    "BaselineResult",
    "DEFAULT_TOL",
    "DegenerateRowError",
    "Diagnostics",
    "GeometricSystem",
    "IncompleteMatrixError",
    "KnownComparisonWarning",
    "MISSING",
    "NoConvergenceError",
    "NonPositiveSolutionError",
    "NotConnectedError",
    "PCMatrix",
    "ParseError",
    "Partition",
    "PcrankError",
    "Problem",
    "Ranking",
    "ReciprocityError",
    "ReciprocityViolation",
    "SingularMatrixError",
    "StructureError",
    "TriadDeviation",
    "build_arithmetic_system",
    "build_geometric_system",
    "check_connectivity",
    "check_consistency",
    "diagnose",
    "ensure_solvable",
    "evm",
    "fill_missing",
    "format_value",
    "gmm",
    "parse_known",
    "parse_problem",
    "parse_value",
    "serialize_problem",
    "serialize_ranking",
    "solve_arithmetic",
    "solve_geometric",
    "undefined_counts",
    "validate_reciprocity",
]
