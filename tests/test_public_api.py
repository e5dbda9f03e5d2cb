"""The package's public names.  ``pcrank.__all__`` is derived from the
imports in ``pcrank/__init__.py``; the literal below makes every change to
the public surface show up in review."""

from types import ModuleType

import pcrank

PUBLIC_NAMES = [
    "ArithmeticSystem",
    "BaselineResult",
    "DEFAULT_TOL",
    "DegenerateRowError",
    "Diagnostics",
    "GeometricSystem",
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


def test_all_is_the_pinned_list():
    assert pcrank.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves_and_none_is_a_module():
    for name in pcrank.__all__:
        assert not isinstance(getattr(pcrank, name), ModuleType), name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from pcrank import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(pcrank.__all__)
