"""Exception hierarchy shared by the library and the CLI.

Every error carries a stable machine-readable ``code`` (what the CLI prints
on stderr) and the exit code the CLI maps it to: 2 for input/validation
problems, 3 for solver failures.
"""

from __future__ import annotations


class PcrankError(Exception):
    """Base class for all pcrank errors."""

    code = "ERROR"
    exit_code = 2


class ParseError(PcrankError, ValueError):
    """Input text could not be parsed."""

    code = "PARSE_ERROR"

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class StructureError(PcrankError, ValueError):
    """Input data violates a structural invariant (bad diagonal, nonpositive
    entry, asymmetric missingness, unknown label, unusable partition)."""

    code = "PARSE_ERROR"


class ReciprocityError(PcrankError):
    """The matrix is not reciprocal within tolerance."""

    code = "RECIPROCITY_VIOLATION"

    def __init__(self, violations):
        self.violations = tuple(violations)
        pairs = ", ".join(f"({v.i},{v.j})" for v in self.violations[:5])
        extra = "" if len(self.violations) <= 5 else f" and {len(self.violations) - 5} more"
        super().__init__(
            f"{len(self.violations)} non-reciprocal pair(s): {pairs}{extra}"
        )


class DegenerateRowError(PcrankError):
    """An unknown alternative has no defined comparison at all."""

    code = "DEGENERATE_ROW"

    def __init__(self, rows):
        self.rows = tuple(rows)
        super().__init__(
            f"unknown alternative(s) {list(self.rows)} have no defined comparisons"
        )


class NotConnectedError(PcrankError):
    """Some unknown alternative cannot reach any known alternative through
    defined comparisons, so its priority is undetermined."""

    code = "NOT_CONNECTED"

    def __init__(self, isolated):
        self.isolated = tuple(isolated)
        super().__init__(
            f"unknown alternative(s) {list(self.isolated)} are not connected "
            f"to any known alternative"
        )


class SingularMatrixError(PcrankError):
    """The linear system has no unique solution."""

    code = "SINGULAR_MATRIX"
    exit_code = 3


class NonPositiveSolutionError(PcrankError):
    """The arithmetic solver produced a negative priority, which has no
    ranking interpretation (inconsistency too large for the method)."""

    code = "NON_POSITIVE_SOLUTION"
    exit_code = 3

    def __init__(self, values):
        self.values = tuple(float(v) for v in values)
        bad = [i for i, v in enumerate(self.values) if v <= 0.0]
        super().__init__(f"computed priorities {bad} are not positive")


class NoConvergenceError(PcrankError):
    """Power iteration did not converge within the iteration budget."""

    code = "NO_CONVERGENCE"
    exit_code = 3


class KnownComparisonWarning(UserWarning):
    """Comparisons among known alternatives disagree with their fixed
    priorities; such entries are ignored by the solvers."""
