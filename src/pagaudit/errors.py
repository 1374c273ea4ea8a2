"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: input problems (2), background-knowledge
inconsistencies (3), anything else (4).
"""

from numbers import Integral, Real

__all__ = [
    "PagauditError", "InputError", "SchemaError", "DegenerateInputError", "FitError",
    "KnowledgeInconsistencyError", "InternalConsistencyError", "require_number", "require_alpha",
]


class PagauditError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PagauditError):
    """Malformed or out-of-contract input: unknown nodes, bad CSV, bad schema."""


class SchemaError(InputError):
    """Dataset schema violation (kind mismatch, arity overflow, missing value)."""


class DegenerateInputError(InputError):
    """Numerically degenerate input, e.g. a singular correlation submatrix."""


class FitError(InputError):
    """Model fitting cannot proceed, e.g. an outcome column with one class."""


class KnowledgeInconsistencyError(PagauditError):
    """Background knowledge contradicts itself or the evidence in the graph."""


class InternalConsistencyError(PagauditError):
    """A pipeline stage received state that violates its preconditions."""


def require_number(name: str, value, whole: bool = False) -> None:
    """Raise ``InputError`` naming ``name`` unless ``value`` is a real number,
    or a whole one if ``whole``; numpy numbers count, bools do not."""
    if isinstance(value, bool) or not isinstance(value, Integral if whole else Real):
        kind = "a whole number" if whole else "a real number"
        raise InputError(f"{name} must be {kind}, got {value!r}")


def require_alpha(alpha) -> None:
    """Raise ``InputError`` unless ``alpha``, a test's significance level, is
    a real number strictly between 0 and 1."""
    require_number("alpha", alpha)
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must be in (0, 1), got {alpha}")
