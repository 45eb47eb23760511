"""Exception hierarchy shared across the toolkit."""

from typing import Optional


class EdimkitError(Exception):
    """Base class for all toolkit errors."""


class ClosureTooLarge(EdimkitError):
    """Group closure exceeded the configured element cap."""


class NotNormal(EdimkitError):
    """Subgroup is not normal in its parent."""


class NotAbelian(EdimkitError):
    """Subgroup is not abelian."""


class NotCentral(EdimkitError):
    """Subgroup is not central."""


class SearchBudgetExceeded(EdimkitError):
    """Exhaustive search exceeded its configured budget."""


class PreconditionViolated(EdimkitError):
    """Caller-supplied data violates a documented precondition."""


class BackendLimit(EdimkitError):
    """Input exceeds a hard backend limit (order or class count)."""


class InternalInconsistency(EdimkitError):
    """An internal self-check failed; indicates a bug, never bad input."""


class NotSemiFaithful(EdimkitError):
    """Group admits no completely reducible faithful representation."""


class OutOfScope(EdimkitError):
    """Requested value is not certified under the given field."""


class HypothesisFailed(EdimkitError):
    """A theorem hypothesis required by this code path does not hold."""

    def __init__(self, clause: str):
        super().__init__(clause)
        self.clause = clause


class FactConflict(EdimkitError):
    """A literature fact contradicts a derived bound or another fact."""


class ParseError(EdimkitError):
    """Malformed input text; `position` is the character offset of the fault
    in the text, or None where no single offset is known."""

    def __init__(self, message: str, position: Optional[int] = None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class LambdaNotInjective(EdimkitError):
    """One-parameter subgroup fails to separate the occurring weights."""


class NotMultihomogeneous(EdimkitError):
    """Map component carries more than one weight per source block."""


class InvalidRefinement(EdimkitError):
    """Proposed grading does not refine the existing one."""


class ShapeMismatch(EdimkitError):
    """Matrix shapes do not match the gradings."""


class NotEquivariant(EdimkitError):
    """Map fails the symbolic equivariance check."""


class NonScalar(InternalInconsistency):
    """Central element failed to act as a scalar on an irreducible row."""
