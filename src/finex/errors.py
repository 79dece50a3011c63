"""Exception types shared across the package."""


class FinexError(Exception):
    """Base class for all finex-specific errors."""


class DomainError(FinexError, ValueError):
    """An argument violates an operation's precondition."""


class ExchangeabilityError(DomainError):
    """Sequence probabilities are not permutation symmetric."""


class NormalizationError(DomainError):
    """Probabilities do not sum to one within tolerance."""


class CapacityError(FinexError):
    """A table would not fit.

    A dense object (a tensor-space matrix, an LP listing) past
    config.DENSE_CAP, or a composition table past numpy's largest array or
    Python's recursion limit.
    """


class SolverFailure(FinexError):
    """A numerical routine failed to reach its required accuracy."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
