"""Exception hierarchy shared across the library."""


class MWLabError(Exception):
    """Base class for all library errors."""


class SpecValidationError(MWLabError):
    """A system description failed schema or semantic validation."""

    def __init__(self, message, field=None):
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class GeometryError(MWLabError):
    """Degenerate or out-of-contract geometric input."""


class PreconditionError(MWLabError):
    """An operation was called outside its stated precondition."""


class BudgetExceededError(MWLabError):
    """The requested computation would exceed the configured point budget.

    `required` is the exact path count when it fits in int64, else None.
    """

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class ResolutionError(MWLabError):
    """The requested resolution cannot be represented or reached, e.g. a
    certificate finer than float64 grid keys can resolve, or an image with
    more pixels than the renderer allows."""
