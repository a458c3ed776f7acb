"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class NumericalError(ArithmeticError):
    """A numerical routine failed to reach its target accuracy.

    Carries the best error estimate that was achieved, when one is known.
    """

    def __init__(self, message: str, achieved: float | None = None):
        if achieved is not None:
            message = f"{message} (achieved error estimate {achieved:.3e})"
        super().__init__(message)
        self.achieved = achieved
