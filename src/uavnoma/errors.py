"""Exception types shared across the package, and how their messages show a
value."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation.

    Carries the name of the model field at fault, when there is one.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class NumericalError(ArithmeticError):
    """A numerical routine failed to reach its target accuracy.

    Carries the best error estimate that was achieved, when one is known.
    """

    def __init__(self, message: str, achieved: float | None = None):
        if achieved is not None:
            message = f"{message} (achieved error estimate {achieved:.3e})"
        super().__init__(message)
        self.achieved = achieved


def shown(value) -> str:
    """``repr(value)`` as an error message echoes it: in full up to 24
    characters, as long as a float's longest, else its first 20 and its
    length."""
    text = repr(value)
    return text if len(text) <= 24 else f"{text[:20]}... ({len(text)} characters)"
