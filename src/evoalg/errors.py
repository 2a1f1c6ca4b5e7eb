"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition or schema."""


class BudgetError(RuntimeError):
    """Raised when a request exceeds the exact-enumeration budgets."""


def shown(value) -> str:
    """A rejected value for an error message: its type, then its repr cut to 60 characters."""
    text = repr(value)
    return f"{type(value).__name__} {text[:60]}{'…' * (len(text) > 60)}"
