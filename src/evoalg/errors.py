"""Exception types and input checks shared across the package."""

import numbers

ENUMERATION_BUDGET = 10**6


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition or schema."""


class BudgetError(RuntimeError):
    """Raised when a request exceeds the exact-enumeration budgets."""


def check_budget(count, formula: str, unit: str) -> None:
    """Reject a predicted ``count`` past ``ENUMERATION_BUDGET``; one of 10**20 or more is not printed."""
    if count > ENUMERATION_BUDGET:
        predicted = count if count < 10**20 else "10^20 or more"
        raise BudgetError(f"{formula} = {predicted} {unit} exceed the enumeration budget of {ENUMERATION_BUDGET}")


def shown(value) -> str:
    """A rejected value for an error message: its type, then its repr cut to 60 characters."""
    text = repr(value)
    return f"{type(value).__name__} {text[:60]}{'…' * (len(text) > 60)}"


def written(value) -> str:
    """A rejected integer for an error message: as written up to 60 characters, longer ones as ``shown`` cuts them."""
    text = str(value)
    return text if len(text) <= 60 else shown(value)


def is_index(key) -> bool:
    """Whether ``key`` is an integer, numpy integers included; bools are not."""
    # the exact type test spares plain ints the slow abstract-class check
    return type(key) is int or (isinstance(key, numbers.Integral) and not isinstance(key, bool))


def is_number(value) -> bool:
    """Whether ``value`` is a real number, numpy numbers included; bools are not."""
    return type(value) in (int, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool))
