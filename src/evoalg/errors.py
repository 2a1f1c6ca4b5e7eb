"""Exception types and input checks shared across the package."""

import math
import numbers
import sys

ENUMERATION_BUDGET = 10**6


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition or schema."""


class BudgetError(RuntimeError):
    """Raised when a request exceeds the exact-enumeration budgets."""


def check_budget(count, formula: str, unit: str, limit=ENUMERATION_BUDGET, name="enumeration") -> None:
    """Reject a predicted ``count`` past the ``name`` budget ``limit``; one of 10**20 or more is not printed."""
    if count > limit:
        predicted = count if count < 10**20 else "10^20 or more"
        raise BudgetError(f"{formula} = {predicted} {unit} exceed the {name} budget of {limit}")


def shown(value) -> str:
    """A rejected value for an error message: its type, then its repr cut to 60 characters; an integer of more digits
    than the interpreter turns into text (``sys.get_int_max_str_digits``, 0 for no limit), by its digit count."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if isinstance(value, int) and limit and (digits := digit_count(value)) > limit:
        return f"{type(value).__name__} of {digits} digits{', negative' * (value < 0)}"
    return f"{type(value).__name__} {cut(repr(value))}"


def cut(label):
    """A label for an error message: a string cut to 60 characters, plus ``…`` when cut; anything else as it is."""
    return label[:60] + "…" * (len(label) > 60) if isinstance(label, str) else label


def written(value: int) -> str:
    """A rejected integer for an error message: as written up to 60 characters, longer ones as ``shown`` cuts them."""
    return str(value) if digit_count(value) + (value < 0) <= 60 else shown(value)


def digit_count(value: int) -> int:
    """The decimal digits of ``abs(value)``, a Python or numpy integer, from its bit length: ``str`` is never called."""
    size = abs(int(value))
    # 2**(bits-1) <= size < 2**bits gives floor((bits - 1) * log10(2)) + 1 digits or one more, so this start is
    # below the count, or at it where the float product rounds up to the next integer; count up from there
    digits = max(1, int((size.bit_length() - 1) * math.log10(2)))
    while size >= 10**digits:
        digits += 1
    return digits


def is_index(key) -> bool:
    """Whether ``key`` is an integer, numpy integers included; bools are not."""
    # the exact type test spares plain ints the slow abstract-class check
    return type(key) is int or (isinstance(key, numbers.Integral) and not isinstance(key, bool))


def is_number(value) -> bool:
    """Whether ``value`` is a real number, numpy numbers included; bools are not."""
    return type(value) in (int, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool))
