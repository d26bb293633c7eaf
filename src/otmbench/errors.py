"""Shared exception types and the integer check every record uses.

The CLI maps these onto exit codes (invariant violation -> 2, resource
budget -> 3); plain ValueError covers malformed input (-> 4).
"""

import numbers


class InvariantViolationError(RuntimeError):
    """A checked internal invariant failed at runtime."""


class ResourceLimitError(RuntimeError):
    """An operation refused to start, or stopped, because it would exceed
    an explicit enumeration/time budget.

    May carry a partial result in ``partial``.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


def _check_int(name: str, value) -> int:
    """value as an int: a Python or numpy integer, not a bool (a float of
    integral value is refused too); ValueError naming the field otherwise.
    A plain int, the common case, skips the slower abstract-class check."""
    if type(value) is int:
        return value
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)
