"""Exception types shared across the package."""

import numbers


class LadderLabError(Exception):
    """Base class for all package errors."""


class DomainError(LadderLabError):
    """Argument outside the documented domain of an operation."""


class ToleranceError(LadderLabError):
    """Requested tolerance could not be met. Carries the best estimate."""

    def __init__(self, message, best_value=None, best_error=None):
        super().__init__(message)
        self.best_value = best_value
        self.best_error = best_error


class BracketError(LadderLabError):
    """A root is not where its defining equation puts it, or a solve stalled."""


class CacheCorruptionError(LadderLabError):
    """Persisted checkpoint data violates its invariants."""


class InfeasibleError(LadderLabError):
    """A requested evaluation violates a feasibility guard."""


def require_int(value, least: int, what: str) -> int:
    """value as an int, an integral float too; anything else, a bool among
    them, or a value below least, is refused with DomainError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def attempt(fn, *args):
    """fn(*args), or the LadderLabError it raised, for batched calls that
    keep one result or error per item."""
    try:
        return fn(*args)
    except LadderLabError as exc:
        return exc


def unwrap(result):
    """The value of one batched result, raising the LadderLabError it holds
    instead; the inverse of attempt."""
    if isinstance(result, LadderLabError):
        raise result
    return result
