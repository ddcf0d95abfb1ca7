"""Shared exception hierarchy and the one rule for counts.

Every domain error raised by this package derives from LrKitError so the
CLI can map them to a single exit code without enumerating modules.
Every count a public entry point takes (a budget, a seed, a stride) is
held to :func:`is_count`, mostly by :func:`check_count`, once and before
anything is allocated, trained or written; a refusal raises that module's
error.  A count that sizes an array is allocated under :func:`allocating`,
so one too large for numpy is refused with that error too.
"""
from __future__ import annotations

from contextlib import contextmanager


class LrKitError(ValueError):
    """Base class for all domain errors raised by lrkit."""


class PolicyFormatError(LrKitError):
    """Malformed policy document: bad JSON, unknown type, missing or extra fields."""


class ScheduleError(LrKitError):
    """Invalid schedule evaluation or a policy that fails validation."""


class OptimizerError(LrKitError):
    """Invalid optimizer construction or update inputs."""


class TaskError(LrKitError):
    """Unknown task spec, bad task parameters, or unreadable data files."""


class TunerError(LrKitError):
    """Search or plateau-composition request that cannot be satisfied."""


class VerifyError(LrKitError):
    """Verification workflow failure, e.g. too short a run for estimates."""


class DbError(LrKitError):
    """Policy store failure: version mismatch, corrupt line, bad import."""


def is_count(value) -> bool:
    """A count is a Python ``int`` and not a ``bool``: never a float or a numpy integer."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_count(error: type[LrKitError], name: str, value, low: int = 1, rule: str = "") -> None:
    """Raise ``error("<name> must be <rule>, got <value!r>")`` unless ``value`` is a
    count >= ``low``; ``rule`` defaults to ``an integer``, or ``>= <low>`` for a count."""
    if not (is_count(value) and value >= low):
        rule = rule or (f">= {low}" if is_count(value) else "an integer")
        raise error(f"{name} must be {rule}, got {value!r}")


# How numpy words its ValueError for an array past the largest size it can address.
_NUMPY_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded",
                  "Maximum allowed size exceeded")


@contextmanager
def allocating(error: type[LrKitError], name: str, value):
    """Raise ``error`` naming the count ``value`` when the arrays it sizes cannot be
    allocated: numpy's ``MemoryError``, or its ``ValueError`` past the largest size.
    Every other error, such as a task init's own ``ValueError``, passes unchanged."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(_NUMPY_TOO_BIG):
            raise
        raise error(f"{name} is too large to allocate, got {value!r}") from exc
