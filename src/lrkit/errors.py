"""Shared exception hierarchy and the one rule each for counts, reals and sequences.

Every domain error raised by this package derives from LrKitError so the
CLI can map them to a single exit code without enumerating modules.  Each count
a public entry point takes (a budget, a seed) is held to :func:`check_count`,
each real (a rate, a target) to :func:`check_real`, and each sequence (seeds,
candidates, records) to :func:`check_items`, once and before anything is
allocated, trained or written; a refusal raises that module's error.
:func:`allocating` refuses a count too large for numpy with it too.
"""
from __future__ import annotations

import math
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


def is_real(value) -> bool:
    """A real is a Python ``int`` or ``float`` (so ``np.float64``) and not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def real_float(value) -> float:
    """A real read as a float, an int past the float range as +-inf, as JSON reads ``1e400``."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# Rules several modules hold reals to, each as check_real's ``ok, rule``.
POSITIVE = (lambda v: 0.0 < v < math.inf, "positive and finite")
OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "in (0, 1)")
CLOSED_UNIT = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def check_real(error: type[LrKitError], name: str, value, ok, rule: str) -> float:
    """The reading of ``value`` if it is a real that ``ok`` accepts (NaN fails every ordered
    ``ok``); else raises ``error("<name> must be <rule>, got <value!r>")``."""
    if is_real(value) and ok(reading := real_float(value)):
        return reading
    raise error(f"{name} must be {rule}, got {value!r}")


def check_items(error: type[LrKitError], name: str, value, least: int = 1) -> list:
    """``value``'s items as a list; a str, bytes, dict or non-iterable raises ``error`` naming
    ``value``, and fewer than ``least`` items ``error("<name> must not be empty")``."""
    try:
        if isinstance(value, (str, bytes, dict)):
            raise TypeError
        it = iter(value)
    except TypeError:
        raise error(f"{name} must be a list or other non-string iterable, got {value!r}") from None
    # Read outside the try, so a caller's generator raises its own errors.
    if len(items := list(it)) < least:
        raise error(f"{name} must not be empty")
    return items


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
