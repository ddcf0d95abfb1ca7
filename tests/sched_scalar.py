"""Scalar bit reference for schedule evaluation.

The per-point formulas lrkit evaluated one iteration at a time before
evaluation moved to whole-horizon arrays, copied verbatim (``self`` is
the policy value).  Array evaluation must equal these bit for bit, so
tests compare ``float.hex`` of both.  Unlike ``sched_oracle``, which
bounds the error against 50-digit values, this module pins the exact
binary64 results of Python's own libm calls in the original operand
order.
"""
import math
from bisect import bisect_right

from lrkit import Composite, Cyclic, Exp, Fix, Inv, NStep, Poly, ScheduleError, Step

_EXP_KINDS = ("TRIEXP", "SINEXP", "COSEXP")
_HALVING_KINDS = ("TRI2", "SIN2", "COS2")


def _fix(self, t: int, total: int) -> float:
    return self.k


def _step(self, t: int, total: int) -> float:
    return self.k * self.gamma ** (t // self.l)


def _nstep(self, t: int, total: int) -> float:
    return self.k * self.gamma ** bisect_right(self.boundaries, t)


def _exp(self, t: int, total: int) -> float:
    return self.k * self.gamma ** t


def _inv(self, t: int, total: int) -> float:
    return self.k / (1.0 + t * self.gamma) ** self.p


def _poly(self, t: int, total: int) -> float:
    horizon = self.max_iter if self.max_iter is not None else total
    if t > horizon:
        raise ScheduleError(f"POLY evaluated at t={t} past max_iter={horizon}")
    # (horizon - t) / horizon equals 1 - t / horizon with integer
    # subtraction done exactly, avoiding cancellation near the end.
    return self.k * ((horizon - t) / horizon) ** self.p


def _cyclic(self, t: int, total: int) -> float:
    kind, l = self.kind, self.l
    if kind.startswith("TRI"):
        g = (2.0 / math.pi) * abs(math.asin(math.sin(math.pi * t / (2.0 * l))))
    elif kind.startswith("SIN"):
        g = abs(math.sin(math.pi * t / (2.0 * l)))
    else:  # COS*
        g = 0.5 * (1.0 + math.cos(math.pi * t / l))
    if kind in _HALVING_KINDS:
        g *= 0.5 ** (t // (2 * l))
    elif kind in _EXP_KINDS:
        g *= self.gamma ** t
    # Rounding in asin/sin can push g a hair outside [0, 1]; the lr must
    # stay inside the [min(k0,k1), max(k0,k1)] band exactly.
    g = min(max(g, 0.0), 1.0)
    lo = min(self.k0, self.k1)
    hi = max(self.k0, self.k1)
    return min(max(abs(self.k0 - self.k1) * g + lo, lo), hi)


def _composite(self, t: int, total: int) -> float:
    for seg in self.segments:
        if seg.start <= t < seg.end:
            return scalar_lr(seg.policy, t - seg.start, seg.end - seg.start)
    raise ScheduleError(f"iteration {t} falls outside every composite segment")


_FORMULAS = {Fix: _fix, Step: _step, NStep: _nstep, Exp: _exp, Inv: _inv, Poly: _poly,
             Cyclic: _cyclic, Composite: _composite}


def scalar_lr(policy, t: int, total: int) -> float:
    """The rate of ``policy`` at iteration ``t`` by its one-point formula."""
    return _FORMULAS[type(policy)](policy, t, total)


def scalar_series(policy, total: int, stride: int = 1) -> list[float]:
    """Rates at ``t = 0, stride, ...`` below ``total``, one point at a time."""
    return [float(scalar_lr(policy, t, total)) for t in range(0, total, stride)]
