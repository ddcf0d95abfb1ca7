"""Learning-rate schedule policies.

Every policy is an immutable value evaluated as a pure function of the
training iteration, so schedules can be validated, serialized, compared,
and replayed independently of any training loop.

Two families share one evaluation contract:

* decaying policies scale a base rate ``k`` by a decay factor ``g(t)``
  in ``(0, 1]``: STEP, NSTEP, EXP, INV, POLY (FIX is the degenerate
  ``g = 1`` case);
* cyclic policies oscillate between two positive bounds ``k0`` and
  ``k1``: ``lr(t) = |k0 - k1| * g(t) + min(k0, k1)`` with ``g(t)`` in
  ``[0, 1]``.  The base waveform is triangular (TRI), rectified sine
  (SIN), or raised cosine (COS); the ``*2`` variants halve the envelope
  every two cycle lengths and the ``*EXP`` variants multiply it by
  ``gamma ** t``.

COMPOSITE stitches non-composite policies over contiguous iteration
segments.  Each segment evaluates its inner policy on a segment-local
clock (iteration ``t - start``), so a cyclic stage restarts its phase at
every boundary and a POLY stage without an explicit ``max_iter`` decays
over its own segment length.

Construction is permissive (it holds an int rate or gamma as its float);
:func:`validate_policy` reports every problem over a horizon as data, and
:func:`check_policy` raises them as one :class:`ScheduleError`.  Evaluation
takes valid policies alone: it raises :func:`check_policy`'s error first,
then refuses an iteration outside the horizon.  A horizon is a positive
integer below ``2**53``, where iterations stop converting to floats exactly,
and a count or boundary field past it is reported beside every other problem.
Documents write a range-invalid policy as it is, and refuse a malformed
value (not a policy, a field :func:`policy_from_doc` would refuse, an
unknown cyclic ``kind``) with :class:`PolicyFormatError`.

A policy class declares itself once; validation, document I/O and
evaluation are derived from the declaration.  ``TYPE`` is the document's
``"type"`` tag (a cyclic policy's is its ``kind``).  Each parameter is a
dataclass field whose metadata names its kind: a positive rate, a unit
gamma in ``(0, 1)``, an integer count ``>= 1``, or boundaries.  A field
whose default is ``None`` is optional; one whose metadata lists ``only``
tags is taken, and required, by those tags alone.  ``_lr(ts, total)`` is
the formula, written once over an integer array of iterations, and
``_problems(total)`` is extended only for a rule that spans fields.
Document keys follow field order.

Precision rule: a policy's whole horizon is evaluated in one pass
(:func:`lr_values`), and every rate equals, bit for bit, the scalar
formula evaluated one iteration at a time.  numpy does only correctly
rounded IEEE operations, in the formula's operand order: ``+ - * /``,
``abs``, ``minimum``/``maximum``, integer ``//`` and the exact int to
float conversion of an iteration below ``2**53``.  Every libm call
(``sin``, ``asin``, ``cos``, float ``**``) stays Python's own,
``math.sin`` or ``pow``, mapped over the elements; ``np.sin``,
``np.arcsin`` and ``np.power`` may round differently and are never used.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import PolicyFormatError, ScheduleError, check_count, is_count, is_real, real_float

__all__ = [
    "Fix",
    "Step",
    "NStep",
    "Exp",
    "Inv",
    "Poly",
    "Cyclic",
    "Segment",
    "Composite",
    "LRPolicy",
    "ScheduleSeries",
    "CYCLIC_KINDS",
    "POLICY_TYPES",
    "validate_policy",
    "check_policy",
    "check_horizon",
    "eval_lr",
    "lr_values",
    "schedule_series",
    "series_to_csv",
    "policy_to_doc",
    "policy_from_doc",
    "parse_policy",
    "serialize_policy",
]

# Cyclic waveform names: base waveform plus envelope suffix.
CYCLIC_KINDS = (
    "TRI", "TRI2", "TRIEXP",
    "SIN", "SIN2", "SINEXP",
    "COS", "COS2", "COSEXP",
)
_EXP_KINDS = ("TRIEXP", "SINEXP", "COSEXP")
_HALVING_KINDS = ("TRI2", "SIN2", "COS2")

_INT_LIMIT = 2**53  # iterations below it convert to floats exactly, with int64 room to spare


# ---------------------------------------------------------------------------
# field kinds

def _below_limit(name: str, value) -> str | None:
    """The violation of an int, or a tuple holding one, at or past :data:`_INT_LIMIT`."""
    shown = list(value) if isinstance(value, tuple) else value
    if any(is_count(v) and v >= _INT_LIMIT for v in (shown if isinstance(shown, list) else [shown])):
        return f"{name} must be below 2**53, got {shown!r}"
    return None


def _must(ok: Callable[[object], bool], phrase: str) -> Callable[[str, object], str | None]:
    """Range check reporting ``<name> must <phrase>, got <value>`` unless ``ok(value)``."""
    return lambda name, value: None if ok(value) else f"{name} must {phrase}, got {value!r}"


def _count_problem(name: str, n) -> str | None:
    return _below_limit(name, n) or (None if is_count(n) and n >= 1
                                     else f"{name} must be an integer >= 1, got {n!r}")


def _bounds_problem(name: str, bs) -> str | None:
    if len(bs) == 0:
        return f"{name} must not be empty"
    if wide := _below_limit(name, bs):
        return wide
    if not all(is_count(b) for b in bs):
        return f"{name} must be integers, got {list(bs)!r}"
    if bs[0] < 1 or any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
        return f"{name} must be strictly increasing positive integers, got {list(bs)!r}"
    return None


class _Kind(NamedTuple):
    """How one kind of field is range-checked, read from and written to a document."""

    problem: Callable[[str, object], str | None]  # validate_policy's range check
    accepts: Callable[[object], bool]  # policy_from_doc's JSON type check
    want: str  # what ``accepts`` wants, for its error message
    load: Callable = lambda value: value
    dump: Callable = lambda value: value


# Field metadata, one per kind.
_RATE = {"kind": _Kind(_must(lambda v: is_real(v) and 0.0 < real_float(v) < math.inf,
                             "be a positive finite number"), is_real, "a number", real_float)}
_UNIT = {"kind": _Kind(_must(lambda v: is_real(v) and 0.0 < v < 1.0, "lie in (0, 1)"),
                       is_real, "a number", real_float)}
_COUNT = {"kind": _Kind(_count_problem, is_count, "an integer")}
_BOUNDS = {"kind": _Kind(_bounds_problem,
                         lambda v: isinstance(v, (list, tuple)) and all(map(is_count, v)),
                         "a list of integers", tuple, list)}


def _wrong_type(name: str, kind: _Kind, value) -> str | None:
    """How :func:`policy_from_doc` words its refusal of ``value`` for a ``kind`` field."""
    return None if kind.accepts(value) else f"field {name!r} must be {kind.want}, got {value!r}"


# ---------------------------------------------------------------------------
# libm calls, one element at a time (see the precision rule)

def _each(xs: np.ndarray, *fns) -> np.ndarray:
    """Apply ``fns`` in turn to every element of ``xs`` as a Python float."""
    it = memoryview(xs)  # yields Python numbers one at a time, without a list
    for fn in fns:
        it = map(fn, it)
    return np.fromiter(it, float, len(xs))


def _pow(base, exp) -> np.ndarray:
    """Python's float ``base ** exp`` per element; exactly one operand is an array."""
    if isinstance(exp, np.ndarray):
        return np.fromiter(map(pow, repeat(base), memoryview(exp)), float, len(exp))
    return np.fromiter(map(pow, memoryview(base), repeat(exp)), float, len(base))


# ---------------------------------------------------------------------------
# policy classes

class _Policy:
    """Generic behaviour of the policy classes, driven by their ``_FIELDS``."""

    def __post_init__(self) -> None:
        # Each field is held as a document reads it: boundaries as a tuple, and
        # an int rate or unit as the float it equals, so Fix(k=1) and Fix(k=1.0)
        # serialize alike (an int past the float range stays, for validation).
        for name, kind, _, _ in self._FIELDS:
            value, load = getattr(self, name), kind.load
            if load is tuple or load is real_float and is_count(value) and math.isfinite(load(value)):
                object.__setattr__(self, name, load(value))

    def _malformed(self) -> str | None:
        """The first field a policy document could not hold, as :func:`policy_from_doc` says."""
        return next((f"{self.TYPE} {wrong}" for name, kind, required in _DOC_TYPES[self.TYPE][3]
                     if (value := getattr(self, name)) is not None or required
                     if (wrong := _wrong_type(name, kind, value))), None)

    def _problems(self, total: int) -> list[str]:
        """Invariant violations when serving ``total`` iterations."""
        out: list[str] = []
        tag = self.TYPE
        for name, kind, optional, only in self._FIELDS:
            value = getattr(self, name)
            # A tag listed in ``only`` must set the field; any other tag must leave it unset.
            if only is not None and (tag in only) == (value is None):
                out.append(f"{tag} {'requires' if value is None else 'does not take'} {name}")
            elif value is not None or not optional:
                problem = kind.problem(name, value)
                if problem is not None:
                    out.append(problem)
        return out

    def _check(self, total: int) -> list[str]:
        """:meth:`_problems`, or else a rate that reaches 0 within ``total`` iterations.

        Decaying rates never rise and cyclic ones stay at or above
        ``min(k0, k1)``, so the last iteration is the one to evaluate.
        """
        if out := self._problems(total):
            return out
        try:
            last = self._lr(np.array([total - 1]), total)[0]
        except OverflowError:  # an INV denominator past the float range: the rate is 0
            last = 0.0
        return [] if last > 0.0 else [f"the rate reaches 0 by t={total - 1}"]


@dataclass(frozen=True)
class Fix(_Policy):
    """Constant learning rate ``k``."""

    TYPE = "FIX"
    k: float = field(metadata=_RATE)

    def _lr(self, ts: np.ndarray, total: int) -> np.ndarray:
        return np.full(len(ts), self.k, dtype=float)


@dataclass(frozen=True)
class Step(_Policy):
    """``k * gamma ** floor(t / l)``: drop by ``gamma`` every ``l`` iterations."""

    TYPE = "STEP"
    k: float = field(metadata=_RATE)
    gamma: float = field(metadata=_UNIT)
    l: int = field(metadata=_COUNT)

    def _lr(self, ts: np.ndarray, total: int) -> np.ndarray:
        return self.k * _pow(self.gamma, ts // self.l)


@dataclass(frozen=True)
class NStep(_Policy):
    """``k * gamma ** i`` where ``i`` counts boundaries at or below ``t``.

    ``boundaries`` is a strictly increasing list of positive iteration
    numbers; before the first boundary the factor is 1, and past the last
    boundary the factor stays at ``gamma ** len(boundaries)``.
    """

    TYPE = "NSTEP"
    k: float = field(metadata=_RATE)
    gamma: float = field(metadata=_UNIT)
    boundaries: tuple[int, ...] = field(metadata=_BOUNDS)

    def _lr(self, ts: np.ndarray, total: int) -> np.ndarray:
        return self.k * _pow(self.gamma, np.searchsorted(self.boundaries, ts, side="right"))


@dataclass(frozen=True)
class Exp(_Policy):
    """``k * gamma ** t``: per-iteration exponential decay."""

    TYPE = "EXP"
    k: float = field(metadata=_RATE)
    gamma: float = field(metadata=_UNIT)

    def _lr(self, ts: np.ndarray, total: int) -> np.ndarray:
        return self.k * _pow(self.gamma, ts)


@dataclass(frozen=True)
class Inv(_Policy):
    """``k / (1 + t * gamma) ** p``: inverse-polynomial decay."""

    TYPE = "INV"
    k: float = field(metadata=_RATE)
    # INV admits any positive gamma; it is a time scale, not a ratio.
    gamma: float = field(metadata=_RATE)
    p: float = field(metadata=_RATE)

    def _lr(self, ts: np.ndarray, total: int) -> np.ndarray:
        # A product past the float range makes the rate 0, as a ``**`` past it does.
        with np.errstate(over="ignore"):
            base = 1.0 + ts * self.gamma
        return self.k / _pow(base, self.p)


@dataclass(frozen=True)
class Poly(_Policy):
    """``k * (1 - t / max_iter) ** p``: polynomial decay to zero.

    ``max_iter = None`` binds the horizon at evaluation time to the
    run's total iterations (or, inside a COMPOSITE, to the segment
    length).  A valid POLY's ``max_iter`` is at least its horizon.
    """

    TYPE = "POLY"
    k: float = field(metadata=_RATE)
    p: float = field(metadata=_RATE)
    max_iter: int | None = field(default=None, metadata=_COUNT)

    def _problems(self, total: int) -> list[str]:
        out = super()._problems(total)
        if is_count(self.max_iter) and 1 <= self.max_iter < total - 1:
            out.append(f"max_iter={self.max_iter} is shorter than the horizon: "
                       f"evaluation past it is an error (need >= {total - 1})")
        return out

    def _lr(self, ts: np.ndarray, total: int) -> np.ndarray:
        horizon = self.max_iter if self.max_iter is not None else total
        # (horizon - t) / horizon equals 1 - t / horizon with integer
        # subtraction done exactly, avoiding cancellation near the end.
        return self.k * _pow((horizon - ts) / horizon, self.p)


@dataclass(frozen=True)
class Cyclic(_Policy):
    """Cyclic policy oscillating between ``k0`` and ``k1``.

    ``kind`` selects the waveform (see module docstring); ``l`` is the
    half-cycle length in iterations, so one full cycle spans ``2 * l``.
    ``gamma`` is required for the ``*EXP`` kinds and forbidden otherwise.
    """

    kind: str
    k0: float = field(metadata=_RATE)
    k1: float = field(metadata=_RATE)
    l: int = field(metadata=_COUNT)
    gamma: float | None = field(default=None, metadata={**_UNIT, "only": _EXP_KINDS})

    @property
    def TYPE(self) -> str:
        return self.kind

    def _problems(self, total: int) -> list[str]:
        known = [] if self.kind in CYCLIC_KINDS else [f"unknown cyclic kind {self.kind!r}"]
        return known + super()._problems(total)

    def _malformed(self) -> str | None:
        # An unknown kind is the first of its problems.
        return super()._malformed() if self.kind in CYCLIC_KINDS else self._problems(1)[0]

    def _lr(self, ts: np.ndarray, total: int) -> np.ndarray:
        kind, l = self.kind, self.l
        if kind.startswith("TRI"):
            g = (2.0 / math.pi) * np.abs(_each(ts * math.pi / (2.0 * l), math.sin, math.asin))
        elif kind.startswith("SIN"):
            g = np.abs(_each(ts * math.pi / (2.0 * l), math.sin))
        else:  # COS*
            g = 0.5 * (1.0 + _each(ts * math.pi / l, math.cos))
        if kind in _HALVING_KINDS:
            g *= _pow(0.5, ts // (2 * l))
        elif kind in _EXP_KINDS:
            g *= _pow(self.gamma, ts)
        # Rounding in asin/sin can push g a hair outside [0, 1]; the lr must
        # stay inside the [min(k0,k1), max(k0,k1)] band exactly.
        g = np.minimum(np.maximum(g, 0.0), 1.0)
        lo = min(self.k0, self.k1)
        hi = max(self.k0, self.k1)
        return np.minimum(np.maximum(abs(self.k0 - self.k1) * g + lo, lo), hi)


@dataclass(frozen=True)
class Segment:
    """Half-open iteration span ``[start, end)`` driven by one inner policy."""

    start: int
    end: int
    policy: "LRPolicy"


@dataclass(frozen=True)
class Composite(_Policy):
    """Contiguous, ordered segments covering ``[0, total_iters)``."""

    TYPE = "COMPOSITE"
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))

    def _problems(self, total: int) -> list[str]:
        segs = self.segments
        if len(segs) == 0:
            return ["composite must have at least one segment"]
        out: list[str] = []
        spans = 0  # entries that are segments with integer bounds below 2**53
        for idx, seg in enumerate(segs):
            tag = f"segment {idx}: "
            if not isinstance(seg, Segment):
                out.append(tag + f"not a segment: {seg!r}")
            elif wide := _below_limit("start", seg.start) or _below_limit("end", seg.end):
                out.append(tag + wide)
            elif not is_count(seg.start) or not is_count(seg.end):
                out.append(tag + f"start/end must be integers, got {seg.start!r}/{seg.end!r}")
            else:
                spans += 1
                if seg.start < 0 or seg.end <= seg.start:
                    out.append(tag + f"need 0 <= start < end, got [{seg.start}, {seg.end})")
                if isinstance(seg.policy, Composite):
                    out.append(tag + "nested composite segments are not allowed")
                elif isinstance(seg.policy, _Policy):
                    out.extend(tag + v for v in seg.policy._check(max(seg.end - seg.start, 1)))
                else:
                    out.append(tag + f"not a policy: {seg.policy!r}")
        if spans < len(segs):  # coverage needs every entry's span
            return out
        if segs[0].start != 0:
            out.append(f"segments must start at 0, first starts at {segs[0].start}")
        for a, b in zip(segs, segs[1:]):
            if b.start != a.end:
                kind = "overlap" if b.start < a.end else "gap"
                out.append(f"{kind} between segment ending at {a.end} and segment starting at {b.start}")
        if segs[-1].end != total:
            out.append(f"segments do not cover [0, {total}): last segment ends at {segs[-1].end}")
        return out

    def _malformed(self) -> str | None:
        return next((f"segment {i}: {p}" for i, seg in enumerate(self.segments) if (p := (
            f"not a segment: {seg!r}" if not isinstance(seg, Segment)
            else _wrong_type("start", _COUNT["kind"], seg.start)
            or _wrong_type("end", _COUNT["kind"], seg.end)
            or (seg.policy._malformed() if isinstance(seg.policy, _Policy)
                else f"not a policy: {seg.policy!r}")))), None)

    def _lr(self, ts: np.ndarray, total: int) -> np.ndarray:
        # Valid segments cover [0, total) in order: each iteration belongs to
        # the last segment starting at or before it.
        owner = np.searchsorted([seg.start for seg in self.segments], ts, side="right") - 1
        out = np.empty(len(ts))
        for i, seg in enumerate(self.segments):
            at = np.flatnonzero(owner == i)
            if len(at):
                out[at] = seg.policy._lr(ts[at] - seg.start, seg.end - seg.start)
        return out


LRPolicy = Union[Fix, Step, NStep, Exp, Inv, Poly, Cyclic, Composite]
POLICY_TYPES = (Fix, Step, NStep, Exp, Inv, Poly, Cyclic, Composite)

# (name, kind, optional, only) per declared field; ``only`` is None for a
# field every tag takes.
for _cls in (Fix, Step, NStep, Exp, Inv, Poly, Cyclic):
    _cls._FIELDS = tuple((f.name, f.metadata["kind"], f.default is None, f.metadata.get("only"))
                         for f in fields(_cls) if "kind" in f.metadata)


def _doc_type(cls, tag: str, **fixed) -> tuple:
    """How to read a ``tag`` document: the class, the constructor arguments the
    tag itself gives, the allowed keys, and (name, kind, required) per field."""
    taken = [(name, kind, not optional or only is not None)
             for name, kind, optional, only in cls._FIELDS if only is None or tag in only]
    return cls, fixed, frozenset(["type", *(name for name, _, _ in taken)]), tuple(taken)


_DOC_TYPES = {cls.TYPE: _doc_type(cls, cls.TYPE) for cls in (Fix, Step, NStep, Exp, Inv, Poly)}
_DOC_TYPES.update((kind, _doc_type(Cyclic, kind, kind=kind)) for kind in CYCLIC_KINDS)


@dataclass(frozen=True)
class ScheduleSeries:
    """A sampled lr trace as two columns, iterations ``ts`` (ints) and
    rates ``lrs`` (floats); ``points`` pairs them up as ``(t, lr)``."""

    ts: tuple[int, ...] = ()
    lrs: tuple[float, ...] = ()

    @property
    def points(self) -> tuple[tuple[int, float], ...]:
        return tuple(zip(self.ts, self.lrs))


# ---------------------------------------------------------------------------
# validation and evaluation

def validate_policy(policy: LRPolicy, total_iters: int) -> list[str]:
    """Return a list of human-readable invariant violations (empty if valid).

    ``total_iters`` is the evaluation horizon the policy must serve:
    COMPOSITE coverage is checked against ``[0, total_iters)`` and an
    explicit POLY ``max_iter`` must reach at least ``total_iters - 1``.
    The rate must stay positive over the horizon (a COMPOSITE segment's
    over its own clock), which a POLY reaching its ``max_iter`` or an
    underflowing decay breaks.
    """
    check_horizon(total_iters)
    if not isinstance(policy, _Policy):
        return [f"not a policy: {policy!r}"]
    return policy._check(total_iters)


def check_policy(policy: LRPolicy, total_iters: int, what: str = "invalid policy") -> None:
    """Raise ScheduleError ``<what>: <problems>`` if :func:`validate_policy` reports any."""
    if problems := validate_policy(policy, total_iters):
        raise ScheduleError(f"{what}: {'; '.join(problems)}")


def check_horizon(total_iters) -> None:
    """Raise :class:`ScheduleError` unless ``total_iters`` is a positive integer below 2**53."""
    check_count(ScheduleError, "total_iters", total_iters, rule="a positive integer")
    if wide := _below_limit("total_iters", total_iters):
        raise ScheduleError(wide)


def eval_lr(policy: LRPolicy, t: int, total_iters: int) -> float:
    """The rate of ``policy`` at iteration ``t``: the one-point :func:`lr_values`."""
    if not is_count(t):
        raise ScheduleError(f"iteration must be an integer, got {t!r}")
    return float(lr_values(policy, np.array([t]), total_iters)[0])


def lr_values(policy: LRPolicy, ts, total_iters: int) -> np.ndarray:
    """Learning rates of a valid ``policy`` at the integer iterations ``ts``, in one pass."""
    check_policy(policy, total_iters)
    ts = np.asarray(ts)
    if ts.ndim != 1 or ts.dtype.kind not in "iu":
        raise ScheduleError(
            f"iterations must be a 1-D integer array, got {ts.dtype} of shape {ts.shape}")
    outside = ts[(ts < 0) | (ts >= total_iters)]
    if len(outside):
        raise ScheduleError(f"iteration {outside[0]} outside [0, {total_iters})")
    return policy._lr(ts.astype(np.int64, copy=False), total_iters)


def schedule_series(policy: LRPolicy, total_iters: int, stride: int = 1) -> ScheduleSeries:
    """Sample the rate at ``t = 0, stride, 2*stride, ...`` below ``total_iters``."""
    check_count(ScheduleError, "stride", stride, rule="an integer >= 1")
    check_policy(policy, total_iters)  # before the samples are allocated
    # Horizons stay below _INT_LIMIT, so the cap keeps every sample and an int64 stride.
    lrs = policy._lr(np.arange(0, total_iters, min(stride, _INT_LIMIT)), total_iters)
    return ScheduleSeries(tuple(range(0, total_iters, stride)), tuple(lrs.tolist()))


def series_to_csv(series: ScheduleSeries) -> str:
    """Render a series as ``t,lr`` CSV with full-precision decimals."""
    # repr is the shortest decimal that parses back to the same double.
    return "t,lr\n" + "".join(f"{t},{v!r}\n" for t, v in zip(series.ts, series.lrs))


# ---------------------------------------------------------------------------
# JSON documents

def policy_to_doc(policy: LRPolicy) -> dict:
    """Plain-dict document for a policy, suitable for JSON embedding; a malformed
    value raises :class:`PolicyFormatError`, a range-invalid one is written."""
    if not isinstance(policy, _Policy):
        raise PolicyFormatError(f"not a policy: {policy!r}")
    if problem := policy._malformed():
        raise PolicyFormatError(problem)
    if isinstance(policy, Composite):
        return {"type": "COMPOSITE", "segments": [
            {"start": s.start, "end": s.end, "policy": policy_to_doc(s.policy)}
            for s in policy.segments
        ]}
    doc = {"type": policy.TYPE}
    for name, kind, required in _DOC_TYPES[policy.TYPE][3]:
        if (value := getattr(policy, name)) is not None or required:
            doc[name] = kind.dump(value)
    return doc


def _read(doc: dict, name: str, where: str, kind: _Kind | None = None):
    if name not in doc:
        raise PolicyFormatError(f"{where} is missing field {name!r}")
    value = doc[name]
    if kind is not None and (wrong := _wrong_type(name, kind, value)):
        raise PolicyFormatError(f"{where} {wrong}")
    return value if kind is None else kind.load(value)


def _reject_extras(doc: dict, where: str, allowed) -> None:
    extras = sorted(set(doc) - allowed)
    if extras:
        raise PolicyFormatError(f"{where} has unknown fields: {', '.join(extras)}")


def policy_from_doc(doc) -> LRPolicy:
    """Parse a plain-dict policy document; inverse of :func:`policy_to_doc`.

    Structural problems (unknown type, missing fields, extraneous
    fields, wrong JSON types) raise :class:`PolicyFormatError`.  Range
    checks are left to :func:`validate_policy`.
    """
    if not isinstance(doc, dict):
        raise PolicyFormatError(f"policy document must be an object, got {type(doc).__name__}")
    tag = doc.get("type")
    if tag is None:
        raise PolicyFormatError("policy document is missing 'type'")
    if tag == "COMPOSITE":
        return _composite_from_doc(doc)
    if not isinstance(tag, str) or tag not in _DOC_TYPES:
        raise PolicyFormatError(f"unknown policy type {tag!r}")
    cls, fixed, allowed, taken = _DOC_TYPES[tag]
    _reject_extras(doc, tag, allowed)
    values = dict(fixed)
    for name, kind, required in taken:
        if required or name in doc:
            values[name] = _read(doc, name, tag, kind)
    return cls(**values)


def _composite_from_doc(doc: dict) -> Composite:
    _reject_extras(doc, "COMPOSITE", {"type", "segments"})
    segs = _read(doc, "segments", "COMPOSITE")
    if not isinstance(segs, (list, tuple)) or len(segs) == 0:
        raise PolicyFormatError("COMPOSITE field 'segments' must be a non-empty list")
    parsed = []
    for i, seg in enumerate(segs):
        where = f"COMPOSITE segment {i}"
        if not isinstance(seg, dict):
            raise PolicyFormatError(f"{where} must be an object")
        _reject_extras(seg, where, {"start", "end", "policy"})
        inner = policy_from_doc(_read(seg, "policy", where))
        if isinstance(inner, Composite):
            raise PolicyFormatError(f"{where} must not nest another composite")
        parsed.append(Segment(start=_read(seg, "start", where, _COUNT["kind"]),
                              end=_read(seg, "end", where, _COUNT["kind"]), policy=inner))
    return Composite(segments=tuple(parsed))


def parse_policy(text: str) -> LRPolicy:
    """Parse a JSON policy document string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolicyFormatError(f"policy document is not valid JSON: {exc}") from exc
    return policy_from_doc(doc)


def serialize_policy(policy: LRPolicy) -> str:
    """Serialize a policy to a single-line JSON document.

    Key order is fixed by construction, so equal policies serialize to
    identical bytes; ranking code uses this string as a deterministic
    tie-breaker.
    """
    return json.dumps(policy_to_doc(policy), separators=(", ", ": "))
