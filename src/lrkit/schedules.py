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

Construction is permissive: range violations (for example ``gamma``
outside ``(0, 1)``) are reported by :func:`validate_policy` as data, not
raised, so callers can collect every problem at once.  Evaluation
assumes a valid policy and raises :class:`ScheduleError` only for
out-of-range iterations.

A policy class declares itself once; validation, document I/O and
evaluation are derived from the declaration.  ``TYPE`` is the document's
``"type"`` tag (a cyclic policy's is its ``kind``).  Each parameter is a
dataclass field whose metadata names its kind: a positive rate, a unit
gamma in ``(0, 1)``, an integer count ``>= 1``, or boundaries.  A field
whose default is ``None`` is optional; one whose metadata lists ``only``
tags is taken, and required, by those tags alone.  ``_lr(t, total)`` is
the formula, and ``_problems(total)`` is extended only for a rule that
spans fields.  Document keys follow field order.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Union

from .errors import PolicyFormatError, ScheduleError

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
    "eval_lr",
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


# ---------------------------------------------------------------------------
# field kinds

def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _must(ok: Callable[[object], bool], phrase: str) -> Callable[[str, object], str | None]:
    """Range check reporting ``<name> must <phrase>, got <value>`` unless ``ok(value)``."""
    return lambda name, value: None if ok(value) else f"{name} must {phrase}, got {value!r}"


def _bounds_problem(name: str, bs) -> str | None:
    if len(bs) == 0:
        return f"{name} must not be empty"
    if not all(_is_int(b) for b in bs):
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
_RATE = {"kind": _Kind(_must(lambda v: _is_num(v) and math.isfinite(v) and v > 0.0,
                             "be a positive finite number"), _is_num, "a number", float)}
_UNIT = {"kind": _Kind(_must(lambda v: _is_num(v) and 0.0 < v < 1.0, "lie in (0, 1)"),
                       _is_num, "a number", float)}
_COUNT = {"kind": _Kind(_must(lambda v: _is_int(v) and v >= 1, "be an integer >= 1"),
                        _is_int, "an integer")}
_BOUNDS = {"kind": _Kind(_bounds_problem,
                         lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
                         "a list of integers", tuple, list)}


# ---------------------------------------------------------------------------
# policy classes

class _Policy:
    """Generic behaviour of the policy classes, driven by their ``_FIELDS``."""

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


@dataclass(frozen=True)
class Fix(_Policy):
    """Constant learning rate ``k``."""

    TYPE = "FIX"
    k: float = field(metadata=_RATE)

    def _lr(self, t: int, total: int) -> float:
        return self.k


@dataclass(frozen=True)
class Step(_Policy):
    """``k * gamma ** floor(t / l)``: drop by ``gamma`` every ``l`` iterations."""

    TYPE = "STEP"
    k: float = field(metadata=_RATE)
    gamma: float = field(metadata=_UNIT)
    l: int = field(metadata=_COUNT)

    def _lr(self, t: int, total: int) -> float:
        return self.k * self.gamma ** (t // self.l)


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "boundaries", tuple(self.boundaries))

    def _lr(self, t: int, total: int) -> float:
        return self.k * self.gamma ** bisect_right(self.boundaries, t)


@dataclass(frozen=True)
class Exp(_Policy):
    """``k * gamma ** t``: per-iteration exponential decay."""

    TYPE = "EXP"
    k: float = field(metadata=_RATE)
    gamma: float = field(metadata=_UNIT)

    def _lr(self, t: int, total: int) -> float:
        return self.k * self.gamma ** t


@dataclass(frozen=True)
class Inv(_Policy):
    """``k / (1 + t * gamma) ** p``: inverse-polynomial decay."""

    TYPE = "INV"
    k: float = field(metadata=_RATE)
    # INV admits any positive gamma; it is a time scale, not a ratio.
    gamma: float = field(metadata=_RATE)
    p: float = field(metadata=_RATE)

    def _lr(self, t: int, total: int) -> float:
        return self.k / (1.0 + t * self.gamma) ** self.p


@dataclass(frozen=True)
class Poly(_Policy):
    """``k * (1 - t / max_iter) ** p``: polynomial decay to zero.

    ``max_iter = None`` binds the horizon at evaluation time to the
    run's total iterations (or, inside a COMPOSITE, to the segment
    length).  Evaluating past ``max_iter`` is an error.
    """

    TYPE = "POLY"
    k: float = field(metadata=_RATE)
    p: float = field(metadata=_RATE)
    max_iter: int | None = field(default=None, metadata=_COUNT)

    def _problems(self, total: int) -> list[str]:
        out = super()._problems(total)
        if _is_int(self.max_iter) and 1 <= self.max_iter < total - 1:
            out.append(f"max_iter={self.max_iter} is shorter than the horizon: "
                       f"evaluation past it is an error (need >= {total - 1})")
        return out

    def _lr(self, t: int, total: int) -> float:
        horizon = self.max_iter if self.max_iter is not None else total
        if t > horizon:
            raise ScheduleError(f"POLY evaluated at t={t} past max_iter={horizon}")
        # (horizon - t) / horizon equals 1 - t / horizon with integer
        # subtraction done exactly, avoiding cancellation near the end.
        return self.k * ((horizon - t) / horizon) ** self.p


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

    def _lr(self, t: int, total: int) -> float:
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


@dataclass(frozen=True)
class Segment:
    """Half-open iteration span ``[start, end)`` driven by one inner policy."""

    start: int
    end: int
    policy: "LRPolicy"


@dataclass(frozen=True)
class Composite(_Policy):
    """Contiguous, ordered segments covering ``[0, total_iters)``."""

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))

    def _problems(self, total: int) -> list[str]:
        segs = self.segments
        if len(segs) == 0:
            return ["composite must have at least one segment"]
        out: list[str] = []
        for idx, seg in enumerate(segs):
            tag = f"segment {idx}: "
            if not _is_int(seg.start) or not _is_int(seg.end):
                out.append(tag + f"start/end must be integers, got {seg.start!r}/{seg.end!r}")
                continue
            if seg.start < 0 or seg.end <= seg.start:
                out.append(tag + f"need 0 <= start < end, got [{seg.start}, {seg.end})")
            if isinstance(seg.policy, Composite):
                out.append(tag + "nested composite segments are not allowed")
            elif isinstance(seg.policy, _Policy):
                out.extend(tag + v for v in seg.policy._problems(max(seg.end - seg.start, 1)))
            else:
                out.append(tag + f"not a policy: {seg.policy!r}")
        if not all(_is_int(s.start) and _is_int(s.end) for s in segs):
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

    def _lr(self, t: int, total: int) -> float:
        for seg in self.segments:
            if seg.start <= t < seg.end:
                return seg.policy._lr(t - seg.start, seg.end - seg.start)
        raise ScheduleError(f"iteration {t} falls outside every composite segment")


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
    """Sampled (iteration, lr) points for one policy."""

    policy: LRPolicy
    points: tuple[tuple[int, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple((int(t), float(v)) for t, v in self.points))


# ---------------------------------------------------------------------------
# validation and evaluation

def validate_policy(policy: LRPolicy, total_iters: int) -> list[str]:
    """Return a list of human-readable invariant violations (empty if valid).

    ``total_iters`` is the evaluation horizon the policy must serve:
    COMPOSITE coverage is checked against ``[0, total_iters)`` and an
    explicit POLY ``max_iter`` must reach at least ``total_iters - 1``.
    """
    if not _is_int(total_iters) or total_iters < 1:
        raise ScheduleError(f"total_iters must be a positive integer, got {total_iters!r}")
    if not isinstance(policy, _Policy):
        return [f"not a policy: {policy!r}"]
    return policy._problems(total_iters)


def eval_lr(policy: LRPolicy, t: int, total_iters: int) -> float:
    """Learning rate of ``policy`` at iteration ``t`` within ``[0, total_iters)``.

    Assumes ``validate_policy(policy, total_iters)`` passes; raises
    :class:`ScheduleError` for an out-of-range ``t`` or a POLY evaluated
    past its ``max_iter``.
    """
    if not _is_int(t):
        raise ScheduleError(f"iteration must be an integer, got {t!r}")
    if t < 0 or t >= total_iters:
        raise ScheduleError(f"iteration {t} outside [0, {total_iters})")
    return policy._lr(t, total_iters)


def schedule_series(policy: LRPolicy, total_iters: int, stride: int = 1) -> ScheduleSeries:
    """Sample ``eval_lr`` at ``t = 0, stride, 2*stride, ...`` below ``total_iters``."""
    if not _is_int(stride) or stride < 1:
        raise ScheduleError(f"stride must be an integer >= 1, got {stride!r}")
    pts = tuple((t, eval_lr(policy, t, total_iters)) for t in range(0, total_iters, stride))
    return ScheduleSeries(policy=policy, points=pts)


def series_to_csv(series: ScheduleSeries) -> str:
    """Render a series as ``t,lr`` CSV with full-precision decimals."""
    # repr is the shortest decimal that parses back to the same double.
    return "t,lr\n" + "".join(f"{t},{float(v)!r}\n" for t, v in series.points)


# ---------------------------------------------------------------------------
# JSON documents

def policy_to_doc(policy: LRPolicy) -> dict:
    """Plain-dict document for a policy, suitable for JSON embedding."""
    if isinstance(policy, Composite):
        return {"type": "COMPOSITE", "segments": [
            {"start": s.start, "end": s.end, "policy": policy_to_doc(s.policy)}
            for s in policy.segments
        ]}
    if not isinstance(policy, _Policy):
        raise PolicyFormatError(f"not a policy: {policy!r}")
    tag = policy.TYPE
    doc = {"type": tag}
    for name, kind, optional, only in policy._FIELDS:
        value = getattr(policy, name)
        if (tag in only) if only is not None else (value is not None or not optional):
            doc[name] = kind.dump(value)
    return doc


def _read(doc: dict, name: str, where: str, kind: _Kind | None = None):
    if name not in doc:
        raise PolicyFormatError(f"{where} is missing field {name!r}")
    value = doc[name]
    if kind is not None and not kind.accepts(value):
        raise PolicyFormatError(f"{where} field {name!r} must be {kind.want}, got {value!r}")
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
