"""Deterministic training loop and trial records.

``train`` runs one trial of (task, schedule, optimizer, seed) and
returns a :class:`TrialRecord` holding the evaluated metric series, the
per-step learning-rate trace, and optional parameter snapshots.  All
randomness (parameter init, batch order) derives from the trial seed via
counter-based keys, so the same arguments reproduce the same record on a
platform; wall-clock fields are the only nondeterministic content and
live apart from the result payload when exported.

The ``schedule`` argument is either a static policy or a *controller*,
an object that picks the rate step by step while observing losses (see
:class:`ScheduleController`).  Controllers report the policy they ended
up realizing, so their runs can be replayed as static COMPOSITEs.

Divergence: when a training loss turns NaN/Inf or exceeds
``DIVERGENCE_LIMIT`` (or parameters go non-finite), the trial stops,
keeps the series recorded so far, appends one final entry carrying the
offending loss, and sets ``diverged``.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import ScheduleError, TaskError
from .optim import OPTIMIZER_KINDS, make_optimizer, apply_step
from .schedules import (LRPolicy, POLICY_TYPES, ScheduleSeries, policy_from_doc,
                        policy_to_doc, validate_policy)
from .tasks import Task

__all__ = ["Metrics", "TrialRecord", "ScheduleController", "train", "default_eval_every",
           "record_to_doc", "record_from_doc", "record_to_csv", "downsample_points",
           "DIVERGENCE_LIMIT"]

DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class Metrics:
    """One evaluation point: loss (and top-1 where defined) at an iteration."""

    iteration: int
    loss: float
    top1: float | None
    wall_ms: float = 0.0


@dataclass
class TrialRecord:
    """Everything observable about one training trial."""

    task_id: str
    model_id: str
    policy: LRPolicy
    optimizer: str
    seed: int
    budget_iters: int
    eval_every: int
    series: list[Metrics]
    lr_trace: ScheduleSeries
    diverged: bool
    peak_top1: float | None
    iter_at_peak: int | None
    final_loss: float
    snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)
    wall_ms_total: float = 0.0


@runtime_checkable
class ScheduleController(Protocol):
    """Step-wise rate picker used in place of a static policy."""

    def lr_for_step(self, t: int) -> float: ...

    def observe_train(self, t: int, loss: float) -> None: ...

    def observe_val(self, iteration: int, loss: float) -> None: ...

    def realized_policy(self) -> LRPolicy: ...


def default_eval_every(budget_iters: int) -> int:
    """Evaluation cadence when none is given: ~100 points per run."""
    return max(budget_iters // 100, 1)


def _batch_indices(task: Task, seed: int, t: int, perm_cache: dict) -> np.ndarray | None:
    if task.n_train <= 0:
        return None
    spe = task.steps_per_epoch
    epoch, pos = divmod(t, spe)
    perm = perm_cache.get(epoch)
    if perm is None:
        perm_cache.clear()
        perm = np.random.default_rng((seed, 0, epoch)).permutation(task.n_train)
        perm_cache[epoch] = perm
    return perm[pos * task.batch_size: (pos + 1) * task.batch_size]


def train(task: Task, schedule: LRPolicy | ScheduleController, *, budget_iters: int,
          seed: int = 0, optimizer: str = "momentum",
          eval_every: int | None = None, snapshot_stride: int | None = None) -> TrialRecord:
    """Run one trial and record it.

    ``snapshot_stride=M`` stores the parameter vector entering every
    M-th iteration (and the final vector when the budget is a multiple
    of M), which step-size estimation consumes downstream.
    """
    if budget_iters < 1:
        raise TaskError(f"budget_iters must be >= 1, got {budget_iters}")
    if eval_every is None:
        eval_every = default_eval_every(budget_iters)
    if eval_every < 1:
        raise TaskError(f"eval_every must be >= 1, got {eval_every}")
    if snapshot_stride is not None and snapshot_stride < 1:
        raise TaskError(f"snapshot_stride must be >= 1, got {snapshot_stride}")

    static = isinstance(schedule, POLICY_TYPES)
    if static:
        violations = validate_policy(schedule, budget_iters)
        if violations:
            raise ScheduleError(f"invalid policy: {'; '.join(violations)}")
        from .schedules import eval_lr  # local import keeps module deps one-way
        def lr_for(t: int) -> float:
            return eval_lr(schedule, t, budget_iters)
    else:
        lr_for = schedule.lr_for_step

    opt_kind = str(optimizer).lower()
    if opt_kind not in OPTIMIZER_KINDS:
        raise TaskError(f"unknown optimizer {optimizer!r}; expected one of {OPTIMIZER_KINDS}")
    state = make_optimizer(opt_kind, task.param_len)
    theta = np.asarray(task.init(np.random.default_rng((seed, 1))), dtype=float)
    if theta.shape != (task.param_len,):
        raise TaskError(f"task init returned shape {theta.shape}, expected ({task.param_len},)")

    t0 = time.perf_counter()
    series: list[Metrics] = []
    lrs: list[float] = []
    snapshots: list[tuple[int, np.ndarray]] = []
    perm_cache: dict = {}
    diverged = False

    def wall() -> float:
        return (time.perf_counter() - t0) * 1e3

    def eval_point(iteration: int) -> Metrics:
        loss, top1 = task.eval_loss_top1(theta, "val" if task.n_val > 0 else "train")
        point = Metrics(iteration=iteration, loss=loss, top1=top1, wall_ms=wall())
        series.append(point)
        return point

    if snapshot_stride is not None:
        snapshots.append((0, theta.copy()))

    # Divergence is an expected outcome here, so the overflow/invalid
    # warnings numpy would emit on the way to it are suppressed.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(budget_iters):
            batch = _batch_indices(task, seed, t, perm_cache)
            loss, grad = task.loss_and_grad(theta, batch, "train")
            if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT or not np.isfinite(grad).all():
                # Keep the offending loss as the last recorded entry.
                _, top1 = task.eval_loss_top1(theta, "val" if task.n_val > 0 else "train")
                series.append(Metrics(iteration=t, loss=float(loss), top1=top1, wall_ms=wall()))
                diverged = True
                break
            lr = float(lr_for(t))
            lrs.append(lr)
            theta, state = apply_step(theta, state, grad, lr)
            if not static:
                schedule.observe_train(t, float(loss))
            done = t + 1
            if not np.isfinite(theta).all():
                series.append(Metrics(iteration=done, loss=float("inf"),
                                      top1=0.0 if task.has_accuracy else None, wall_ms=wall()))
                diverged = True
                break
            if snapshot_stride is not None and done % snapshot_stride == 0:
                snapshots.append((done, theta.copy()))
            if done % eval_every == 0 or done == budget_iters:
                point = eval_point(done)
                if not static:
                    schedule.observe_val(done, point.loss)

    if not series:
        eval_point(0)

    policy = schedule if static else schedule.realized_policy()
    top1s = [(m.top1, m.iteration) for m in series if m.top1 is not None]
    peak_top1 = max((v for v, _ in top1s), default=None)
    iter_at_peak = min((i for v, i in top1s if v == peak_top1), default=None) if top1s else None
    return TrialRecord(
        task_id=task.task_id, model_id=task.model_id, policy=policy, optimizer=opt_kind,
        seed=seed, budget_iters=budget_iters, eval_every=eval_every, series=series,
        lr_trace=ScheduleSeries(policy=policy, points=tuple(enumerate(lrs))),
        diverged=diverged, peak_top1=peak_top1, iter_at_peak=iter_at_peak,
        final_loss=series[-1].loss, snapshots=snapshots, wall_ms_total=wall(),
    )


# ---------------------------------------------------------------------------
# record documents

def downsample_points(points: list, cap: int = 512) -> list:
    """Thin a list to at most ``cap`` entries, always keeping the last."""
    n = len(points)
    if n <= cap:
        return list(points)
    stride = -(-n // cap)
    kept = list(points[::stride])
    if points[-1] is not kept[-1]:
        kept[-1] = points[-1]
    return kept


def record_to_doc(record: TrialRecord, *, stable: bool = False, series_cap: int | None = None) -> dict:
    """Plain-dict document for a record.

    ``stable=True`` drops the wall-clock metadata so equal trials export
    byte-identical JSON.  ``series_cap`` bounds the series and lr trace
    lengths.  A longer lr trace is thinned by :func:`downsample_points`.
    A longer series keeps the entries that raise the best top-1 so far
    (the first crossing of any target among them), thinned to at most
    half the cap with the peak entry kept, and fills the rest of the cap
    by striding over the other entries; the last entry is always kept.
    Per-point wall times follow the kept entries; peaks, finals and
    ``wall_ms_total`` are exact regardless.
    """
    series = record.series
    lr_points = record.lr_trace.points
    if series_cap is not None:
        if len(series) > series_cap:
            best, rises = -math.inf, []
            for i, m in enumerate(series):
                if m.top1 is not None and m.top1 > best:
                    best = m.top1
                    rises.append(i)
            rises = downsample_points(rises, series_cap // 2)
            kept = set(rises)
            others = [i for i in range(len(series)) if i not in kept]
            # Indices, not iterations: a divergence entry can repeat the last iteration.
            keep = sorted(rises + downsample_points(others, series_cap - len(rises)))
            series = [series[i] for i in keep]
        lr_points = downsample_points(lr_points, series_cap)
    doc = {
        "task_id": record.task_id,
        "model_id": record.model_id,
        "policy": policy_to_doc(record.policy),
        "optimizer": record.optimizer,
        "seed": record.seed,
        "budget_iters": record.budget_iters,
        "eval_every": record.eval_every,
        "diverged": record.diverged,
        "peak_top1": record.peak_top1,
        "iter_at_peak": record.iter_at_peak,
        "final_loss": _json_num(record.final_loss),
        "series": [{"iteration": m.iteration, "loss": _json_num(m.loss),
                    "top1": m.top1} for m in series],
        "lr_trace": [[t, lr] for t, lr in lr_points],
    }
    if not stable:
        doc["meta"] = {"wall_ms_total": record.wall_ms_total,
                       "wall_ms": [m.wall_ms for m in series]}
    return doc


def _json_num(x: float):
    # JSON has no NaN/Inf literals; encode them as strings on the way out.
    if x is None or math.isfinite(x):
        return x
    return repr(float(x))


def _num_back(x):
    if isinstance(x, str):
        return float(x)
    return x


def record_from_doc(doc: dict) -> TrialRecord:
    """Rebuild a record from its document (snapshots are not persisted;
    wall-clock times are 0.0 unless the document keeps its ``meta``)."""
    try:
        meta = doc.get("meta")
        walls = meta["wall_ms"] if meta else [0.0] * len(doc["series"])
        series = [Metrics(iteration=m["iteration"], loss=_num_back(m["loss"]),
                          top1=m["top1"], wall_ms=wall_ms)
                  for m, wall_ms in zip(doc["series"], walls, strict=True)]
        policy = policy_from_doc(doc["policy"])
        return TrialRecord(
            task_id=doc["task_id"], model_id=doc["model_id"], policy=policy,
            optimizer=doc["optimizer"], seed=doc["seed"], budget_iters=doc["budget_iters"],
            eval_every=doc["eval_every"], series=series,
            lr_trace=ScheduleSeries(policy=policy,
                                    points=tuple((t, lr) for t, lr in doc["lr_trace"])),
            diverged=doc["diverged"], peak_top1=doc["peak_top1"],
            iter_at_peak=doc["iter_at_peak"], final_loss=_num_back(doc["final_loss"]),
            wall_ms_total=meta["wall_ms_total"] if meta else 0.0,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TaskError(f"malformed trial record document: {exc!r}") from exc


def record_to_csv(record: TrialRecord) -> str:
    """``iter,loss,top1,lr`` rows, one per evaluation point.

    ``lr`` is the rate applied by the step that produced the evaluated
    parameters (blank for an entry recorded before any step ran).
    """
    def fmt(x) -> str:
        return "" if x is None else repr(float(x))

    lr_points = dict(record.lr_trace.points)
    lines = ["iter,loss,top1,lr"]
    for m in record.series:
        lr = lr_points.get(m.iteration - 1)
        lines.append(f"{m.iteration},{fmt(m.loss)},{fmt(m.top1)},{fmt(lr)}")
    return "\n".join(lines) + "\n"
