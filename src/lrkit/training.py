"""Deterministic training engine and trial records.

``train`` runs one trial of (task, schedule, optimizer, seed) and
returns a :class:`TrialRecord` holding the evaluated metric series, the
per-step learning-rate trace, and optional parameter snapshots.  All
randomness (parameter init, batch order) derives from the trial seed via
counter-based keys, so the same arguments reproduce the same record on a
platform; wall-clock fields are the only nondeterministic content and
live apart from the result payload when exported.

There is one engine, :func:`train_population`: trials that share a
task, budget, optimizer and eval cadence step together in lockstep as a
``(K, P)`` parameter matrix, through the task's callables (see
:class:`lrkit.tasks.Task`) and one optimizer kernel per update.
Static policies feed a ``(K, T)`` rate matrix evaluated once per
distinct policy.  Rows never mix, so each record is bitwise the one the
trial gets alone, whatever the population around it or its place in
it; ``train`` is a population of one.  Only the non-stable wall times
(``meta.wall_ms`` of an exported record) are read off the population's
shared clock.

Full-split evals run in one of two places, by a fixed rule with no
option.  A population is *pipelined* when it has no controller rows,
the platform is Linux, and rows x eval-split samples (1 for a data-free
surface) x evals reaches ``2**18``: a child forked when the population
starts evaluates each eval's parameter bytes with the same
``eval_loss_top1`` while the parent keeps stepping, and hands every
result back when the population ends (see :class:`_PipelinedEvals`).
Every other population evaluates *inline*, as each eval comes due;
controllers need that, since they observe each validation loss as it
happens.  Records are built once the results are in, from each eval's
points and each row's end (its rates, and its divergence entry, always
its last), so they are bitwise the same in either place.  An eval
point's ``wall_ms`` is read when its eval returns inline, or when its
parameters are handed on for a pipelined eval.  The eval of a diverging
row's offending parameters always runs inline.

The ``schedule`` of a trial is either a static policy or a
*controller*, an object that picks the rate step by step while
observing losses (see :class:`ScheduleController`).  Controllers report
the policy they ended up realizing, so their runs can be replayed as
static COMPOSITEs.

Divergence: when a trial's training loss turns NaN/Inf or exceeds
``DIVERGENCE_LIMIT`` (or its parameters go non-finite), that trial
stops, keeps the series recorded so far, appends one final entry
carrying the offending loss, and sets ``diverged``; its row leaves the
population while the others train on.
"""
from __future__ import annotations

import contextlib
import gc
import math
import os
import pickle
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import NoReturn, Protocol, runtime_checkable

import numpy as np

from .errors import OptimizerError, TaskError, check_count
from .optim import KERNELS, OPTIMIZER_KINDS
from .schedules import (LRPolicy, POLICY_TYPES, ScheduleSeries, check_horizon, check_policy,
                        lr_values, policy_from_doc, policy_to_doc)
from .tasks import Task

__all__ = ["Metrics", "TrialRecord", "ScheduleController", "train", "train_population",
           "default_eval_every", "record_to_doc", "record_from_doc", "record_to_csv",
           "downsample_points", "DIVERGENCE_LIMIT"]

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


def train(task: Task, schedule: LRPolicy | ScheduleController, *, budget_iters: int,
          seed: int = 0, optimizer: str = "momentum",
          eval_every: int | None = None, snapshot_stride: int | None = None) -> TrialRecord:
    """Run one trial and record it: :func:`train_population` of one.

    ``snapshot_stride=M`` stores the parameter vector entering every
    M-th iteration (and the final vector when the budget is a multiple
    of M), which step-size estimation consumes downstream.
    """
    return train_population(task, [(schedule, seed)], budget_iters=budget_iters,
                            optimizer=optimizer, eval_every=eval_every,
                            snapshot_stride=snapshot_stride)[0]


class _Rows:
    """The live rows of a population, compacted together as rows leave:
    trial index, parameters, optimizer slots, rate matrix and seed slot,
    plus the (row, controller) pairs of the controller-driven trials."""

    def __init__(self, trial, theta, slots, lr, seed_slot, controllers: dict):
        self.trial, self.theta, self.slots, self.lr, self.seed_slot = (
            trial, theta, slots, lr, seed_slot)
        self._controllers = controllers
        self._pair_controllers()

    def keep(self, mask: np.ndarray) -> None:
        self.trial, self.theta, self.lr, self.seed_slot = (
            self.trial[mask], self.theta[mask], self.lr[mask], self.seed_slot[mask])
        self.slots = tuple(s[mask] for s in self.slots)
        self._pair_controllers()

    def _pair_controllers(self) -> None:
        self.controlled = [(r, self._controllers[i]) for r, i in enumerate(self.trial.tolist())
                           if i in self._controllers]


# A population's full-split evals move to a forked child once rows x eval-split
# samples x evals reaches this.  On a 2-core x86-64 host (Python 3.11, numpy
# 2.4) a moons eval costs about 0.07 us per row and sample (227 us at K = 6,
# 709-811 us at K = 18, 600 samples), so this is about 18 ms of evals.  Forking,
# feeding and reaping the child costs about 4.5 ms from a 40 MB process and
# 9 ms from a 190 MB one (the store's), which is more than a K = 1 trial's
# evals (40-60k here) could save.
_PIPELINE_MIN_EVAL_WORK = 2**18


class _PipelinedEvals:
    """Full-split evals run in a child forked when the population starts.

    The parent queues each eval's ``(K, P)`` parameter bytes to the child
    on a message socket and keeps stepping.  The child runs the same
    ``eval_loss_top1`` on those bytes, holds the results, and writes them
    back once, when the parent closes its input; so neither side can
    block the other on a full pipe.  The parent never waits to queue: an
    eval the queue cannot take (it is full, or the message too large)
    runs here as it comes due, and at the end the parent takes back and
    runs its share of the evals still queued.  So a child that falls
    behind, say on a core another process holds, delays the population
    by little more than its eval in progress.  The child leaves through
    ``os._exit`` and is always reaped.
    """

    def __init__(self, task: Task, split: str, max_rows: int):
        self._task, self._split = task, split
        self._max_bytes = 8 + 8 * max_rows * task.param_len
        self._placed: list = []  # per eval: its result if it ran here, else None
        # Imported here, as in submit and close: importing socket costs every
        # lrkit process about 0.5 MB of resident memory.
        import socket
        self._to, self._queue = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        out_r, out_w = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12+ warns of a fork beside BLAS's worker threads; OpenBLAS
            # restarts its pool through fork handlers, and the child only evaluates.
            warnings.simplefilter("ignore", DeprecationWarning)
            self._pid = os.fork()
        if self._pid == 0:
            self._to.close()
            os.close(out_r)
            self._serve(out_w)
        os.close(out_w)
        self._from = open(out_r, "rb")

    def __enter__(self) -> "_PipelinedEvals":
        return self

    def __exit__(self, *exc) -> None:
        # After close() the child is reaped.  On any other way out, closing
        # the sockets and the pipe ends it: its queue reads EOF and its one
        # write fails.
        self._to.close()
        self._queue.close()
        self._from.close()
        if self._pid is not None:
            self._reap()

    def submit(self, theta: np.ndarray) -> None:
        import socket
        i = len(self._placed)
        try:
            self._to.send(i.to_bytes(8, "little") + theta.tobytes(), socket.MSG_DONTWAIT)
            self._placed.append(None)
        except OSError:  # a full queue, or a message larger than the socket takes
            self._placed.append(self._task.eval_loss_top1(theta, self._split))

    def _take(self, flags: int = 0):
        """The next queued eval as (index, (losses, top1)), or None at the end
        of the queue."""
        msg = self._queue.recv(self._max_bytes, flags)
        if not msg:
            return None
        # A numpy-owned copy, laid out as the parent's rows are.
        theta = np.frombuffer(msg, offset=8).reshape(-1, self._task.param_len).copy()
        return int.from_bytes(msg[:8], "little"), self._task.eval_loss_top1(theta, self._split)

    def _serve(self, out_fd: int) -> NoReturn:
        """The child: evaluate queued evals until EOF or an error, reply once, exit."""
        code = 1
        try:
            gc.freeze()  # the parent's uncollected garbage is never finalized here
            results, error = {}, None
            with open(out_fd, "wb") as out:
                try:
                    while (taken := self._take()) is not None:
                        results[taken[0]] = taken[1]
                except Exception as exc:  # raised again in the parent
                    error = exc
                out.write(pickle.dumps((results, error)))
            code = 0
        finally:
            os._exit(code)

    def close(self) -> list:
        """Every eval's ``(losses, top1)``, in submission order; raises again
        what an eval raised in the child."""
        import socket
        self._to.shutdown(socket.SHUT_WR)
        taken = {}
        # Share the evals still queued with the child.  After the shutdown an
        # empty queue reads as EOF, so this never waits.
        while (one := self._take(socket.MSG_DONTWAIT)) is not None:
            taken[one[0]] = one[1]
        payload = self._from.read()
        status = self._reap()
        if not payload:
            raise TaskError(f"the eval process ended with wait status {status} and no results")
        results, error = pickle.loads(payload)
        if error is not None:
            raise error
        results.update(taken)
        return [results[i] if mine is None else mine for i, mine in enumerate(self._placed)]

    def _reap(self) -> int:
        pid, self._pid = self._pid, None
        return os.waitpid(pid, 0)[1]


def train_population(task: Task, trials, *, budget_iters: int, optimizer: str = "momentum",
                     eval_every: int | None = None,
                     snapshot_stride: int | None = None) -> list[TrialRecord]:
    """Train ``trials``, a sequence of ``(schedule, seed)`` pairs, in lockstep.

    Every trial shares ``task``, the budget, the optimizer, the eval
    cadence and the snapshot stride (see :func:`train`).  Returns one
    record per trial, in order; each is bitwise the record the trial
    gets alone (wall times aside), because no row's arithmetic reads
    another's.
    """
    trials = list(trials)
    if not trials:
        raise TaskError("train_population needs at least one trial")
    for _, seed in trials:
        check_count(TaskError, "trial seeds", seed, 0, rule="non-negative integers")
    check_count(TaskError, "budget_iters", budget_iters)
    check_horizon(budget_iters)  # controller rows need it too, before the rate matrix
    if eval_every is None:
        eval_every = default_eval_every(budget_iters)
    check_count(TaskError, "eval_every", eval_every)
    if snapshot_stride is not None:
        check_count(TaskError, "snapshot_stride", snapshot_stride)

    n = len(trials)
    checked: list[LRPolicy] = []  # compared, not hashed: a malformed field may be a list
    controllers: dict[int, ScheduleController] = {}
    for i, (schedule, _) in enumerate(trials):
        if isinstance(schedule, ScheduleController):
            controllers[i] = schedule
        elif not isinstance(schedule, POLICY_TYPES):
            raise TaskError(f"trial {i}: {schedule!r} is neither a policy nor a ScheduleController")
        elif schedule not in checked:
            check_policy(schedule, budget_iters)
            checked.append(schedule)
    rates = {p: lr_values(p, np.arange(budget_iters), budget_iters) for p in checked}
    # Controller rows are filled step by step.
    lr = np.empty((n, budget_iters))
    for i, (schedule, _) in enumerate(trials):
        if i not in controllers:
            lr[i] = rates[schedule]

    opt_kind = str(optimizer).lower()
    if opt_kind not in OPTIMIZER_KINDS:
        raise TaskError(f"unknown optimizer {optimizer!r}; expected one of {OPTIMIZER_KINDS}")
    n_slots, kernel = KERNELS[opt_kind]
    seeds = sorted({seed for _, seed in trials})
    inits = [np.asarray(task.init(np.random.default_rng((seed, 1))), dtype=float)
             for seed in seeds]
    for theta in inits:
        if theta.shape != (task.param_len,):
            raise TaskError(f"task init returned shape {theta.shape}, "
                            f"expected ({task.param_len},)")
    seed_slot = np.array([seeds.index(seed) for _, seed in trials])
    theta = np.stack(inits)[seed_slot]
    rows = _Rows(np.arange(n), theta, tuple(np.zeros_like(theta) for _ in range(n_slots)),
                 lr, seed_slot, controllers)

    split = "val" if task.n_val > 0 else "train"
    # Controllers read each eval as it happens, so their populations evaluate inline.
    eval_work = n * (task.n_val or task.n_train or 1) * -(-budget_iters // eval_every)
    pipelined = (not controllers and sys.platform == "linux"
                 and eval_work >= _PIPELINE_MIN_EVAL_WORK)
    snapshots: list[list[tuple[int, np.ndarray]]] = [[] for _ in trials]
    # points: one (trial indices, iteration, wall ms) per eval, zipped with the
    # evals' (losses, top1) results in submission order.  ends[i]: (applied
    # rates, wall ms, divergence entry as (loss, top1) or None), written once
    # when row i closes.  A divergence entry is always a row's last entry.
    points, results, ends = [], [], [None] * n
    t0 = time.perf_counter()

    def end(at, steps: int, losses=None, top1=None) -> None:
        """Close the rows at ``at`` (a mask or slice) after ``steps`` applied rates;
        diverged rows pass their last entry's ``losses`` and ``top1``, and leave."""
        now = (time.perf_counter() - t0) * 1e3
        top1s = [None] * n if top1 is None else top1.tolist()
        lasts = [None] * n if losses is None else list(zip(losses.tolist(), top1s))
        for i, lr_row, last in zip(rows.trial[at].tolist(), rows.lr[at, :steps].tolist(), lasts):
            ends[i] = (lr_row, now, last)
        if losses is not None:
            rows.keep(~at)

    if snapshot_stride is not None:
        for i, theta_i in zip(rows.trial, rows.theta):
            snapshots[i].append((0, theta_i.copy()))
    spe, bsz = task.steps_per_epoch, task.batch_size
    perms = None
    # Divergence is an expected outcome here, so the overflow/invalid
    # warnings numpy would emit on the way to it are suppressed, also in
    # the eval child, which is forked inside this state.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
            (_PipelinedEvals(task, split, n) if pipelined else contextlib.nullcontext()) as child:
        for t in range(budget_iters):
            idx = None
            if task.n_train > 0:
                epoch, pos = divmod(t, spe)
                if pos == 0:
                    perms = np.stack([np.random.default_rng((seed, 0, epoch))
                                      .permutation(task.n_train) for seed in seeds])
                idx = perms[:, pos * bsz: (pos + 1) * bsz][rows.seed_slot]
            loss, grad = task.loss_and_grad(rows.theta, idx, "train")
            losses = loss.tolist()
            # The row masks are built only when a cheap whole-population check fails.
            if not (all(-math.inf < v <= DIVERGENCE_LIMIT for v in losses)
                    and np.isfinite(grad).all()):
                bad = ~(np.isfinite(loss) & (loss <= DIVERGENCE_LIMIT)) | ~np.isfinite(grad).all(axis=1)
                # The offending training loss is the row's last entry, with
                # the top-1 of the parameters that produced it, evaluated here.
                end(bad, t, loss[bad], task.eval_loss_top1(rows.theta[bad], split)[1])
                losses, grad = loss[~bad].tolist(), grad[~bad]
                if not len(rows.trial):
                    break
            for r, ctl in rows.controlled:
                rate = float(ctl.lr_for_step(t))
                if not (math.isfinite(rate) and rate > 0.0):
                    raise OptimizerError(f"lr must be positive and finite, got {rate}")
                rows.lr[r, t] = rate
            rows.theta, rows.slots = kernel(rows.theta, rows.slots, grad,
                                            rows.lr[:, t: t + 1], t + 1)
            for r, ctl in rows.controlled:
                ctl.observe_train(t, losses[r])
            done = t + 1
            if not np.isfinite(rows.theta).all():
                bad = ~np.isfinite(rows.theta).all(axis=1)
                k = int(bad.sum())
                end(bad, done, np.full(k, math.inf), np.zeros(k) if task.has_accuracy else None)
                if not len(rows.trial):
                    break
            if snapshot_stride is not None and done % snapshot_stride == 0:
                for i, theta_i in zip(rows.trial, rows.theta):
                    snapshots[i].append((done, theta_i.copy()))
            if done % eval_every == 0 or done == budget_iters:
                if child is None:
                    results.append(task.eval_loss_top1(rows.theta, split))
                else:
                    child.submit(rows.theta)
                points.append((rows.trial, done, (time.perf_counter() - t0) * 1e3))
                if rows.controlled:
                    losses = results[-1][0].tolist()
                    for r, ctl in rows.controlled:
                        ctl.observe_val(done, losses[r])
        end(slice(None), budget_iters)
        results = results if child is None else child.close()

    series: list[list[Metrics]] = [[] for _ in trials]
    for (at, iteration, now), (losses, top1) in zip(points, results, strict=True):
        top1s = [None] * len(at) if top1 is None else top1.tolist()
        for i, loss, top1_i in zip(at.tolist(), losses.tolist(), top1s):
            series[i].append(Metrics(iteration, loss, top1_i, now))
    records = []
    for i, ((schedule, seed), (lr_row, now, last)) in enumerate(zip(trials, ends)):
        if last is not None:
            series[i].append(Metrics(len(lr_row), *last, now))
        policy = controllers[i].realized_policy() if i in controllers else schedule
        top1s = [(m.top1, m.iteration) for m in series[i] if m.top1 is not None]
        peak_top1 = max((v for v, _ in top1s), default=None)
        records.append(TrialRecord(
            task_id=task.task_id, model_id=task.model_id, policy=policy,
            optimizer=opt_kind, seed=seed, budget_iters=budget_iters,
            eval_every=eval_every, series=series[i],
            lr_trace=ScheduleSeries(tuple(range(len(lr_row))), tuple(lr_row)),
            diverged=last is not None, peak_top1=peak_top1,
            iter_at_peak=min((it for v, it in top1s if v == peak_top1), default=None),
            final_loss=series[i][-1].loss, snapshots=snapshots[i], wall_ms_total=now))
    return records


# ---------------------------------------------------------------------------
# record documents

def downsample_points(points: list, cap: int = 512) -> list:
    """Thin a list to at most ``cap`` entries, always keeping the last."""
    check_count(TaskError, "cap", cap)
    n = len(points)
    if n <= cap:
        return list(points)
    stride = -(-n // cap)
    kept = list(points[::stride])
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
    ``wall_ms_total`` are exact regardless.  A cap below 2 cannot keep a
    rise and the last entry, and raises :class:`TaskError`.
    """
    series, ts, lrs = record.series, record.lr_trace.ts, record.lr_trace.lrs
    lr_keep = range(len(ts))
    if series_cap is not None:
        check_count(TaskError, "series_cap", series_cap, 2)
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
        lr_keep = downsample_points(lr_keep, series_cap)
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
        "lr_trace": [[ts[i], lrs[i]] for i in lr_keep],
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
            lr_trace=ScheduleSeries(tuple(int(t) for t, _ in doc["lr_trace"]),
                                    tuple(float(lr) for _, lr in doc["lr_trace"])),
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

    lr_at = dict(zip(record.lr_trace.ts, record.lr_trace.lrs))
    lines = ["iter,loss,top1,lr"]
    for m in record.series:
        lr = lr_at.get(m.iteration - 1)
        lines.append(f"{m.iteration},{fmt(m.loss)},{fmt(m.top1)},{fmt(lr)}")
    return "\n".join(lines) + "\n"
