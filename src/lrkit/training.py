"""Deterministic training engine and trial records.

``train`` runs one trial of (task, schedule, optimizer, seed) and
returns a :class:`TrialRecord` holding the evaluated metric series, the
per-step learning-rate trace, and optional parameter snapshots.  All
randomness (parameter init, batch order) derives from the trial seed via
counter-based keys, so the same arguments reproduce the same record on a
platform; wall-clock fields are the only nondeterministic content and
live apart from the result payload when exported.

A record is a frozen :class:`TrialSummary` (the scalar fields, whose one
codec writes and reads every record document's head) with its series.

There is one engine, :func:`train_population`: trials that share a
task, budget, optimizer and eval cadence step together in lockstep as a
``(K, P)`` parameter matrix, through the task's callables (see
:class:`lrkit.tasks.Task`) and one optimizer kernel per update.  A
record's rates and snapshots live in tables indexed by trial, written in
place and never compacted; a row that leaves compacts only the stepping
state.  Rows never mix, so each record is bitwise the one the trial gets
alone, whatever the population around it or its place in it; ``train``
is a population of one.  Only the non-stable wall times (``meta.wall_ms``
of an exported record) are read off the population's shared clock.

Full-split evals run in one of two places, by a fixed rule with no
option.  A population is *pipelined* when it has no controller rows
(they observe each validation loss as it happens), the platform is
Linux, rows x eval-split samples (1 for a data-free surface) x evals
reaches ``2**18``, and eval-split samples x ``param_len`` stays below
``2**20``, under the cliff (1.7-2.0M on 2 cores) past which OpenBLAS
threads each eval and the two processes' thread pools contend for the
cores.  A child forked when the population starts evaluates each eval
from a slot of shared memory while the parent keeps stepping; any eval
the child has not reported runs in the parent (see
:class:`_PipelinedEvals`).  Every other population evaluates *inline*.
Records are built once the results are in, from each eval's points,
each row's end (its divergence entry is always its last) and the
tables, so they are bitwise the same in either place.  An eval point's
``wall_ms`` is read as its eval returns inline or is handed on.  A
diverging row's offending parameters are always evaluated inline.

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
import struct
import sys
import time
import warnings
from dataclasses import dataclass, field, fields
from operator import itemgetter
from typing import NoReturn, Protocol, runtime_checkable

import numpy as np

from .errors import (POSITIVE, OptimizerError, TaskError, allocating, check_count, check_items,
                     check_real)
from .optim import KERNELS, check_optimizer
from .schedules import (LRPolicy, POLICY_TYPES, ScheduleSeries, check_horizon, check_policy,
                        lr_values, policy_from_doc, policy_to_doc)
from .tasks import Task

__all__ = ["Metrics", "TrialSummary", "TrialRecord", "ScheduleController", "train",
           "train_population", "default_eval_every", "record_to_doc", "record_from_doc",
           "record_to_csv", "downsample_points", "DIVERGENCE_LIMIT"]

DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class Metrics:
    """One evaluation point: loss (and top-1 where defined) at an iteration."""

    iteration: int
    loss: float
    top1: float | None
    wall_ms: float = 0.0


@dataclass(frozen=True)
class TrialSummary:
    """The scalar fields of a trial, which store queries and ranking read, and
    their one codec, :meth:`to_doc` and :meth:`from_doc`."""

    task_id: str
    model_id: str
    policy: LRPolicy
    optimizer: str
    seed: int
    budget_iters: int
    eval_every: int
    diverged: bool
    peak_top1: float | None
    iter_at_peak: int | None
    final_loss: float

    def to_doc(self) -> dict:
        """The fields in order, the policy as a document and a non-finite final loss as text."""
        doc = {name: getattr(self, name) for name in _SUMMARY_FIELDS}
        return {**doc, "policy": policy_to_doc(self.policy), "final_loss": _json_num(self.final_loss)}

    @classmethod
    def from_doc(cls, doc: dict, policy: LRPolicy | None = None, **rest):
        """Read back :meth:`to_doc`'s fields, with ``policy`` as the document's policy
        when it is already decoded; a subclass passes its own fields as ``rest``."""
        task_id, model_id, policy_doc, *between, final_loss = _summary_values(doc)
        policy = policy_from_doc(policy_doc) if policy is None else policy
        # float() also reads back a non-finite final loss, which is stored as text.
        return cls(task_id, model_id, policy, *between, float(final_loss), **rest)


_SUMMARY_FIELDS = tuple(f.name for f in fields(TrialSummary))
_summary_values = itemgetter(*_SUMMARY_FIELDS)  # positional reads keep a store open fast


@dataclass(frozen=True)
class TrialRecord(TrialSummary):
    """Everything observable about one trial: its summary, series, lr trace and snapshots."""

    series: list[Metrics]
    lr_trace: ScheduleSeries
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


# A population's full-split evals move to a forked child once rows x eval-split
# samples x evals reaches this.  On a 2-core x86-64 host (Python 3.11, numpy
# 2.4) a moons eval costs about 0.07 us per row and sample (227 us at K = 6,
# 709-811 us at K = 18, 600 samples), so this is about 18 ms of evals.  Forking,
# feeding and reaping the child costs about 4.5 ms from a 40 MB process and
# 9 ms from a 190 MB one (the store's), which is more than a K = 1 trial's
# evals (40-60k here) could save.
_PIPELINE_MIN_EVAL_WORK = 2**18
# ... and only while eval-split samples x param_len stays below this.  Past it,
# OpenBLAS (0.3.31 here) threads each eval's matmul, and the parent's and the
# child's thread pools spin on the same 2 cores.  An 18-row moons2 grid (600 val
# samples, budget 800) took, pipelined against inline: 1.1-2.0 s against 2.2-2.5 s
# at 600 x 1601 = 0.96M (hidden=400), 2.7-2.8 s against 4.0-5.9 s at 1.68M
# (hidden=700), and 8.7-25.4 s against 4.7-5.9 s at 2.04M (hidden=850), where
# OPENBLAS_NUM_THREADS=1 brings it back to 2.5-3.3 s against 4.6-5.2 s.  The cap
# sits a power of two under that cliff, so mnist-idx's wide rows evaluate inline.
_PIPELINE_MAX_ROW_WORK = 2**20
_SLOTS = 8  # parameter slots shared with the eval child: evals it may hold at once


class _PipelinedEvals(contextlib.AbstractContextManager):
    """Full-split evals run in a child forked when the population starts.

    A shared map made before the fork holds ``_SLOTS`` parameter slots of
    ``(max_rows, param_len)`` float64 and a ``(losses, top1)`` table by
    eval.  The parent copies an eval's rows into a free slot and queues
    ``(eval, slot, rows)`` on a pipe; the child evaluates a copy of the
    slot, writes the table and reports the eval on a second pipe, which
    frees the slot.  Every message is one write of a fixed size below
    ``PIPE_BUF``, so it is read whole.  Any eval the child has not reported
    runs here: one that finds no free slot, those queued at close (taken
    back while the child ends its eval in progress), and those the child
    could not report, so an eval that raises wherever it runs raises here
    as itself.
    """

    def __init__(self, task: Task, split: str, max_rows: int, evals: int):
        # Imported here: only a pipelined population maps memory (mmap's module
        # adds about 0.13 MB to a process's resident memory).
        import mmap
        self._eval = lambda theta: task.eval_loss_top1(theta, split)
        self._accuracy = task.has_accuracy
        self._results, self._queued, self._free = [], {}, list(range(_SLOTS))
        slot = -(-8 * max_rows * task.param_len // 64) * 64  # each slot on a 64-byte boundary
        try:  # on a failure, what was opened closes before the error is raised
            with contextlib.ExitStack() as opened:
                shared = opened.enter_context(mmap.mmap(-1, _SLOTS * slot + 16 * evals * max_rows))
                self._queue, self._to, self._done, reply = (
                    opened.enter_context(open(fd, mode, buffering=0)) for _ in range(2)
                    for fd, mode in zip(os.pipe(), ("rb", "wb")))
                with warnings.catch_warnings():
                    # Python 3.12+ warns of a fork beside BLAS's worker threads; OpenBLAS
                    # restarts its pool through fork handlers, and the child only evaluates.
                    warnings.simplefilter("ignore", DeprecationWarning)
                    self._pid = os.fork()
                self._close = opened.pop_all()
        except OSError as exc:  # no memory, descriptors or processes to spare
            raise TaskError(f"cannot fork the eval process: {exc}") from exc
        self._slots = np.ndarray((_SLOTS, max_rows, task.param_len), buffer=shared,
                                 strides=(slot, 8 * task.param_len, 8))
        self._table = np.ndarray((2, evals, max_rows), buffer=shared, offset=_SLOTS * slot)
        if self._pid == 0:
            self._serve(reply)
        reply.close()
        os.set_blocking(self._done.fileno(), False)

    def __exit__(self, *exc) -> None:
        # Closing the pipes ends a child that close() has not: its queue reads EOF.
        # The map closes once no array views it.
        self._slots = self._table = None
        self._close.close()
        os.waitpid(self._pid, 0)

    def submit(self, theta: np.ndarray) -> None:
        self._collect()
        i, rows = len(self._results), len(theta)
        # An eval that finds every slot held by the child runs here, as it comes due.
        self._results.append(None if self._free else self._eval(theta))
        if self._free:
            slot = self._free.pop()
            self._queued[i] = slot, rows
            self._slots[slot, :rows] = theta
            self._to.write(struct.pack("3q", i, slot, rows))

    def _serve(self, reply) -> NoReturn:
        """The child: evaluate and report queued evals until EOF or an error, exit."""
        try:
            self._to.close()
            gc.freeze()  # the parent's uncollected garbage is never finalized here
            while msg := self._queue.read(24):
                i, slot, rows = struct.unpack("3q", msg)
                # A numpy-owned copy, laid out as the parent's rows are.
                losses, top1 = self._eval(self._slots[slot, :rows].copy())
                self._table[0, i, :rows] = losses
                if self._accuracy:
                    self._table[1, i, :rows] = top1
                reply.write(msg[:8])
        finally:
            os._exit(0)

    def _collect(self) -> None:
        """Read the results of each eval the child has reported, and free its slot."""
        while msg := self._done.read(8):  # None before a report, b"" once the child has ended
            i, = struct.unpack("q", msg)
            slot, rows = self._queued.pop(i)
            self._results[i] = (self._table[0, i, :rows].copy(), self._table[1, i, :rows].copy()
                                if self._accuracy else None)
            self._free.append(slot)

    def _run_here(self, i: int) -> None:
        """Evaluate queued eval ``i`` here, from its slot."""
        slot, rows = self._queued.pop(i)
        self._results[i] = self._eval(self._slots[slot, :rows].copy())

    def close(self) -> list:
        """Every eval's ``(losses, top1)``, in submission order."""
        # Once the child has closed its copy, the queue has no writer: it reads
        # whole messages and then EOF, and the child ends after its eval in
        # progress.  Meanwhile the evals still queued are taken back and run here.
        self._to.close()
        while msg := self._queue.read(24):
            self._run_here(struct.unpack("3q", msg)[0])
        os.set_blocking(self._done.fileno(), True)
        self._collect()  # up to the end of the reports, when the child has ended
        for i in list(self._queued):  # evals the child took and did not report
            self._run_here(i)
        return self._results


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
    trials = check_items(TaskError, "trials", trials)
    for i, trial in enumerate(trials):
        try:
            _, seed = trial
        except (TypeError, ValueError):
            raise TaskError(f"trial {i}: {trial!r} is not a (schedule, seed) pair") from None
        check_count(TaskError, "trial seeds", seed, 0, rule="non-negative integers")
    check_count(TaskError, "budget_iters", budget_iters)
    check_horizon(budget_iters)  # controller rows need it too, before the rate table
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
    with allocating(TaskError, "budget_iters", budget_iters):
        rates = {p: lr_values(p, np.arange(budget_iters), budget_iters) for p in checked}
        # One column per trial; controller columns are filled step by step.
        lr = np.empty((budget_iters, n))
    for i, (schedule, _) in enumerate(trials):
        if i not in controllers:
            lr[:, i] = rates[schedule]

    opt_kind = check_optimizer(TaskError, optimizer)
    n_slots, kernel = KERNELS[opt_kind]
    seeds = sorted({seed for _, seed in trials})
    with allocating(TaskError, "param_len", task.param_len):
        inits = [np.asarray(task.init(np.random.default_rng((seed, 1))), dtype=float)
                 for seed in seeds]
    for theta in inits:
        if theta.shape != (task.param_len,):
            raise TaskError(f"task init returned shape {theta.shape}, "
                            f"expected ({task.param_len},)")
    # The stepping state, compacted together as rows leave: the live rows' trial
    # indices, parameters, optimizer slots and seed slots, and the (row, trial,
    # controller) triples of the controller-driven ones.
    seed_slot = np.array([seeds.index(seed) for _, seed in trials])
    theta = np.stack(inits)[seed_slot]
    slots = tuple(np.zeros_like(theta) for _ in range(n_slots))
    live = np.arange(n)
    controlled = [(i, i, ctl) for i, ctl in controllers.items()]
    # snaps[i, k]: trial i's parameters entering iteration k * snapshot_stride,
    # for the first `taken` k while the row is live.
    snaps, taken = None, 0
    if snapshot_stride is not None:
        with allocating(TaskError, "budget_iters", budget_iters):
            snaps = np.empty((n, budget_iters // snapshot_stride + 1, task.param_len))
        snaps[:, 0], taken = theta, 1

    split = "val" if task.n_val > 0 else "train"
    # Controllers read each eval as it happens, so their populations evaluate inline.
    samples, evals = task.n_val or task.n_train or 1, -(-budget_iters // eval_every)
    pipelined = (not controllers and sys.platform == "linux"
                 and n * samples * evals >= _PIPELINE_MIN_EVAL_WORK
                 and samples * task.param_len < _PIPELINE_MAX_ROW_WORK)
    # points: one (trial indices, iteration, wall ms) per eval, zipped with the
    # evals' (losses, top1) results in submission order.  ends[i]: (steps, wall
    # ms, snapshots taken, divergence entry as (loss, top1) or None), written
    # once when row i closes.  A divergence entry is always a row's last entry.
    points, results, ends = [], [], [None] * n
    t0 = time.perf_counter()

    def end(at, steps: int, losses=None, top1=None) -> None:
        """Close the rows at ``at`` (a mask or slice) after ``steps`` applied rates;
        diverged rows pass their last entry's ``losses`` and ``top1``, and leave."""
        nonlocal live, theta, slots, seed_slot, controlled
        now = (time.perf_counter() - t0) * 1e3
        top1s = [None] * n if top1 is None else top1.tolist()
        lasts = [None] * n if losses is None else list(zip(losses.tolist(), top1s))
        for i, last in zip(live[at].tolist(), lasts):
            ends[i] = (steps, now, taken, last)
        if losses is not None:
            keep = ~at
            live, theta, seed_slot, *slots = (a[keep] for a in (live, theta, seed_slot, *slots))
            controlled = [(r, i, controllers[i]) for r, i in enumerate(live.tolist())
                          if i in controllers]

    spe, bsz = task.steps_per_epoch, task.batch_size
    perms = None
    # Divergence is an expected outcome here, so the overflow/invalid
    # warnings numpy would emit on the way to it are suppressed, also in
    # the eval child, which is forked inside this state.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
            (_PipelinedEvals(task, split, n, evals) if pipelined else contextlib.nullcontext()) as child:
        for t in range(budget_iters):
            idx = None
            if task.n_train > 0:
                epoch, pos = divmod(t, spe)
                if pos == 0:
                    perms = np.stack([np.random.default_rng((seed, 0, epoch))
                                      .permutation(task.n_train) for seed in seeds])
                idx = perms[:, pos * bsz: (pos + 1) * bsz][seed_slot]
            loss, grad = task.loss_and_grad(theta, idx, "train")
            losses = loss.tolist()
            # The row masks are built only when a cheap whole-population check fails.
            if not (all(-math.inf < v <= DIVERGENCE_LIMIT for v in losses)
                    and np.isfinite(grad).all()):
                bad = ~(np.isfinite(loss) & (loss <= DIVERGENCE_LIMIT)) | ~np.isfinite(grad).all(axis=1)
                # The offending training loss is the row's last entry, with
                # the top-1 of the parameters that produced it, evaluated here.
                end(bad, t, loss[bad], task.eval_loss_top1(theta[bad], split)[1])
                losses, grad = loss[~bad].tolist(), grad[~bad]
                if not len(live):
                    break
            for _, i, ctl in controlled:
                lr[t, i] = check_real(OptimizerError, "lr", ctl.lr_for_step(t), *POSITIVE)
            theta, slots = kernel(theta, slots, grad, lr[t].take(live)[:, None], t + 1)
            for r, _, ctl in controlled:
                ctl.observe_train(t, losses[r])
            done = t + 1
            if not np.isfinite(theta).all():
                bad = ~np.isfinite(theta).all(axis=1)
                k = int(bad.sum())
                end(bad, done, np.full(k, math.inf), np.zeros(k) if task.has_accuracy else None)
                if not len(live):
                    break
            if snapshot_stride is not None and done % snapshot_stride == 0:
                snaps[live, taken] = theta
                taken += 1
            if done % eval_every == 0 or done == budget_iters:
                if child is None:
                    results.append(task.eval_loss_top1(theta, split))
                else:
                    child.submit(theta)
                points.append((live, done, (time.perf_counter() - t0) * 1e3))
                if controlled:
                    losses = results[-1][0].tolist()
                    for r, _, ctl in controlled:
                        ctl.observe_val(done, losses[r])
        end(slice(None), budget_iters)
        results = results if child is None else child.close()

    series: list[list[Metrics]] = [[] for _ in trials]
    for (at, iteration, now), (losses, top1) in zip(points, results, strict=True):
        top1s = [None] * len(at) if top1 is None else top1.tolist()
        for i, loss, top1_i in zip(at.tolist(), losses.tolist(), top1s):
            series[i].append(Metrics(iteration, loss, top1_i, now))
    records = []
    for i, ((schedule, seed), (steps, now, n_snaps, last)) in enumerate(zip(trials, ends)):
        if last is not None:
            series[i].append(Metrics(steps, *last, now))
        policy = controllers[i].realized_policy() if i in controllers else schedule
        top1s = [(m.top1, m.iteration) for m in series[i] if m.top1 is not None]
        peak_top1 = max((v for v, _ in top1s), default=None)
        records.append(TrialRecord(
            task_id=task.task_id, model_id=task.model_id, policy=policy,
            optimizer=opt_kind, seed=seed, budget_iters=budget_iters,
            eval_every=eval_every, series=series[i],
            lr_trace=ScheduleSeries(tuple(range(steps)), tuple(lr[:steps, i].tolist())),
            diverged=last is not None, peak_top1=peak_top1,
            iter_at_peak=min((it for v, it in top1s if v == peak_top1), default=None),
            final_loss=series[i][-1].loss, wall_ms_total=now,
            snapshots=[(k * snapshot_stride, snaps[i, k]) for k in range(n_snaps)]))
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
    doc = TrialSummary.to_doc(record)
    doc["series"] = [{"iteration": m.iteration, "loss": _json_num(m.loss), "top1": m.top1}
                     for m in series]
    doc["lr_trace"] = [[ts[i], lrs[i]] for i in lr_keep]
    if not stable:
        doc["meta"] = {"wall_ms_total": record.wall_ms_total,
                       "wall_ms": [m.wall_ms for m in series]}
    return doc


def _json_num(x: float):
    # JSON has no NaN/Inf literals; encode them as strings on the way out.
    return x if x is None or math.isfinite(x) else repr(float(x))


def record_from_doc(doc: dict) -> TrialRecord:
    """Rebuild a record from its document (snapshots are not persisted;
    wall-clock times are 0.0 unless the document keeps its ``meta``)."""
    try:
        meta = doc.get("meta")
        walls = meta["wall_ms"] if meta else [0.0] * len(doc["series"])
        series = [Metrics(iteration=m["iteration"], loss=float(m["loss"]),
                          top1=m["top1"], wall_ms=wall_ms)
                  for m, wall_ms in zip(doc["series"], walls, strict=True)]
        return TrialRecord.from_doc(
            doc, series=series,
            lr_trace=ScheduleSeries(tuple(int(t) for t, _ in doc["lr_trace"]),
                                    tuple(float(lr) for _, lr in doc["lr_trace"])),
            wall_ms_total=meta["wall_ms_total"] if meta else 0.0)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
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
