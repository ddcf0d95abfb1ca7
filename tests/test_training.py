"""Training-loop behavior: determinism, cadence, divergence, records."""
import dataclasses
import errno
import gc
import json
import math
import multiprocessing
import os
import re
import select
import sys

import numpy as np
import pytest

from lrkit import (
    DIVERGENCE_LIMIT,
    Composite,
    Cyclic,
    Exp,
    Fix,
    OptimizerError,
    PolicyLadderController,
    Poly,
    ScheduleError,
    Segment,
    Task,
    TaskError,
    blobs2,
    default_eval_every,
    downsample_points,
    eval_lr,
    iterations_to_target,
    landscape2d,
    mnist_idx,
    moons2,
    quad1d,
    record_from_doc,
    record_to_csv,
    record_to_doc,
    train,
    train_population,
)
from lrkit import training
from lrkit.policydb import _check_consistency

from _factories import make_record
from test_tasks import write_idx_fixture


def test_default_eval_every():
    assert default_eval_every(10_000) == 100
    assert default_eval_every(99) == 1
    assert default_eval_every(1) == 1


def test_training_is_deterministic():
    task = blobs2(seed=7, n=200, model="logreg")
    kwargs = dict(budget_iters=40, seed=3, optimizer="momentum", eval_every=10,
                  snapshot_stride=20)
    a = train(task, Fix(k=0.05), **kwargs)
    b = train(task, Fix(k=0.05), **kwargs)
    assert [m.loss for m in a.series] == [m.loss for m in b.series]
    assert [m.top1 for m in a.series] == [m.top1 for m in b.series]
    assert a.lr_trace.points == b.lr_trace.points
    assert len(a.snapshots) == len(b.snapshots)
    for (ta, va), (tb, vb) in zip(a.snapshots, b.snapshots):
        assert ta == tb and np.array_equal(va, vb)
    assert record_to_doc(a, stable=True) == record_to_doc(b, stable=True)


def test_different_seed_changes_trajectory():
    task = blobs2(seed=7, n=200, model="logreg")
    a = train(task, Fix(k=0.05), budget_iters=40, seed=0, eval_every=40)
    b = train(task, Fix(k=0.05), budget_iters=40, seed=1, eval_every=40)
    assert a.series[-1].loss != b.series[-1].loss


def test_eval_cadence_and_final_eval():
    task = quad1d(lam=2.0)
    rec = train(task, Fix(k=0.1), budget_iters=10, eval_every=3, optimizer="sgd")
    assert [m.iteration for m in rec.series] == [3, 6, 9, 10]
    rec = train(task, Fix(k=0.1), budget_iters=9, eval_every=3, optimizer="sgd")
    assert [m.iteration for m in rec.series] == [3, 6, 9]


def test_lr_trace_matches_static_policy():
    task = blobs2(seed=7, n=100, model="logreg")
    policy = Cyclic("TRI", k0=0.01, k1=0.06, l=8)
    rec = train(task, policy, budget_iters=30, eval_every=10)
    assert len(rec.lr_trace.points) == 30
    for t, lr in rec.lr_trace.points:
        assert lr == eval_lr(policy, t, 30)


def test_quadratic_converges_under_good_rate():
    task = quad1d(lam=2.0)
    rec = train(task, Fix(k=0.5), budget_iters=5, eval_every=1, optimizer="sgd")
    # theta scales by (1 - 0.5 * 2) = 0 after one step: exact optimum.
    assert rec.series[-1].loss == 0.0
    assert not rec.diverged


def test_landscape_loss_non_increasing_under_small_steps():
    rec = train(landscape2d(), Fix(k=0.01), budget_iters=10, eval_every=1, optimizer="sgd")
    losses = [m.loss for m in rec.series]
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    assert rec.peak_top1 is None and rec.iter_at_peak is None


def test_divergence_flags_and_keeps_offending_loss():
    task = quad1d(lam=2.0, theta0=1.0)
    # eta = 2 makes theta scale by -3 each step; loss grows by 9x.
    rec = train(task, Fix(k=2.0), budget_iters=50, eval_every=50, optimizer="sgd")
    assert rec.diverged
    last = rec.series[-1]
    assert last.loss > DIVERGENCE_LIMIT or not math.isfinite(last.loss)
    assert rec.final_loss == last.loss
    assert last.iteration < 50
    assert len(rec.lr_trace.points) == last.iteration


def test_divergence_on_non_finite_parameters():
    def init(rng):
        return np.zeros(1)

    def loss_and_grad(theta, idx, split):
        return np.ones(len(theta)), np.full_like(theta, 1e308)

    def eval_loss_top1(theta, split):
        return theta[:, 0].copy(), None

    task = Task(task_id="hostile", model_id="surface", param_len=1, batch_size=1,
                n_train=0, n_val=0, has_accuracy=False, init=init,
                loss_and_grad=loss_and_grad, eval_loss_top1=eval_loss_top1)
    rec = train(task, Fix(k=10.0), budget_iters=5, eval_every=5, optimizer="sgd")
    assert rec.diverged
    assert not math.isfinite(rec.series[-1].loss)


def test_snapshot_stride_points():
    task = quad1d(lam=2.0)
    rec = train(task, Fix(k=0.1), budget_iters=10, eval_every=10, optimizer="sgd",
                snapshot_stride=5)
    assert [t for t, _ in rec.snapshots] == [0, 5, 10]
    rec = train(task, Fix(k=0.1), budget_iters=10, eval_every=10, optimizer="sgd",
                snapshot_stride=3)
    assert [t for t, _ in rec.snapshots] == [0, 3, 6, 9]
    rec = train(task, Fix(k=0.1), budget_iters=10, eval_every=10, optimizer="sgd")
    assert rec.snapshots == []


def test_peak_tracking_uses_first_attainment():
    task = blobs2(seed=7, n=200, model="logreg")
    rec = train(task, Fix(k=0.1), budget_iters=60, eval_every=5)
    tops = [(m.iteration, m.top1) for m in rec.series]
    best = max(v for _, v in tops)
    first = min(i for i, v in tops if v == best)
    assert rec.peak_top1 == best
    assert rec.iter_at_peak == first


class _StubController:
    """Constant-rate controller that logs its callbacks."""

    def __init__(self, lr):
        self.lr = lr
        self.train_calls = []
        self.val_calls = []

    def lr_for_step(self, t):
        return self.lr

    def observe_train(self, t, loss):
        self.train_calls.append((t, loss))

    def observe_val(self, iteration, loss):
        self.val_calls.append((iteration, loss))

    def realized_policy(self):
        return Fix(k=self.lr)


def test_controller_callbacks_and_realized_policy():
    task = blobs2(seed=7, n=100, model="logreg")
    ctl = _StubController(0.03)
    rec = train(task, ctl, budget_iters=12, eval_every=4)
    assert rec.policy == Fix(k=0.03)
    assert [t for t, _ in ctl.train_calls] == list(range(12))
    assert all(math.isfinite(l) for _, l in ctl.train_calls)
    assert [i for i, _ in ctl.val_calls] == [4, 8, 12]
    assert all(lr == 0.03 for _, lr in rec.lr_trace.points)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_controllers_observe_exactly_the_recorded_losses(optimizer):
    # Fix(1e8) diverges on step 0, so every row behind it shifts up one row
    # before the first eval.
    task = moons2(n=200, noise=0.3, seed=7, batch=8)
    ctls = [_StubController(0.05), _StubController(0.2)]
    recs = train_population(task, [(Fix(k=1e8), 0), (ctls[0], 1), (Fix(k=0.05), 2),
                                   (ctls[1], 0)], budget_iters=30, eval_every=4,
                            optimizer=optimizer)
    assert recs[0].diverged and recs[0].series[-1].iteration == 1
    for ctl, rec in zip(ctls, recs[1::2]):
        assert [i for i, _ in ctl.val_calls] == [m.iteration for m in rec.series]
        assert (np.array([v for _, v in ctl.val_calls]).tobytes()
                == np.array([m.loss for m in rec.series]).tobytes())


def test_train_argument_validation():
    task = quad1d()
    with pytest.raises(TaskError):
        train(task, Fix(k=0.1), budget_iters=0)
    with pytest.raises(TaskError):
        train(task, Fix(k=0.1), budget_iters=10, eval_every=0)
    with pytest.raises(TaskError):
        train(task, Fix(k=0.1), budget_iters=10, snapshot_stride=0)
    with pytest.raises(TaskError):
        train(task, Fix(k=0.1), budget_iters=10, optimizer="adagrad")
    with pytest.raises(ScheduleError, match="invalid policy"):
        train(task, Fix(k=0.0), budget_iters=10)
    with pytest.raises(TaskError, match="at least one trial"):
        train_population(task, [], budget_iters=10)


@pytest.mark.parametrize("rate", [0.0, -0.1, math.nan, math.inf, "0.1", None, True,
                                  np.float32(0.1), -1])
def test_a_controller_rate_that_is_not_positive_and_finite_is_refused(rate):
    # A controller's rate is held to the one rule for reals, as a step's rate is.
    task = blobs2(seed=7, n=40, model="logreg")
    message = f"lr must be positive and finite, got {rate!r}"
    with pytest.raises(OptimizerError, match=f"^{re.escape(message)}$"):
        train_population(task, [(Fix(k=0.1), 0), (_StubController(rate), 1)], budget_iters=5)


@pytest.mark.parametrize("init", [lambda rng: np.zeros(2), lambda rng: np.zeros((1, 1)),
                                  lambda rng: 0.5])
def test_a_task_init_of_the_wrong_shape_is_refused(init):
    task = dataclasses.replace(quad1d(), init=init)
    with pytest.raises(TaskError, match=r"^task init returned shape \(.*\), expected \(1,\)$"):
        train_population(task, [(Fix(k=0.1), 0), (Fix(k=0.1), 1)], budget_iters=5)


@pytest.mark.parametrize("seed", [-1, 1.0, "0", None, True, np.int64(3)])
def test_train_population_rejects_bad_seeds(seed):
    """A trial seed must be a non-negative integer; ``train`` and every search
    reach numpy's seeding only through this check."""
    with pytest.raises(TaskError, match="non-negative integers, got"):
        train(quad1d(), Fix(k=0.1), budget_iters=10, seed=seed)
    with pytest.raises(TaskError, match="non-negative integers, got"):
        train_population(moons2(n=40), [(Fix(k=0.1), 0), (Fix(k=0.1), seed)], budget_iters=10)


@pytest.mark.parametrize("policy,budget", [
    (Poly(k=0.1, p=1.0, max_iter=99), 100),
    (Exp(k=0.1, gamma=0.5), 1200),
    (Composite((Segment(0, 10, Fix(k=0.1)), Segment(10, 30, Poly(k=0.1, p=1.0, max_iter=19)))), 30),
], ids=["poly", "exp", "composite"])
def test_train_refuses_a_rate_reaching_zero_before_any_step(policy, budget):
    task = quad1d()
    steps = []

    def counted(theta, batch, split):
        steps.append(1)
        return task.loss_and_grad(theta, batch, split)

    with pytest.raises(ScheduleError, match="the rate reaches 0"):
        train(dataclasses.replace(task, loss_and_grad=counted), policy, budget_iters=budget,
              optimizer="sgd")
    assert steps == []


def test_record_doc_round_trip():
    task = blobs2(seed=7, n=100, model="logreg")
    rec = train(task, Fix(k=0.05), budget_iters=20, eval_every=5)
    doc = record_to_doc(rec)
    assert "meta" in doc
    back = record_from_doc(doc)
    assert back.task_id == rec.task_id
    assert back.policy == rec.policy
    assert back.peak_top1 == rec.peak_top1
    assert back.iter_at_peak == rec.iter_at_peak
    assert [m.loss for m in back.series] == [m.loss for m in rec.series]
    assert back.lr_trace.points == rec.lr_trace.points
    stable = record_to_doc(rec, stable=True)
    assert "meta" not in stable
    json.dumps(stable)  # must be JSON-encodable as-is


def test_record_doc_encodes_non_finite_losses():
    rec = train(quad1d(lam=2.0), Fix(k=2.0), budget_iters=40, eval_every=40,
                optimizer="sgd")
    doc = record_to_doc(rec, stable=True)
    text = json.dumps(doc)
    back = record_from_doc(json.loads(text))
    assert back.final_loss == rec.final_loss or (
        math.isnan(back.final_loss) and math.isnan(rec.final_loss))


def test_record_from_doc_rejects_malformed():
    with pytest.raises(TaskError, match="malformed"):
        record_from_doc({"task_id": "x"})


def test_record_to_csv_layout():
    task = quad1d(lam=2.0)
    rec = train(task, Fix(k=0.1), budget_iters=4, eval_every=2, optimizer="sgd")
    lines = record_to_csv(rec).splitlines()
    assert lines[0] == "iter,loss,top1,lr"
    first = lines[1].split(",")
    assert first[0] == "2"
    assert first[2] == ""  # no accuracy on a surface task
    assert first[3] == "0.1"
    assert len(lines) == 1 + len(rec.series)


@pytest.mark.parametrize("make", [
    lambda: make_record(Fix(k=0.1), accs=[(i, 0.9 if i == 2 else 0.1) for i in range(1, 301)]),
    lambda: train(moons2(), Fix(k=0.05), budget_iters=300, seed=2, eval_every=1),
], ids=["synthetic", "moons2"])
def test_capped_doc_keeps_peak_entry(make):
    # In both records the peak entry falls off the 128-point thinning stride.
    rec = make()
    doc = record_to_doc(rec, series_cap=128)
    assert len(rec.series) > 128 >= len(doc["series"])
    assert any(m["iteration"] == rec.iter_at_peak and m["top1"] == rec.peak_top1
               for m in doc["series"])
    assert doc["series"][-1]["iteration"] == rec.series[-1].iteration
    assert [m["iteration"] for m in doc["series"]] == sorted(m["iteration"] for m in doc["series"])
    _check_consistency(doc)
    live = {m.iteration: m.wall_ms for m in rec.series}
    assert doc["meta"]["wall_ms"] == [live[m["iteration"]] for m in doc["series"]]
    assert doc["meta"]["wall_ms_total"] == rec.wall_ms_total


def _rising_record(rises, n=1000):
    """``n`` evaluated entries whose best top-1 rises only at ``rises``, then a
    divergence entry repeating the last iteration."""
    accs, best = [], 0.0
    for i in range(1, n + 1):
        if i in rises:
            best += 0.0005
        accs.append((i, best if i in rises else best / 2))
    return make_record(Fix(k=0.1), accs=accs + [(n, 0.0)])


@pytest.mark.parametrize("rises", [
    {5 + 23 * i for i in range(40)} | {1000},  # fewer than half the cap: every one is kept
    set(range(1, 1001)),  # more: thinned, the peak kept
], ids=["few", "many"])
def test_capped_doc_keeps_new_best_entries(rises):
    rec = _rising_record(rises)
    doc = record_to_doc(rec, series_cap=128)
    _check_consistency(doc)
    back = record_from_doc(doc)
    assert len(back.series) <= 128
    live = iter(rec.series)
    assert all(any(m == entry for entry in live) for m in back.series)  # in order
    assert back.series[-2:] == rec.series[-2:]  # the peak, then the divergence entry
    if len(rises) <= 64:
        for target in np.linspace(0.0001, rec.peak_top1, 200):
            assert iterations_to_target(back, target) == iterations_to_target(rec, target)


def test_downsample_points_keeps_last_and_cap():
    pts = list(range(1000))
    out = downsample_points(pts, 100)
    assert len(out) <= 100
    assert out[-1] == 999
    assert out == sorted(out)
    assert downsample_points([1, 2, 3], 10) == [1, 2, 3]




@pytest.mark.parametrize("cap", [0, 1])
def test_record_doc_refuses_a_series_cap_below_two(cap):
    rec = train(blobs2(seed=7, n=100, model="logreg"), Fix(k=0.05), budget_iters=3,
                eval_every=1)
    assert len(rec.series) == 3
    with pytest.raises(TaskError, match="series_cap must be >= 2"):
        record_to_doc(rec, series_cap=cap)
    assert len(record_to_doc(rec, series_cap=2)["series"]) == 2


def _snapshot_bytes(rec):
    return [(t, v.tobytes()) for t, v in rec.snapshots]


def _tripwire_task():
    """``x`` starts at 1 and descends ``0.5 * x**2``.  The loss turns NaN once
    ``|x|`` passes 100 but reads a flat 1.0 past 1e300, so one huge step
    leaves the loss finite and the next sends ``x`` to infinity."""
    def loss(x):
        if abs(x) <= 100.0:
            return 0.5 * x * x
        return 1.0 if abs(x) > 1e300 else math.nan

    def eval_row(x):
        if not math.isfinite(x):
            return math.nan, 0.0
        return 0.5 * x * x, 1.0 / (1.0 + abs(x))

    def loss_and_grad(theta, idx, split):
        return np.array([loss(x) for x in theta[:, 0].tolist()]), theta.copy()

    def eval_loss_top1(theta, split):
        rows = [eval_row(x) for x in theta[:, 0].tolist()]
        return np.array([v for v, _ in rows]), np.array([a for _, a in rows])

    return Task(task_id="tripwire", model_id="surface", param_len=1, batch_size=1,
                n_train=0, n_val=0, has_accuracy=True, init=lambda rng: np.ones(1),
                loss_and_grad=loss_and_grad, eval_loss_top1=eval_loss_top1)


# Each stride puts a capture at 0 and at some departure: the parameter row
# leaves at 2 (strides 1, 2) and the NaN-loss row at 7 (strides 1, 7).
@pytest.mark.parametrize("stride", [1, 2, 4, 7])
def test_diverged_rows_leave_the_population_as_they_would_alone(stride):
    task = _tripwire_task()
    kw = dict(budget_iters=20, optimizer="sgd", eval_every=3, snapshot_stride=stride)
    nan_loss, inf_params, healthy = Fix(k=3.0), Fix(k=1e308), Fix(k=0.5)
    recs = train_population(task, [(nan_loss, 0), (inf_params, 0), (healthy, 0)], **kw)

    # x = (-2)**t passes 100 at t=7: the NaN training loss is the last entry.
    assert recs[0].diverged and math.isnan(recs[0].final_loss)
    assert recs[0].series[-1].iteration == 7 and len(recs[0].lr_trace.points) == 7
    # x = -1e308 after one step, then the second step overflows it.
    assert recs[1].diverged and recs[1].final_loss == math.inf
    assert recs[1].series[-1].iteration == 2 and len(recs[1].lr_trace.points) == 2
    assert recs[1].series[-1].top1 == 0.0
    assert not recs[2].diverged
    assert [m.iteration for m in recs[2].series] == [3, 6, 9, 12, 15, 18, 20]
    for (policy, rec) in zip((nan_loss, inf_params, healthy), recs):
        alone = train(task, policy, seed=0, **kw)
        assert record_to_doc(rec, stable=True) == record_to_doc(alone, stable=True)
        assert _snapshot_bytes(rec) == _snapshot_bytes(alone)
    # Outright, since an off-by-one both runs share would pass the equality: the
    # NaN-loss row is captured entering its last step, 7, and the parameter row
    # only before its parameters went non-finite at 2.
    for rec, last in zip(recs, (7, 1, 20)):
        assert [t for t, _ in rec.snapshots] == list(range(0, last + 1, stride))


def _ladder():
    return PolicyLadderController([Fix(k=0.3), Fix(k=0.05), Fix(k=0.01)], 1, 60)


@pytest.mark.parametrize("make_task,optimizer", [
    (lambda root: moons2(n=300, noise=0.3, seed=7, batch=4), "momentum"),
    (lambda root: moons2(n=300, noise=0.3, seed=7, model="logreg", batch=6), "sgd"),
    (lambda root: blobs2(n=200, seed=7, model="logreg", batch=8), "adam"),
    (lambda root: blobs2(n=200, seed=7, model="mlp", hidden=3, batch=5), "sgd"),
    (lambda root: mnist_idx(path=write_idx_fixture(root), hidden=4, batch=8), "adam"),
    (lambda root: landscape2d(), "sgd"),
    (lambda root: quad1d(lam=10.0, theta0=-3.0), "momentum"),
], ids=["moons2-mlp", "moons2-logreg", "blobs2-logreg", "blobs2-mlp", "mnist-idx",
        "landscape2d", "quad1d"])
def test_population_records_do_not_depend_on_the_population(make_task, optimizer, tmp_path):
    # One row per (body, head) pair: linear and tanh MLP under the sigmoid
    # head, tanh MLP under the softmax head; then the two surfaces, whose
    # scalar formulas run row by row.
    task = make_task(str(tmp_path))
    # Fix(1e7) diverges at once, so the rows after it shift mid-run; the
    # ladders are controllers, stepped with their callbacks inside the population.
    trials = [(Fix(k=0.05), 0), (Cyclic("SIN", 0.01, 0.4, 12), 1), (Fix(k=1e7), 0),
              (Exp(k=0.4, gamma=0.97), 2), (Fix(k=0.05), 1), ("ladder", 2)]
    kw = dict(budget_iters=60, optimizer=optimizer, eval_every=7, snapshot_stride=25)

    def run(order):
        batch = [(_ladder() if s == "ladder" else s, seed) for s, seed in (trials[i] for i in order)]
        recs = train_population(task, batch, **kw)
        return {i: (record_to_doc(r, stable=True), _snapshot_bytes(r)) for i, r in zip(order, recs)}

    alone = {}
    for i in range(len(trials)):
        alone.update(run([i]))
    assert alone[2][0]["diverged"] and not alone[0][0]["diverged"]
    assert run(range(len(trials))) == alone
    assert run([5, 2, 0, 3, 1, 4]) == alone
    subset = run([4, 2, 5])
    assert subset == {i: alone[i] for i in subset}


def _population_bytes():
    """Records of one small population per optimizer, as stable JSON and lr-trace bytes.

    The sgd population holds a diverging row and the adam one a
    plateau-ladder trial.
    """
    task = moons2(n=200, noise=0.3, seed=7, batch=8)
    rows = {"sgd": [(Fix(k=0.05), 0), (Fix(k=1e7), 1)],
            "momentum": [(Cyclic("SIN", 0.01, 0.4, 12), 0), (Exp(k=0.4, gamma=0.97), 1)],
            "adam": [(Fix(k=0.01), 1), (_ladder(), 0)]}
    return [(json.dumps(record_to_doc(rec, stable=True)).encode(),
             np.array(rec.lr_trace.lrs).tobytes())
            for optimizer, trials in rows.items()
            for rec in train_population(task, trials, budget_iters=60, optimizer=optimizer,
                                        eval_every=7)]


def test_records_are_the_same_in_another_process():
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        there = pool.apply_async(_population_bytes).get(timeout=120)
    here = _population_bytes()
    assert b'"diverged": true' in here[1][0]
    assert b'"COMPOSITE"' in here[-1][0]  # the ladder's realized policy
    assert there == here


# ---------------------------------------------------------------------------
# where the evals run

@pytest.fixture
def placement(monkeypatch):
    """``placement(pipelined)`` forces where every population's evals run, or
    keeps the rule's thresholds for None, and returns the pipelined evaluators
    made so far.  After the test, every eval child is reaped and no file,
    socket or other descriptor was left open."""
    made = []
    rule = training._PIPELINE_MIN_EVAL_WORK, training._PIPELINE_MAX_ROW_WORK
    open_fds = len(os.listdir("/proc/self/fd")) if sys.platform == "linux" else 0

    class Recorded(training._PipelinedEvals):
        def __init__(self, *args):
            super().__init__(*args)
            self.pid = self._pid
            made.append(self)

    monkeypatch.setattr(training, "_PipelinedEvals", Recorded)

    def force(pipelined: bool | None) -> list:
        low, high = {None: rule, True: (0, math.inf), False: (math.inf, math.inf)}[pipelined]
        monkeypatch.setattr(training, "_PIPELINE_MIN_EVAL_WORK", low)
        monkeypatch.setattr(training, "_PIPELINE_MAX_ROW_WORK", high)
        return made

    yield force
    gc.collect()  # an unclosed socket or pipe raises its ResourceWarning here, as an error
    for evals in made:
        with pytest.raises(ChildProcessError):
            os.waitpid(evals.pid, os.WNOHANG)
    try:
        exited = os.waitpid(-1, os.WNOHANG)[0]
    except ChildProcessError:  # no child at all
        exited = 0
    assert exited == 0
    if sys.platform == "linux":  # also a raw descriptor, which warns of nothing
        assert len(os.listdir("/proc/self/fd")) == open_fds


def _record_bytes(recs):
    return [(json.dumps(record_to_doc(rec, stable=True)).encode(),
             np.array(rec.lr_trace.lrs).tobytes(), _snapshot_bytes(rec)) for rec in recs]


def _both_placements(placement, task, trials, piped_task=None, piped=True, **kw):
    """Records of one population evaluated inline and pipelined, as bytes; the
    pipelined run uses ``piped_task`` (by default ``task``) and placement ``piped``."""
    placement(False)
    inline = _record_bytes(train_population(task, trials, **kw))
    assert placement(piped) == []
    pipelined = _record_bytes(train_population(piped_task or task, trials, **kw))
    assert len(placement(piped)) == 1
    return inline, pipelined


def _counting(task, ran_here: list):
    """``task`` with each eval that runs in this process appended to ``ran_here``."""
    parent = os.getpid()

    def eval_loss_top1(theta, split):
        if os.getpid() == parent:
            ran_here.append(len(theta))
        return task.eval_loss_top1(theta, split)

    return dataclasses.replace(task, eval_loss_top1=eval_loss_top1)


needs_linux = pytest.mark.skipif(sys.platform != "linux", reason="evals pipeline on Linux only")


@needs_linux
@pytest.mark.parametrize("optimizer", ["sgd", "momentum", "adam"])
def test_pipelined_evals_give_the_inline_records(placement, optimizer):
    task = moons2(n=200, noise=0.3, seed=7, batch=8)
    trials = [(Fix(k=0.05), 0), (Cyclic("SIN", 0.01, 0.4, 12), 1), (Exp(k=0.4, gamma=0.97), 2),
              (Fix(k=0.01), 1)]
    inline, pipelined = _both_placements(placement, task, trials, budget_iters=60,
                                         optimizer=optimizer, eval_every=7, snapshot_stride=25)
    assert pipelined == inline


@needs_linux
@pytest.mark.parametrize("case", ["loss", "parameters", "all rows"])
def test_pipelined_evals_give_the_inline_records_of_diverging_rows(placement, case):
    kw = dict(budget_iters=20, optimizer="sgd", eval_every=3, snapshot_stride=4)
    if case == "loss":  # Fix(1e7) diverges at once, mid-population
        task, kw["budget_iters"] = moons2(n=200, noise=0.3, seed=7, batch=8), 60
        trials = [(Fix(k=0.05), 0), (Fix(k=1e7), 1), (Fix(k=0.3), 2), (Fix(k=1e7), 0)]
    elif case == "parameters":  # see _tripwire_task: NaN loss, then infinite x
        task = _tripwire_task()
        trials = [(Fix(k=0.5), 0), (Fix(k=1e308), 0), (Fix(k=3.0), 0), (Fix(k=0.2), 0)]
    else:
        task = _tripwire_task()
        trials = [(Fix(k=1e308), 0), (Fix(k=3.0), 0)]
    inline, pipelined = _both_placements(placement, task, trials, **kw)
    assert pipelined == inline
    diverged = [b'"diverged": true' in doc for doc, _, _ in inline]
    assert all(diverged) if case == "all rows" else 0 < sum(diverged) < len(trials)


def test_controller_populations_evaluate_inline(placement):
    made = placement(True)
    train_population(moons2(n=200, noise=0.3, seed=7, batch=8),
                     [(Fix(k=0.05), 0), (_ladder(), 1)], budget_iters=60, eval_every=7)
    assert made == []


class _EvalRefused(Exception):
    pass


@needs_linux
@pytest.mark.parametrize("raised", [_EvalRefused, TaskError], ids=["test-class", "lrkit-class"])
def test_an_eval_raising_in_the_child_raises_in_the_parent(placement, raised):
    # An eval that raises wherever it runs.  Its 5 evals all find a slot, so the
    # parent runs none as it comes due: the child reports none, and the parent
    # runs them when the population ends, where the first raises as itself.
    def eval_loss_top1(theta, split):
        raise raised("no eval of these parameters")

    made = placement(True)
    task = dataclasses.replace(quad1d(), eval_loss_top1=eval_loss_top1)
    with pytest.raises(raised, match="^no eval of these parameters$"):
        train_population(task, [(Fix(k=0.1), 0)] * 4, budget_iters=30, eval_every=6,
                         optimizer="sgd")
    assert len(made) == 1


@needs_linux
def test_evals_the_child_never_takes_run_in_the_parent(placement):
    task = moons2(n=200, noise=0.3, seed=7, batch=8)
    trials = [(Fix(k=0.05), 0), (Fix(k=1e7), 1), (Exp(k=0.4, gamma=0.97), 2)]
    ran_here, (gate, release) = [], os.pipe()
    counted, parent = _counting(task, ran_here), os.getpid()

    def held(theta, split):
        """The child holds its first eval until the parent has run its share (the
        evals that found no slot, and the diverging row's eval)."""
        if os.getpid() != parent:
            select.select([gate], [], [], 30)
        elif len(ran_here) == 300 - training._SLOTS:
            os.write(release, b"go")
        return counted.eval_loss_top1(theta, split)

    try:
        inline, pipelined = _both_placements(
            placement, task, trials, dataclasses.replace(task, eval_loss_top1=held),
            budget_iters=300, optimizer="momentum", eval_every=1)
    finally:
        os.close(gate)
        os.close(release)
    assert pipelined == inline
    # 300 evals overfill the slots while the child holds its first eval: every
    # eval that found no slot ran here as it came due.
    assert len(ran_here) >= 300 - training._SLOTS


@needs_linux
def test_an_eval_child_ending_at_once_gives_the_inline_records(placement):
    task = moons2(n=200, noise=0.3, seed=7, batch=8)
    parent = os.getpid()

    def eval_loss_top1(theta, split):
        if os.getpid() != parent:
            os._exit(1)
        return task.eval_loss_top1(theta, split)

    trials = [(Fix(k=0.05), 0), (Fix(k=1e7), 1), (Exp(k=0.4, gamma=0.97), 2)]
    inline, pipelined = _both_placements(
        placement, task, trials, dataclasses.replace(task, eval_loss_top1=eval_loss_top1),
        budget_iters=60, optimizer="momentum", eval_every=3)
    assert pipelined == inline


@needs_linux
def test_evals_past_the_socket_buffer_are_reported_by_the_child(placement):
    # 18 rows of 1601 parameters are 230,544 bytes an eval, past the default
    # 212,992-byte socket send buffer on Linux; the rule's own thresholds pick it.
    task = moons2(n=3000, noise=0.3, seed=7, batch=4, hidden=400)
    assert 8 * 18 * task.param_len > 212_992
    trials = [(Fix(k=0.01 * (i + 1)), i % 3) for i in range(18)]
    ran_here = []
    inline, pipelined = _both_placements(placement, task, trials, _counting(task, ran_here),
                                         piped=None, budget_iters=40, eval_every=1,
                                         optimizer="sgd")
    assert pipelined == inline
    assert len(ran_here) < 40  # the child reported the others


@needs_linux
@pytest.mark.parametrize("hidden, forks", [(436, True), (437, False)])
def test_evals_with_large_rows_run_inline_under_the_rule(placement, hidden, forks):
    # 600 val samples x 1745 parameters falls under 2**20, and x 1749 does not;
    # 2 rows x 600 x 220 evals pass 2**18 either way.
    task = moons2(n=3000, noise=0.3, seed=7, batch=4, hidden=hidden)
    assert 2 * task.n_val * 220 >= 2**18
    assert (task.n_val * task.param_len < 2**20) is forks
    made = placement(None)
    train_population(task, [(Fix(k=0.05), 0), (Fix(k=0.1), 1)], budget_iters=220,
                     eval_every=1, optimizer="sgd")
    assert len(made) == forks


@needs_linux
def test_a_failed_fork_closes_what_it_opened_and_raises_a_task_error(placement, monkeypatch):
    def fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    made = placement(True)
    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(TaskError, match=r"^cannot fork the eval process: \[Errno 11\] "):
        train_population(quad1d(), [(Fix(k=0.1), 0)] * 2, budget_iters=30, eval_every=3,
                         optimizer="sgd")
    assert made == []


@needs_linux
def test_a_parent_raising_mid_population_reaps_the_eval_child(placement):
    task = moons2(n=200, noise=0.3, seed=7, batch=8)
    steps = []

    def loss_and_grad(theta, idx, split):
        steps.append(1)
        if len(steps) == 40:
            raise KeyboardInterrupt
        return task.loss_and_grad(theta, idx, split)

    made = placement(True)
    with pytest.raises(KeyboardInterrupt):
        train_population(dataclasses.replace(task, loss_and_grad=loss_and_grad),
                         [(Fix(k=0.05), 0), (Fix(k=0.1), 1)], budget_iters=60, eval_every=2)
    assert len(made) == 1
