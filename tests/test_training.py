"""Training-loop behavior: determinism, cadence, divergence, records."""
import json
import math

import numpy as np
import pytest

from lrkit import (
    DIVERGENCE_LIMIT,
    Cyclic,
    Fix,
    ScheduleError,
    Task,
    TaskError,
    blobs2,
    default_eval_every,
    downsample_points,
    eval_lr,
    landscape2d,
    moons2,
    quad1d,
    record_from_doc,
    record_to_csv,
    record_to_doc,
    train,
)
from lrkit.policydb import _check_consistency

from _factories import make_record


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

    def loss_and_grad(theta, batch, split):
        return 1.0, np.array([1e308])

    def eval_loss_top1(theta, split):
        return float(theta[0]), None

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


def test_downsample_points_keeps_last_and_cap():
    pts = list(range(1000))
    out = downsample_points(pts, 100)
    assert len(out) <= 100
    assert out[-1] == 999
    assert out == sorted(out)
    assert downsample_points([1, 2, 3], 10) == [1, 2, 3]


