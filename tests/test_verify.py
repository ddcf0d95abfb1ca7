"""Tests for snapshot-based rate estimation and three-phase verification."""
import dataclasses
import math

import numpy as np
import pytest

from lrkit import policydb
from lrkit import (Composite, Cyclic, DbKey, Fix, PolicyDb, Segment, Task, VerifyError,
                   estimate_optimal_lr, eval_lr, landscape2d, moons2, optimal_lr_trace, quad1d,
                   record_to_doc, train, verdict_to_doc, verify_policy)

from _factories import make_record


# ---------------------------------------------------------------------------
# single-triple estimates

def test_estimate_zero_second_step_returns_applied_lr():
    est = estimate_optimal_lr([0.0], [1.0], [1.0], 0.1)
    assert not est.singular
    assert est.lr_opt == 0.1
    assert est.applied_lr == 0.1
    assert est.t == 0


def test_estimate_equal_steps_is_singular():
    est = estimate_optimal_lr([0.0], [1.0], [2.0], 0.1)
    assert est.singular
    assert est.lr_opt is None


def test_estimate_two_coordinate_example():
    est = estimate_optimal_lr([0.0, 0.0], [1.0, -1.0], [1.5, -1.5], 0.05)
    assert est.lr_opt == 0.1


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_estimate_on_quadratic_recovers_inverse_curvature(lam):
    # Plain gradient descent on 0.5*lam*theta**2 shrinks theta by
    # (1 - lr*lam) per step, and the estimate telescopes to exactly 1/lam.
    lr = 0.25 / lam
    theta0 = 1.7
    rho = 1.0 - lr * lam
    snaps = [theta0, rho * theta0, rho * rho * theta0]
    est = estimate_optimal_lr([snaps[0]], [snaps[1]], [snaps[2]], lr)
    assert est.lr_opt == pytest.approx(1.0 / lam, rel=1e-12)


def test_estimate_scale_invariance():
    p, m, n = np.array([0.2, -1.1]), np.array([0.9, -0.3]), np.array([1.2, 0.1])
    base = estimate_optimal_lr(p, m, n, 0.07).lr_opt
    for c in (4.0, 0.25, -8.0):
        # Powers of two rescale every float exactly, so the ratio is bitwise equal.
        assert estimate_optimal_lr(c * p, c * m, c * n, 0.07).lr_opt == base
    assert estimate_optimal_lr(3.7 * p, 3.7 * m, 3.7 * n, 0.07).lr_opt == \
        pytest.approx(base, rel=1e-12)


def test_estimate_permutation_invariance():
    rng = np.random.default_rng(2)
    perm = rng.permutation(6)
    p, m, n = np.arange(6.0) * 0.5, np.arange(6.0), np.arange(6.0) * 2.5
    base = estimate_optimal_lr(p, m, n, 0.07).lr_opt
    # Halves and integers keep the L1 sums exact under reordering.
    assert estimate_optimal_lr(p[perm], m[perm], n[perm], 0.07).lr_opt == base
    p, m, n = rng.normal(size=8), rng.normal(size=8), rng.normal(size=8)
    perm = rng.permutation(8)
    got = estimate_optimal_lr(p, m, n, 0.07).lr_opt
    permuted = estimate_optimal_lr(p[perm], m[perm], n[perm], 0.07).lr_opt
    assert permuted == pytest.approx(got, rel=1e-12)


def test_estimate_guard_scales_with_displacement():
    # A second-difference of zero is singular at any scale.
    assert estimate_optimal_lr([0.0], [1e-13], [2e-13], 0.1).singular
    assert estimate_optimal_lr([0.0], [1e3], [2e3], 0.1).singular
    # A proportionally healthy denominator stays regular even when tiny.
    small = estimate_optimal_lr([0.0], [1e-10], [1.5e-10], 0.1)
    large = estimate_optimal_lr([0.0], [1e2], [1.5e2], 0.1)
    assert not small.singular and not large.singular
    assert small.lr_opt == pytest.approx(large.lr_opt, rel=1e-12)


def test_estimate_validation():
    with pytest.raises(VerifyError, match="shapes"):
        estimate_optimal_lr([0.0], [1.0, 2.0], [1.0], 0.1)
    for bad_lr in (0.0, -0.1, float("inf"), float("nan")):
        with pytest.raises(VerifyError, match="applied_lr"):
            estimate_optimal_lr([0.0], [1.0], [1.0], bad_lr)
    with pytest.raises(VerifyError, match="non-finite"):
        estimate_optimal_lr([float("nan")], [1.0], [1.0], 0.1)


# ---------------------------------------------------------------------------
# traces over a training run

def test_trace_on_quadratic_every_estimate_is_inverse_lambda():
    task = quad1d(lam=2.0, theta0=1.0)
    trace = optimal_lr_trace(task, Fix(k=0.1), budget_iters=12, stride=1,
                             optimizer="sgd")
    assert len(trace) == 11  # 13 snapshots -> 11 triples
    assert [e.t for e in trace] == list(range(1, 12))
    for est in trace:
        assert est.applied_lr == 0.1
        assert est.lr_opt == pytest.approx(0.5, rel=1e-10)


def test_trace_with_wide_stride_matches_closed_form():
    # With stride M the displacements shrink by rho**M per snapshot, so
    # the estimate telescopes to lr / (1 - rho**M) instead of 1/lam.
    lam, lr, stride = 2.0, 0.1, 3
    task = quad1d(lam=lam, theta0=1.0)
    trace = optimal_lr_trace(task, Fix(k=lr), budget_iters=12, stride=stride,
                             optimizer="sgd")
    assert [e.t for e in trace] == [3, 6, 9]
    expected = lr / (1.0 - (1.0 - lr * lam) ** stride)
    for est in trace:
        assert est.lr_opt == pytest.approx(expected, rel=1e-10)


def test_trace_on_landscape_cyclic_policy():
    policy = Cyclic(kind="TRI", k0=0.01, k1=0.3, l=25)
    trace = optimal_lr_trace(landscape2d(), policy, budget_iters=150, stride=5)
    assert trace, "expected at least one estimate"
    for est in trace:
        assert est.singular or est.lr_opt > 0.0
        assert est.applied_lr == eval_lr(policy, est.t, 150)


def test_trace_budget_and_stride_validation():
    task = quad1d()
    with pytest.raises(VerifyError, match="at least 3"):
        optimal_lr_trace(task, Fix(k=0.1), budget_iters=2, stride=1)
    with pytest.raises(VerifyError, match="at least 750"):
        optimal_lr_trace(task, Fix(k=0.1), budget_iters=700, stride=250)
    with pytest.raises(VerifyError, match="stride"):
        optimal_lr_trace(task, Fix(k=0.1), budget_iters=10, stride=0)


def test_trace_reports_early_divergence():
    # lr far above 2/lam explodes within two steps; with stride 2 fewer
    # than three snapshots survive.
    task = quad1d(lam=2.0, theta0=1.0)
    with pytest.raises(VerifyError, match="snapshots"):
        optimal_lr_trace(task, Fix(k=200.0), budget_iters=10, stride=2,
                         optimizer="sgd")


# ---------------------------------------------------------------------------
# three-phase verification

def accuracy_table_task(table: dict) -> Task:
    """One-step-per-epoch task whose accuracy keys on the parameter value.

    Under SGD with constant gradient -1 and a single training step, the
    parameter equals the applied rate, so each policy's measured top-1
    is ``table[rate]`` (0.0 for rates not in the table).
    """
    def init(rng):
        return np.zeros(1)

    def loss_and_grad(theta, idx, split):
        return np.full(len(theta), 0.5), np.full_like(theta, -1.0)

    def eval_loss_top1(theta, split):
        return (np.full(len(theta), 0.5),
                np.array([table.get(x, 0.0) for x in theta[:, 0].tolist()]))

    return Task(task_id="table", model_id="probe", param_len=1, batch_size=4,
                n_train=4, n_val=4, has_accuracy=True, init=init,
                loss_and_grad=loss_and_grad, eval_loss_top1=eval_loss_top1)


def verify(table, candidate, target, db, **kwargs):
    task = accuracy_table_task(table)
    return verify_policy(candidate, task, target, budget_iters=1, db=db,
                         optimizer="sgd", **kwargs)


def test_phase1_verified_with_empty_db(tmp_path):
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    verdict = verify({0.3: 0.92}, Fix(k=0.3), 0.9, db)
    assert verdict.phase_reached == 1
    assert verdict.verified is True
    assert verdict.replacement is None
    assert verdict.replacement_top1 is None
    assert verdict.candidate_top1 == 0.92
    assert len(verdict.evidence) == 1
    assert len(db) == 1  # the candidate trial was stored


def test_phase1_verified_but_db_knows_better(tmp_path):
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    key = DbKey(dataset_id="table", model_id="probe", optimizer_id="sgd")
    better = Cyclic(kind="SIN", k0=0.01, k1=0.2, l=10)
    db.put(key, make_record(better, accs=[(10, 0.97)], task_id="table",
                            model_id="probe"))
    verdict = verify({0.3: 0.92}, Fix(k=0.3), 0.9, db)
    assert verdict.phase_reached == 1
    assert verdict.verified is True
    assert verdict.replacement == better
    assert verdict.replacement_top1 == 0.97


def test_phase2_replacement_from_stored_measurement(tmp_path):
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    key = DbKey(dataset_id="table", model_id="probe", optimizer_id="sgd")
    stored = Cyclic(kind="TRI", k0=0.01, k1=0.2, l=10)
    db.put(key, make_record(stored, accs=[(10, 0.95)], task_id="table",
                            model_id="probe"))
    verdict = verify({0.3: 0.5}, Fix(k=0.3), 0.9, db)
    assert verdict.phase_reached == 2
    assert verdict.verified is False
    assert verdict.replacement == stored
    assert verdict.replacement_top1 == 0.95
    # Stored same-setup measurements are trusted, not re-trained.
    assert len(verdict.evidence) == 1
    assert len(db) == 2


def test_phase2_retrains_records_from_other_optimizers(tmp_path):
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    other_key = DbKey(dataset_id="table", model_id="probe", optimizer_id="momentum")
    stored = Fix(k=0.07)
    # The stored accuracy is bogus-low; a fresh run under this optimizer
    # measures 0.95, proving the value was re-measured rather than trusted.
    db.put(other_key, make_record(stored, accs=[(10, 0.2)], task_id="table",
                                  model_id="probe", optimizer="momentum"))
    verdict = verify({0.3: 0.5, 0.07: 0.95}, Fix(k=0.3), 0.9, db)
    assert verdict.phase_reached == 2
    assert verdict.verified is False
    assert verdict.replacement == stored
    assert verdict.replacement_top1 == 0.95
    assert len(verdict.evidence) == 2  # candidate + the re-measured policy
    assert len(db) == 3


def test_phase2_consult_reads_stored_summaries_only(tmp_path, monkeypatch):
    path = str(tmp_path / "store.jsonl")
    key = DbKey(dataset_id="table", model_id="probe", optimizer_id="sgd")
    stored = Cyclic(kind="TRI", k0=0.01, k1=0.2, l=10)
    PolicyDb(path).put(key, make_record(stored, accs=[(10, 0.95)], task_id="table",
                                        model_id="probe"))

    def refuse(doc):
        raise AssertionError("the consult decoded a stored payload")

    monkeypatch.setattr(policydb, "record_from_doc", refuse)
    verdict = verify({0.3: 0.5}, Fix(k=0.3), 0.9, PolicyDb(path))
    assert verdict.phase_reached == 2
    assert verdict.replacement == stored
    assert verdict.replacement_top1 == 0.95


def test_stored_candidate_ranked_first_leaves_n_top_to_the_others(tmp_path):
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    key = DbKey(dataset_id="table", model_id="probe", optimizer_id="sgd")
    other = Cyclic(kind="TRI", k0=0.01, k1=0.2, l=10)
    for policy, peak in ((Fix(k=0.3), 0.99), (other, 0.91)):
        db.put(key, make_record(policy, accs=[(10, peak)], task_id="table", model_id="probe"))
    # The candidate's stored mean, (0.99 + 0.89) / 2, is the store's best.
    verdict = verify({0.3: 0.89}, Fix(k=0.3), 0.9, db, n_top=1)
    assert verdict.phase_reached == 2
    assert verdict.replacement == other
    assert verdict.replacement_top1 == 0.91
    assert len(verdict.evidence) == 1


def test_policy_stored_under_both_optimizers_keeps_this_optimizers_mean(tmp_path):
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    stored = Cyclic(kind="SIN", k0=0.01, k1=0.2, l=10)
    for optimizer, peak in (("sgd", 0.95), ("momentum", 0.85)):
        db.put(DbKey(dataset_id="table", model_id="probe", optimizer_id=optimizer),
               make_record(stored, accs=[(10, peak)], task_id="table", model_id="probe",
                           optimizer=optimizer))
    # A re-trained SIN policy would measure 0.0 on this table.
    verdict = verify({0.3: 0.5}, Fix(k=0.3), 0.8, db)
    assert verdict.phase_reached == 2
    assert verdict.replacement == stored
    assert verdict.replacement_top1 == 0.95  # the sgd mean, not the pooled 0.9
    assert len(verdict.evidence) == 1
    assert len(db) == 3


def test_pooled_mean_meeting_the_target_is_not_trusted_under_this_optimizer(tmp_path):
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    stored = Cyclic(kind="SIN", k0=0.01, k1=0.2, l=10)
    for optimizer, peak in (("sgd", 0.75), ("adam", 0.95)):
        db.put(DbKey(dataset_id="table", model_id="probe", optimizer_id=optimizer),
               make_record(stored, accs=[(10, peak)], task_id="table", model_id="probe",
                           optimizer=optimizer))
    # The pooled mean, 0.85, meets the target; the sgd mean, 0.75, does not.
    verdict = verify({0.3: 0.5}, Fix(k=0.3), 0.8, db)
    assert verdict.phase_reached == 3
    assert verdict.replacement != stored


def test_phase2_retrains_other_optimizer_policies_as_lone_trials(tmp_path):
    # Four stored policies measured only under adam are re-trained under
    # momentum, in ranked order, each record equal to a lone train; the
    # trusted momentum one keeps its (bogus-low) stored value.
    task = moons2(seed=3, n=300, noise=0.3)
    seeds = [1, 0]
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    stored = [(Fix(k=0.3), "adam", 0.40),
              (Cyclic(kind="TRI", k0=0.01, k1=0.5, l=10), "adam", 0.35),
              (Fix(k=0.1), "momentum", 0.30), (Fix(k=1.0), "adam", 0.28),
              (Fix(k=0.05), "adam", 0.20)]
    for policy, optimizer, peak in stored:
        db.put(DbKey(dataset_id=task.task_id, model_id=task.model_id, optimizer_id=optimizer),
               make_record(policy, accs=[(10, peak)], task_id=task.task_id,
                           model_id=task.model_id, optimizer=optimizer))
    candidate = Fix(k=1e-4)

    def lone(policy):
        return [train(task, policy, budget_iters=60, seed=s, optimizer="momentum") for s in seeds]

    retrained = [p for p, optimizer, _ in stored if optimizer == "adam"]
    expected = {p: lone(p) for p in [candidate] + retrained}
    means = {p: sum(r.peak_top1 for r in recs) / len(recs) for p, recs in expected.items()}
    best = max(retrained, key=lambda p: means[p])  # max keeps the first of equal means
    assert means[best] > 0.30 and means[candidate] < means[best]

    verdict = verify_policy(candidate, task, means[best], budget_iters=60, db=db, n_top=5,
                            seeds=seeds, optimizer="momentum", stable=True)
    assert verdict.phase_reached == 2
    assert verdict.verified is False
    assert verdict.replacement == best
    assert verdict.replacement_top1 == means[best]
    order = [candidate] + retrained
    assert [(r.policy, r.seed) for r in verdict.evidence] == [(p, s) for p in order for s in seeds]
    lone_docs = [record_to_doc(r, stable=True) for p in order for r in expected[p]]
    assert [record_to_doc(r, stable=True) for r in verdict.evidence] == lone_docs
    added = PolicyDb(db.path).query_partial(optimizer_id="momentum")[1:]
    assert [record_to_doc(row.record, stable=True) for row in added] == lone_docs


@pytest.mark.parametrize("optimizer", ["sgd", "momentum"])
def test_store_consult_skips_policies_invalid_at_the_budget(tmp_path, optimizer):
    # A COMPOSITE realized over 300 steps cannot run at verify's budget of
    # 1: stored under momentum it would be re-trained, under sgd trusted
    # and handed back.  Either way the consult passes over it.
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    wide = Composite(segments=(Segment(0, 300, Fix(k=0.07)),))
    fallback = Cyclic(kind="TRI", k0=0.01, k1=0.2, l=10)
    for policy, opt, peak in ((wide, optimizer, 0.99), (fallback, "sgd", 0.95)):
        db.put(DbKey(dataset_id="table", model_id="probe", optimizer_id=opt),
               make_record(policy, accs=[(10, peak)], task_id="table", model_id="probe",
                           optimizer=opt))
    verdict = verify({0.3: 0.5, 0.07: 0.99}, Fix(k=0.3), 0.9, db, n_top=1)
    assert verdict.phase_reached == 2
    assert verdict.replacement == fallback
    assert verdict.replacement_top1 == 0.95
    assert len(verdict.evidence) == 1


def test_phase3_range_test_and_grid_fallback(tmp_path):
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    mid_fix = float(np.geomspace(1e-4, 1.0, 3)[1])
    verdict = verify({0.3: 0.5, mid_fix: 0.93}, Fix(k=0.3), 0.9, db)
    assert verdict.phase_reached == 3
    assert verdict.verified is False
    assert verdict.replacement == Fix(k=mid_fix)
    assert verdict.replacement_top1 == 0.93
    # Evidence: 1 candidate trial + 9 fresh grid candidates.
    assert len(verdict.evidence) == 10
    assert len(db) == 10


def test_phase3_without_improvement_reports_no_replacement(tmp_path):
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    verdict = verify({0.3: 0.5}, Fix(k=0.3), 0.9, db)
    assert verdict.phase_reached == 3
    assert verdict.verified is False
    assert verdict.replacement is None
    assert verdict.replacement_top1 is None


def test_verify_is_monotone_in_target(tmp_path):
    table = {0.3: 0.85}
    hi = verify(table, Fix(k=0.3), 0.9, PolicyDb(str(tmp_path / "hi.jsonl")))
    lo = verify(table, Fix(k=0.3), 0.8, PolicyDb(str(tmp_path / "lo.jsonl")))
    assert hi.candidate_top1 == lo.candidate_top1 == 0.85
    assert not hi.verified and lo.verified
    assert lo.phase_reached == 1


def test_verify_validation(tmp_path):
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    task = accuracy_table_task({})
    with pytest.raises(VerifyError, match="n_top"):
        verify_policy(Fix(k=0.1), task, 0.9, budget_iters=1, db=db, n_top=0)
    with pytest.raises(VerifyError, match="seed"):
        verify_policy(Fix(k=0.1), task, 0.9, budget_iters=1, db=db, seeds=())
    with pytest.raises(VerifyError, match="accuracy"):
        verify_policy(Fix(k=0.1), quad1d(), 0.9, budget_iters=10, db=db)


@pytest.mark.parametrize("target", [math.nan, 2.0, -1.0, 1.0 + 1e-12])
def test_verify_refuses_a_target_outside_zero_one_before_training(tmp_path, target):
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    trained = []

    def loss_and_grad(theta, idx, split):
        trained.append(1)
        return task.loss_and_grad(theta, idx, split)

    task = accuracy_table_task({0.1: 0.5})
    with pytest.raises(VerifyError, match=r"target_top1 must be in \[0, 1\]"):
        verify_policy(Fix(k=0.1), dataclasses.replace(task, loss_and_grad=loss_and_grad),
                      target, budget_iters=1, db=db)
    assert trained == [] and len(db) == 0


@pytest.mark.parametrize("target,verified", [(0.0, True), (1.0, False)])
def test_verify_accepts_the_targets_zero_and_one(tmp_path, target, verified):
    verdict = verify({0.3: 0.92}, Fix(k=0.3), target, PolicyDb(str(tmp_path / "store.jsonl")))
    assert verdict.verified is verified


def test_verdict_doc_shape(tmp_path):
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    verdict = verify({0.3: 0.92}, Fix(k=0.3), 0.9, db)
    doc = verdict_to_doc(verdict, stable=True)
    assert doc["phase_reached"] == 1
    assert doc["verified"] is True
    assert doc["candidate"] == {"type": "FIX", "k": 0.3}
    assert doc["replacement"] is None
    assert doc["target_top1"] == 0.9
    assert len(doc["evidence"]) == 1
    assert "meta" not in doc["evidence"][0]
