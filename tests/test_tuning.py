"""Tests for plateau actions, the policy ladder, range tests, searches, and ranking."""
import math
import random

import numpy as np
import pytest

from lrkit import (Action, Composite, Cyclic, Fix, PlateauConfig, Poly,
                   PolicyLadderController, RANK_METRICS, ScheduleError, Segment,
                   Task, TunerError, blobs2, change_lr_on_plateau, check_policy_ordering,
                   compose_staged_policy, eval_lr, grid_search, iterations_to_target,
                   lr_range_test, mean_peak_by_policy, plateau_action, quad1d,
                   random_search, range_result_to_doc, rank_policies, record_to_doc,
                   serialize_policy, standard_candidates, train, validate_policy)

from _factories import make_record

FLAT_HISTORY = [1.0, 0.99, 0.985, 0.984, 0.9839]


# ---------------------------------------------------------------------------
# plateau_action

def test_plateau_action_increase_early():
    assert plateau_action(FLAT_HISTORY, 0.9838, t=100, budget=1000) is Action.INCREASE


def test_plateau_action_decrease_late():
    assert plateau_action(FLAT_HISTORY, 0.9838, t=900, budget=1000) is Action.DECREASE
    # The split itself belongs to the late phase.
    assert plateau_action(FLAT_HISTORY, 0.9838, t=700, budget=1000) is Action.DECREASE
    assert plateau_action(FLAT_HISTORY, 0.9838, t=699, budget=1000) is Action.INCREASE


def test_plateau_action_none_while_window_short():
    for t in (0, 100, 999):
        assert plateau_action([1.0, 0.8], 0.7, t=t, budget=1000) is Action.NONE


def test_plateau_action_none_while_improving():
    # Every transition improves by 0.1 > min_delta, so no plateau.
    assert plateau_action([2.0, 1.9, 1.8, 1.7, 1.6], 1.5, t=100, budget=1000) is Action.NONE


def test_plateau_action_single_large_improvement_breaks_plateau():
    history = [1.0, 0.99, 0.93, 0.929, 0.9289]
    assert plateau_action(history, 0.9288, t=100, budget=1000) is Action.NONE


def test_plateau_action_warmup_suppresses():
    cfg = PlateauConfig(warmup=50)
    assert plateau_action(FLAT_HISTORY, 0.9838, t=49, budget=1000, cfg=cfg) is Action.NONE
    assert plateau_action(FLAT_HISTORY, 0.9838, t=50, budget=1000, cfg=cfg) is Action.INCREASE


def test_plateau_config_defaults():
    cfg = PlateauConfig()
    assert cfg.patience == 5
    assert cfg.min_delta == 0.05
    assert cfg.monitored == "train_loss"
    assert cfg.warmup == 0
    assert cfg.phase_split == 0.7


@pytest.mark.parametrize("bad", [
    dict(patience=0),
    dict(min_delta=0.0),
    dict(min_delta=-0.1),
    dict(monitored="test_loss"),
    dict(warmup=-1),
    dict(phase_split=0.0),
    dict(phase_split=1.0),
])
def test_plateau_config_validation(bad):
    with pytest.raises(TunerError):
        PlateauConfig(**bad).check()


# ---------------------------------------------------------------------------
# policy ordering

def test_ordering_accepts_descending_ladder():
    check_policy_ordering([Fix(k=0.05), Fix(k=0.01), Fix(k=0.002)], 100)
    check_policy_ordering([Fix(k=0.01)], 100)  # single rung: nothing to compare


def test_ordering_rejects_ascending_pair():
    with pytest.raises(ScheduleError, match="not ordered"):
        check_policy_ordering([Fix(k=0.01), Fix(k=0.02)], 100)


def test_ordering_rejects_cyclic_peak_above_fixed():
    # The cyclic rung touches k1=0.05 > 0.03 at t=l, which the sampled
    # check sees because every t is sampled at this budget.
    ladder = [Fix(k=0.03), Cyclic(kind="TRI", k0=0.001, k1=0.05, l=8)]
    with pytest.raises(ScheduleError, match="not ordered"):
        check_policy_ordering(ladder, 64)


def test_ordering_rejects_cyclic_dip_between_probes():
    # COS falls to k0=0.02 < 0.03 only at t = 3, 9, 15, ...; 64 evenly
    # spaced probes over this budget miss every one of them.
    with pytest.raises(ScheduleError, match="not ordered"):
        check_policy_ordering([Cyclic(kind="COS", k0=0.02, k1=0.2, l=3), Fix(k=0.03)], 284)


def test_ordering_accepts_cyclic_below_fixed():
    check_policy_ordering([Fix(k=0.1), Cyclic(kind="TRI", k0=0.001, k1=0.05, l=8)], 64)


# ---------------------------------------------------------------------------
# ladder controller on scripted streams

LADDER = [Fix(k=0.05), Fix(k=0.01), Fix(k=0.002)]


def drive(controller, values, start=0):
    """Feed ``values`` as train losses the way the train loop does."""
    lrs = []
    for offset, value in enumerate(values):
        t = start + offset
        lrs.append(controller.lr_for_step(t))
        controller.observe_train(t, value)
    return lrs


def test_controller_scripted_single_increase():
    c = PolicyLadderController(LADDER, start_index=1, budget_iters=1000)
    stream = FLAT_HISTORY + [0.9838] + [0.9 - 0.1 * i for i in range(6)]
    drive(c, stream)
    assert c.index == 0
    assert c.switches == [(0, 1), (6, 0)]


def test_controller_clamps_at_largest_rate():
    c = PolicyLadderController(LADDER, start_index=0, budget_iters=1000)
    drive(c, FLAT_HISTORY + [0.9838] * 5)
    assert c.index == 0
    assert c.switches == [(0, 0)]


def test_controller_decrease_late_and_clamp_at_smallest():
    cfg = PlateauConfig(patience=2, min_delta=0.01, phase_split=0.5)
    c = PolicyLadderController(LADDER, start_index=0, budget_iters=10, cfg=cfg)
    drive(c, [1.0, 1.0, 1.0, 1.0, 1.0], start=5)
    # First full window at t=7 is past the split, so the index walks down.
    assert c.switches[1] == (8, 1)
    c2 = PolicyLadderController(LADDER, start_index=2, budget_iters=10, cfg=cfg)
    drive(c2, [1.0, 1.0, 1.0, 1.0, 1.0], start=5)
    assert c2.index == 2
    assert c2.switches == [(0, 2)]


def test_controller_warmup_blocks_early_switch():
    cfg = PlateauConfig(warmup=10)
    c = PolicyLadderController(LADDER, start_index=1, budget_iters=1000, cfg=cfg)
    drive(c, [1.0] * 11)
    assert c.switches == [(0, 1), (11, 0)]


def test_controller_window_refills_after_switch():
    cfg = PlateauConfig(patience=2, min_delta=0.01)
    c = PolicyLadderController(LADDER, start_index=2, budget_iters=1000, cfg=cfg)
    drive(c, [1.0] * 9)
    # Switches need a full fresh window each time: t=2 and t=5.
    assert c.switches == [(0, 2), (3, 1), (6, 0)]


def test_controller_val_switch_applies_to_next_step():
    # Validation points arrive at iteration counts, one step ahead of the
    # step index; after a switch at iteration 8 the very next rate drawn
    # is lr(8) under the new rung's local clock.
    cfg = PlateauConfig(patience=1, min_delta=1e9, monitored="val_loss")
    c = PolicyLadderController([Fix(k=0.05), Fix(k=0.01)], 1, 100, cfg=cfg)
    for t in range(8):
        assert c.lr_for_step(t) == 0.01
        c.observe_train(t, 1.0)  # ignored under val monitoring
        if (t + 1) % 4 == 0:
            c.observe_val(t + 1, 1.0)
    assert c.switches == [(0, 1), (8, 0)]
    assert c.lr_for_step(8) == 0.05


def test_controller_replay_matches_composite_bitwise():
    cfg = PlateauConfig(patience=2, min_delta=0.01)
    ladder = [Fix(k=0.05), Poly(k=0.01, p=1.3, max_iter=None)]
    c = PolicyLadderController(ladder, start_index=0, budget_iters=50, cfg=cfg)
    script = [100.0 - t for t in range(35)] + [65.0] * 15
    lrs = drive(c, script)
    assert c.index == 1
    composite = c.realized_policy()
    assert validate_policy(composite, 50) == []
    assert [eval_lr(composite, t, 50) for t in range(50)] == lrs
    # The open-horizon rung was pinned to the span it actually ran on.
    assert composite.segments[-1].policy.max_iter == 50 - composite.segments[-1].start


@pytest.mark.parametrize("kwargs,exc", [
    (dict(policies=[], start_index=0), TunerError),
    (dict(policies=LADDER, start_index=3), TunerError),
    (dict(policies=LADDER, start_index=-1), TunerError),
    (dict(policies=[Fix(k=0.01), Fix(k=0.02)], start_index=0), ScheduleError),
    (dict(policies=[Fix(k=-1.0)], start_index=0), ScheduleError),
    (dict(policies=[Composite(segments=(Segment(0, 100, Fix(k=0.01)),))], start_index=0),
     TunerError),
    (dict(policies=LADDER, start_index=0, cfg=PlateauConfig(warmup=100)), TunerError),
])
def test_controller_validation(kwargs, exc):
    with pytest.raises(exc):
        PolicyLadderController(budget_iters=100, **kwargs)


# ---------------------------------------------------------------------------
# change_lr_on_plateau end to end

def test_single_rung_ladder_equals_plain_train():
    task = quad1d(lam=1.0, theta0=3.0)
    plain = train(task, Fix(k=0.1), budget_iters=30, seed=4, optimizer="sgd")
    laddered = change_lr_on_plateau(task, [Fix(k=0.1)], 0, budget_iters=30, seed=4,
                                    optimizer="sgd")
    assert [(m.iteration, m.loss) for m in laddered.series] == \
        [(m.iteration, m.loss) for m in plain.series]
    assert laddered.lr_trace.points == plain.lr_trace.points
    assert laddered.final_loss == plain.final_loss
    assert isinstance(laddered.policy, Composite)
    assert laddered.policy.segments == (Segment(start=0, end=30, policy=Fix(k=0.1)),)


def test_plateau_run_switches_and_replays_exactly():
    task = quad1d(lam=1.0, theta0=3.0)
    cfg = PlateauConfig(patience=3, min_delta=0.01)
    rec = change_lr_on_plateau(task, [Fix(k=0.5), Fix(k=0.1), Fix(k=0.02)], 1,
                               budget_iters=60, seed=0, optimizer="sgd", cfg=cfg,
                               eval_every=5)
    assert isinstance(rec.policy, Composite)
    assert len(rec.policy.segments) >= 2, "the ladder never moved"
    replay = train(task, rec.policy, budget_iters=60, seed=0, optimizer="sgd",
                   eval_every=5)
    assert replay.lr_trace.points == rec.lr_trace.points
    assert [m.loss for m in replay.series] == [m.loss for m in rec.series]
    assert replay.final_loss == rec.final_loss


def test_plateau_val_monitoring_trace_is_deterministic():
    task = quad1d(lam=1.0, theta0=3.0)
    cfg = PlateauConfig(patience=1, min_delta=1e9, monitored="val_loss")
    rec = change_lr_on_plateau(task, [Fix(k=0.5), Fix(k=0.1)], 1, budget_iters=40,
                               seed=0, optimizer="sgd", cfg=cfg, eval_every=4)
    # Every full window is a plateau under the huge min_delta, so the
    # switch points depend only on the evaluation cadence and the split.
    assert rec.policy.segments == (
        Segment(start=0, end=8, policy=Fix(k=0.1)),
        Segment(start=8, end=28, policy=Fix(k=0.5)),
        Segment(start=28, end=40, policy=Fix(k=0.1)),
    )
    expected = [0.1] * 8 + [0.5] * 20 + [0.1] * 12
    assert rec.lr_trace.points == tuple(enumerate(expected))


# ---------------------------------------------------------------------------
# range test

def lookup_task(table: dict) -> Task:
    """One-step task whose measured accuracy is a pure function of the lr.

    The gradient is the constant -1 and training runs one iteration per
    epoch, so the parameter after the single step equals the trial's lr
    exactly and the accuracy table keys on it.
    """
    def init(rng):
        return np.zeros(1)

    def loss_and_grad(theta, batch, split):
        return 0.5, np.array([-1.0])

    def eval_loss_top1(theta, split):
        return 0.5, table.get(float(theta[0]), 0.0)

    return Task(task_id="lookup", model_id="probe", param_len=1, batch_size=4,
                n_train=4, n_val=4, has_accuracy=True, init=init,
                loss_and_grad=loss_and_grad, eval_loss_top1=eval_loss_top1)


def test_range_test_thresholds_pick_the_documented_bounds():
    grid = [float(g) for g in np.geomspace(1e-3, 1e-1, 5)]
    table = dict(zip(grid, [0.80, 0.89, 0.90, 0.87, 0.30]))
    result = lr_range_test(lookup_task(table), 1e-3, 1e-1, 5, budgets_epochs=(1,))
    assert result.lr_grid == tuple(grid)
    assert result.top1 == ((0.80, 0.89, 0.90, 0.87, 0.30),)
    assert result.diverged == ((False,) * 5,)
    # lr_max: largest rate within 0.02 of the peak; lr_min: smallest within 0.05.
    assert result.recommended == (grid[1], grid[2])


def test_range_test_degenerate_interval_widens_to_midpoints():
    grid = [float(g) for g in np.geomspace(1e-3, 1e-1, 5)]
    table = dict(zip(grid, [0.004, 0.24, 0.90, 0.24, 0.004]))
    result = lr_range_test(lookup_task(table), 1e-3, 1e-1, 5, budgets_epochs=(1,))
    assert result.recommended == (math.sqrt(grid[1] * grid[2]),
                                  math.sqrt(grid[2] * grid[3]))
    lr_min, lr_max = result.recommended
    assert lr_min < grid[2] < lr_max


def test_range_test_peak_at_grid_edge_clamps():
    grid = [float(g) for g in np.geomspace(1e-3, 1e-1, 5)]
    table = dict(zip(grid, [0.90, 0.2, 0.1, 0.05, 0.01]))
    result = lr_range_test(lookup_task(table), 1e-3, 1e-1, 5, budgets_epochs=(1,))
    assert result.recommended == (grid[0], math.sqrt(grid[0] * grid[1]))


def test_range_test_recommendation_contains_argmax():
    from lrkit import blobs2
    task = blobs2(n=400)
    result = lr_range_test(task, 1e-3, 1.0, 6, budgets_epochs=(1, 2), seed=1)
    assert result.budgets_epochs == (1, 2)
    assert len(result.top1) == 2 and all(len(row) == 6 for row in result.top1)
    curve = result.top1[-1]
    best = result.lr_grid[curve.index(max(curve))]
    lr_min, lr_max = result.recommended
    assert lr_min < lr_max
    assert lr_min <= best <= lr_max


def test_range_test_all_diverged_raises():
    from lrkit import blobs2
    task = blobs2(n=200)
    with pytest.raises(TunerError, match="diverged"):
        lr_range_test(task, 1e8, 1e9, 4, budgets_epochs=(1,))


def test_range_test_validation():
    task = lookup_task({})
    with pytest.raises(TunerError):
        lr_range_test(task, 0.1, 0.1, 5, budgets_epochs=(1,))
    with pytest.raises(TunerError):
        lr_range_test(task, 0.0, 0.1, 5, budgets_epochs=(1,))
    with pytest.raises(TunerError, match="4 grid points"):
        lr_range_test(task, 1e-3, 0.1, 3, budgets_epochs=(1,))
    with pytest.raises(TunerError):
        lr_range_test(task, 1e-3, 0.1, 5, budgets_epochs=())
    with pytest.raises(TunerError, match="accuracy"):
        lr_range_test(quad1d(), 1e-3, 0.1, 5, budgets_epochs=(1,))


def test_range_result_doc_shape():
    grid = [float(g) for g in np.geomspace(1e-3, 1e-1, 5)]
    table = dict(zip(grid, [0.80, 0.89, 0.90, 0.87, 0.30]))
    doc = range_result_to_doc(lr_range_test(lookup_task(table), 1e-3, 1e-1, 5,
                                            budgets_epochs=(1,)))
    assert doc["lr_grid"] == grid
    assert doc["budgets_epochs"] == [1]
    assert doc["recommended"] == {"lr_min": grid[1], "lr_max": grid[2]}
    assert doc["top1"] == [[0.80, 0.89, 0.90, 0.87, 0.30]]
    assert doc["diverged"] == [[False] * 5]


# ---------------------------------------------------------------------------
# candidates and searches

def test_standard_candidates_cover_families():
    cands = standard_candidates((1e-3, 1e-1), 800, points=3)
    assert len(cands) == 9
    kinds = [type(c).__name__ for c in cands]
    assert kinds.count("Fix") == 3
    assert {"Step", "Exp", "Poly"} <= set(kinds)
    assert sum(isinstance(c, Cyclic) for c in cands) == 3
    assert {c.kind for c in cands if isinstance(c, Cyclic)} == {"TRI", "SIN", "COS"}
    for cand in cands:
        assert validate_policy(cand, 800) == []
    for cand in cands:
        if isinstance(cand, Cyclic):
            assert (cand.k0, cand.k1, cand.l) == (1e-3, 1e-1, 200)


def test_standard_candidates_validation():
    with pytest.raises(TunerError):
        standard_candidates((0.1, 0.1), 800)
    with pytest.raises(TunerError):
        standard_candidates((1e-3, 1e-1), 800, points=0)
    with pytest.raises(TunerError, match="unknown candidate family"):
        standard_candidates((1e-3, 1e-1), 800, families=("FOO",))


def test_grid_search_single_candidate_equals_train():
    task = quad1d(lam=1.0, theta0=2.0)
    records = grid_search(task, [Fix(k=0.3)], budget_iters=25, seeds=(5,),
                          optimizer="sgd")
    assert len(records) == 1
    direct = train(task, Fix(k=0.3), budget_iters=25, seed=5, optimizer="sgd")
    assert [m.loss for m in records[0].series] == [m.loss for m in direct.series]
    assert records[0].lr_trace.points == direct.lr_trace.points
    assert records[0].final_loss == direct.final_loss


def test_grid_search_order_is_candidates_by_seeds():
    task = quad1d(lam=1.0, theta0=2.0)
    cands = [Fix(k=0.3), Fix(k=0.2)]
    records = grid_search(task, cands, budget_iters=5, seeds=(0, 1), optimizer="sgd")
    assert [(r.policy, r.seed) for r in records] == \
        [(Fix(k=0.3), 0), (Fix(k=0.3), 1), (Fix(k=0.2), 0), (Fix(k=0.2), 1)]


def test_grid_search_records_equal_lone_trials():
    # A record does not depend on the batch it was searched in or its place there.
    task = blobs2(seed=7, n=100, model="logreg")
    cands = [Fix(k=0.3), Fix(k=0.1), Cyclic("TRI", 0.05, 0.3, 4), Poly(k=0.3, p=1.5)]
    seeds = [0, 1, 2]
    lone = {(serialize_policy(c), s): record_to_doc(train(task, c, budget_iters=15, seed=s),
                                                     stable=True)
            for c in cands for s in seeds}
    rng = random.Random(3)
    rng.shuffle(cands)
    rng.shuffle(seeds)
    records = grid_search(task, cands, budget_iters=15, seeds=seeds)
    assert [(r.policy, r.seed) for r in records] == [(c, s) for c in cands for s in seeds]
    for r in records:
        assert record_to_doc(r, stable=True) == lone[(serialize_policy(r.policy), r.seed)]


def test_grid_search_validation():
    task = quad1d()
    with pytest.raises(TunerError):
        grid_search(task, [], budget_iters=10)
    with pytest.raises(TunerError):
        grid_search(task, [Fix(k=0.1)], budget_iters=10, seeds=())
    with pytest.raises(ScheduleError, match="candidate 0"):
        grid_search(task, [Fix(k=-0.1)], budget_iters=10)


def test_random_search_is_deterministic_in_sample_seed():
    task = quad1d(lam=1.0, theta0=2.0)
    kwargs = dict(budget_iters=12, seeds=(0,), optimizer="sgd")
    a = random_search(task, (1e-3, 1e-1), 6, sample_seed=9, **kwargs)
    b = random_search(task, (1e-3, 1e-1), 6, sample_seed=9, **kwargs)
    c = random_search(task, (1e-3, 1e-1), 6, sample_seed=10, **kwargs)
    assert [r.policy for r in a] == [r.policy for r in b]
    assert [r.policy for r in a] != [r.policy for r in c]


def test_random_search_validation():
    task = quad1d()
    with pytest.raises(TunerError):
        random_search(task, (1e-3, 1e-1), 0, budget_iters=10)
    with pytest.raises(TunerError):
        random_search(task, (1e-1, 1e-3), 3, budget_iters=10)


# ---------------------------------------------------------------------------
# ranking

def test_rank_by_peak_top1():
    records = [make_record(Fix(k=0.1), accs=[(10, 0.80)]),
               make_record(Fix(k=0.2), accs=[(10, 0.82)]),
               make_record(Fix(k=0.3), accs=[(10, 0.78)])]
    ranked = rank_policies(records)
    assert [r.peak_top1 for r in ranked] == [0.82, 0.80, 0.78]


def test_rank_breaks_ties_on_policy_then_seed():
    records = [make_record(Fix(k=0.1), seed=1, accs=[(10, 0.8)]),
               make_record(Fix(k=0.1), seed=0, accs=[(10, 0.8)]),
               make_record(Fix(k=0.05), seed=2, accs=[(10, 0.8)])]
    ranked = rank_policies(records)
    assert [(r.policy.k, r.seed) for r in ranked] == [(0.05, 2), (0.1, 0), (0.1, 1)]


def test_rank_by_final_loss_puts_nonfinite_last():
    records = [make_record(Fix(k=0.1), final_loss=0.5),
               make_record(Fix(k=0.2), final_loss=float("inf")),
               make_record(Fix(k=0.3), final_loss=0.2),
               make_record(Fix(k=0.4), final_loss=float("nan"))]
    ranked = rank_policies(records, metric="final_loss")
    assert [r.policy.k for r in ranked] == [0.3, 0.1, 0.2, 0.4]


def test_rank_by_iterations_to_target():
    records = [make_record(Fix(k=0.1), accs=[(100, 0.3), (300, 0.9)]),
               make_record(Fix(k=0.2), accs=[(100, 0.9)]),
               make_record(Fix(k=0.3), accs=[(100, 0.3), (300, 0.4)])]
    ranked = rank_policies(records, metric="iters_to_target", target_top1=0.85)
    assert [r.policy.k for r in ranked] == [0.2, 0.1, 0.3]
    with pytest.raises(TunerError, match="target_top1"):
        rank_policies(records, metric="iters_to_target")


def test_rank_is_permutation_invariant():
    records = [make_record(Fix(k=0.1), seed=s, accs=[(10, a)])
               for s, a in [(0, 0.8), (1, 0.8), (2, 0.9)]]
    records += [make_record(Fix(k=0.2), seed=0, accs=[(10, 0.9)])]
    baseline = rank_policies(records)
    for i in range(3):
        shuffled = records[:]
        random.Random(i).shuffle(shuffled)
        assert rank_policies(shuffled) == baseline


def test_rank_validation():
    with pytest.raises(TunerError):
        rank_policies([])
    with pytest.raises(TunerError, match="unknown metric"):
        rank_policies([make_record(Fix(k=0.1))], metric="wall_clock")
    assert set(RANK_METRICS) == {"peak_top1", "final_loss", "iters_to_target"}


def test_iterations_to_target_examples():
    rec = make_record(Fix(k=0.1), accs=[(100, 0.5), (200, 0.9)])
    assert iterations_to_target(rec, 0.7) == 200
    assert iterations_to_target(rec, 0.5) == 100
    assert iterations_to_target(rec, 0.95) is None
    assert iterations_to_target(rec, 0.0) == 100
    with pytest.raises(TunerError, match="no accuracy"):
        iterations_to_target(make_record(Fix(k=0.1)), 0.5)


def test_mean_peak_by_policy_groups_and_orders():
    records = [make_record(Fix(k=0.1), seed=0, accs=[(10, 0.8)]),
               make_record(Fix(k=0.1), seed=1, accs=[(10, 0.9)]),
               make_record(Fix(k=0.2), seed=0, accs=[(10, 0.84)]),
               make_record(Fix(k=0.3), seed=0)]  # no accuracy: skipped
    rows = mean_peak_by_policy(records)
    assert rows == [(Fix(k=0.1), pytest.approx(0.85)), (Fix(k=0.2), 0.84)]


def test_mean_peak_tie_breaks_on_serialized_policy():
    records = [make_record(Fix(k=0.2), accs=[(10, 0.85)]),
               make_record(Fix(k=0.1), accs=[(10, 0.85)])]
    assert [p for p, _ in mean_peak_by_policy(records)] == [Fix(k=0.1), Fix(k=0.2)]


# ---------------------------------------------------------------------------
# staged composition

def test_compose_three_stage_cyclic():
    composite = compose_staged_policy([
        (0, 30000, Cyclic(kind="TRI", k0=0.1, k1=0.5, l=1500)),
        (30000, 60000, Cyclic(kind="TRI", k0=0.01, k1=0.05, l=1000)),
        (60000, 64000, Cyclic(kind="TRI", k0=0.001, k1=0.005, l=500)),
    ])
    assert validate_policy(composite, 64000) == []
    # Each stage restarts its cycle, so stage boundaries sit at the lower bound.
    assert eval_lr(composite, 0, 64000) == 0.1
    assert eval_lr(composite, 30000, 64000) == 0.01
    assert eval_lr(composite, 60000, 64000) == 0.001


def test_compose_single_stage_equals_plain_cyclic():
    policy = Cyclic(kind="SIN", k0=0.002, k1=0.03, l=40)
    composite = compose_staged_policy([(0, 500, policy)])
    for t in range(0, 500, 7):
        assert eval_lr(composite, t, 500) == eval_lr(policy, t, 500)


def test_compose_rejects_gaps_overlaps_and_junk():
    tri = Cyclic(kind="TRI", k0=0.01, k1=0.05, l=10)
    with pytest.raises(ScheduleError, match="gap"):
        compose_staged_policy([(0, 10, tri), (12, 20, tri)])
    with pytest.raises(ScheduleError, match="overlap"):
        compose_staged_policy([(0, 10, tri), (8, 20, tri)])
    with pytest.raises(TunerError):
        compose_staged_policy([])
    with pytest.raises(TunerError, match="not a policy"):
        compose_staged_policy([(0, 10, "TRI")])
    with pytest.raises(TunerError, match="not \\(start, end, policy\\)"):
        compose_staged_policy([(0, 10)])
