"""One rule for counts at every library entry point (``lrkit.errors.check_count``).

A count is a Python ``int`` that is not a ``bool``.  Each entry point
refuses any other value for a count, with its own module's ``LrKitError``
subclass, before it trains or writes to the store.
"""
import dataclasses
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrkit import (Cyclic, DbKey, Fix, LrKitError, OptimizerError, PlateauConfig, PolicyDb,
                   PolicyLadderController, ScheduleError, TaskError, TunerError, VerifyError,
                   check_policy_ordering, compose_staged_policy, estimate_optimal_lr, eval_lr,
                   grid_search, load_task, lr_range_test, lr_values, make_optimizer,
                   mean_peak_by_policy, optimal_lr_trace, plateau_action, plateau_search, quad1d,
                   random_search, record_to_doc, schedule_series, serialize_policy,
                   standard_candidates, train, train_population, validate_policy, verify_policy)
from lrkit.errors import check_count, is_count
from lrkit.training import downsample_points

from _factories import make_record

BLOBS = load_task("blobs2(n=40)")
KEY = DbKey(BLOBS.task_id, BLOBS.model_id, "momentum")
LADDER = [Fix(0.1), Fix(0.01)]


def test_is_count_takes_python_ints_alone():
    assert is_count(0) and is_count(-3) and is_count(2**64)
    for value in (True, False, 1.0, 2.5, np.int64(3), np.uint8(1), "3", None):
        assert not is_count(value), value


def test_check_count_messages():
    check_count(TaskError, "n", 1)
    check_count(TaskError, "n", 0, 0)
    for value, low, rule, message in [
        (0, 1, "", "n must be >= 1, got 0"),
        (2.5, 1, "", "n must be an integer, got 2.5"),
        (True, 0, "", "n must be an integer, got True"),
        (-1, 0, "a non-negative integer", "n must be a non-negative integer, got -1"),
        (np.int64(3), 0, "a non-negative integer", "n must be a non-negative integer, got np.int64(3)"),
    ]:
        with pytest.raises(TaskError) as info:
            check_count(TaskError, "n", value, low, rule)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# any count at any entry point

_HORIZON = st.integers(2**53, 2**64)  # a horizon this large is refused before any allocation


def _counts(valid, large=st.integers(2**53, 2**64)):
    """A count argument: a valid one half the time, else a bool, a fraction, an
    integral float, a numpy integer, a negative, zero or a large int."""
    return st.one_of(valid, valid, valid, valid, valid, valid, valid,
                     st.booleans(), st.sampled_from([0.5, 1.5, 2.5]),
                     st.sampled_from([1.0, 2.0, 4.0]),
                     st.sampled_from([np.int64(2), np.int32(4), np.uint8(3)]),
                     st.integers(-3, -1), st.just(0), large)


def _maybe(counts):
    return st.one_of(st.none(), counts)


# A size that allocates per unit (grid points, samples, parameters) is drawn
# large only up to a few dozen: far past that a valid call runs out of memory.
_SIZE = st.integers(17, 40)


class _Constant:
    """A controller that keeps one rate."""

    def lr_for_step(self, t):
        return 0.05

    def observe_train(self, t, loss):
        pass

    def observe_val(self, iteration, loss):
        pass

    def realized_policy(self):
        return Fix(0.05)


# Each entry point: (call(db, **counts), {count name: values}).
_ENTRY_POINTS = {
    "train": (lambda db, **kw: train(BLOBS, Fix(0.1), **kw), {
        "budget_iters": _counts(st.integers(1, 6), _HORIZON),
        "seed": _counts(st.integers(0, 3)),
        "eval_every": _maybe(_counts(st.integers(1, 4))),
        "snapshot_stride": _maybe(_counts(st.integers(1, 3)))}),
    "train_population": (
        lambda db, seeds, **kw: train_population(
            BLOBS, [(Fix(0.1), seeds[0]), (_Constant(), seeds[1])], **kw), {
            "budget_iters": _counts(st.integers(1, 6), _HORIZON),
            "seeds": st.tuples(_counts(st.integers(0, 3)), _counts(st.integers(0, 3)))}),
    "controller_population": (
        lambda db, **kw: train_population(BLOBS, [(_Constant(), 0)], **kw), {
            "budget_iters": _counts(st.integers(1, 6), _HORIZON),
            "eval_every": _maybe(_counts(st.integers(1, 4)))}),
    "lr_range_test": (lambda db, **kw: lr_range_test(BLOBS, 0.01, 1.0, **kw), {
        "points": _counts(st.integers(4, 5), _SIZE),
        "budgets_epochs": st.lists(_counts(st.integers(1, 2), _HORIZON), max_size=2),
        "seed": _counts(st.integers(0, 3))}),
    "standard_candidates": (lambda db, **kw: standard_candidates((0.01, 0.1), **kw), {
        "budget_iters": _counts(st.integers(1, 20)),
        "points": _counts(st.integers(1, 4), _SIZE)}),
    "random_search": (lambda db, **kw: random_search(BLOBS, (0.01, 0.1), **kw), {
        "n_samples": _counts(st.integers(1, 3), _SIZE),
        "budget_iters": _counts(st.integers(1, 6), _HORIZON),
        "sample_seed": _counts(st.integers(0, 3))}),
    "PlateauConfig": (lambda db, **kw: PlateauConfig(**kw).check(), {
        "patience": _counts(st.integers(1, 5)),
        "warmup": _counts(st.integers(0, 3))}),
    "plateau_action": (lambda db, **kw: plateau_action([1.0, 0.5], 0.4, **kw), {
        "t": _counts(st.integers(0, 9)),
        "budget": _counts(st.integers(1, 20))}),
    # A valid budget sizes the rates of every policy, so it is drawn large only
    # up to a few dozen, as a size is.
    "check_policy_ordering": (lambda db, **kw: check_policy_ordering(LADDER, **kw), {
        "budget_iters": _counts(st.integers(1, 20), _SIZE)}),
    "PolicyLadderController": (lambda db, **kw: PolicyLadderController(LADDER, **kw), {
        "start_index": _counts(st.integers(0, 1)),
        "budget_iters": _counts(st.integers(1, 20), _HORIZON)}),
    "verify_policy": (lambda db, **kw: verify_policy(Fix(0.1), BLOBS, 1.0, db=db, **kw), {
        "budget_iters": _counts(st.integers(1, 6), _HORIZON),
        "n_top": _counts(st.integers(1, 3)),
        "seeds": st.lists(_counts(st.integers(0, 2)), min_size=1, max_size=2),
        "eval_every": _maybe(_counts(st.integers(1, 4)))}),
    "optimal_lr_trace": (lambda db, **kw: optimal_lr_trace(quad1d(), Fix(0.1), **kw), {
        "budget_iters": _counts(st.integers(3, 9), _HORIZON),
        "stride": _counts(st.integers(1, 3)),
        "seed": _counts(st.integers(0, 3))}),
    "estimate_optimal_lr": (lambda db, **kw: estimate_optimal_lr([0.0], [1.0], [1.5], 0.1, **kw), {
        "t": _counts(st.integers(0, 9))}),
    "PolicyDb.top_n": (lambda db, **kw: db.top_n(KEY, **kw), {"n": _counts(st.integers(1, 3))}),
    "record_to_doc": (lambda db, **kw: record_to_doc(
        make_record(Fix(0.1), accs=[(i, 0.5) for i in range(6)]), **kw), {
        "series_cap": _maybe(_counts(st.integers(2, 5)))}),
    "downsample_points": (lambda db, **kw: downsample_points(list(range(6)), **kw), {
        "cap": _counts(st.integers(1, 5))}),
    "make_optimizer": (lambda db, **kw: make_optimizer("adam", **kw), {
        "param_len": _counts(st.integers(1, 8), _SIZE)}),
    "compose_staged_policy": (
        lambda db, start, end: compose_staged_policy([(0, start, Fix(0.1)),
                                                      (start, end, Fix(0.05))]), {
            "start": _counts(st.integers(1, 5)),
            "end": _counts(st.integers(6, 10), _HORIZON)}),
}


@st.composite
def _calls(draw):
    name = draw(st.sampled_from(sorted(_ENTRY_POINTS)))
    call, counts = _ENTRY_POINTS[name]
    return name, call, draw(st.fixed_dictionaries(counts))


def _stocked_store(path: str) -> PolicyDb:
    db = PolicyDb(path)
    for policy, peak in ((Fix(0.05), 0.9), (Fix(0.2), 0.8)):
        db.put(KEY, make_record(policy, accs=[(5, peak)], task_id=KEY.dataset_id,
                                model_id=KEY.model_id, optimizer="momentum"), stable=True)
    return db


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


@given(_calls())
@settings(max_examples=300, deadline=None)
def test_any_count_is_taken_or_refused_with_one_error_before_any_write(call):
    name, fn, counts = call
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "store.jsonl")
        db = _stocked_store(path)
        before = _read(path)
        try:
            fn(db, **counts)
        except LrKitError:
            assert _read(path) == before, (name, counts)


def test_verify_refuses_a_fractional_n_top_before_it_trains_or_writes(tmp_path, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("verify trained before it checked n_top")

    monkeypatch.setattr("lrkit.tuning.train_population", no_training)
    path = str(tmp_path / "store.jsonl")
    db = _stocked_store(path)
    before = _read(path)
    with pytest.raises(VerifyError, match=r"^n_top must be an integer, got 1\.5$"):
        verify_policy(Fix(0.1), BLOBS, 0.5, budget_iters=10, db=db, n_top=1.5)
    assert _read(path) == before


# Only sizes that fail at once: 2**53 eight-byte entries is 64 PiB, and numpy
# refuses 2**64 before it asks for memory.
@pytest.mark.parametrize("size", [2**53, 2**64])
def test_a_size_numpy_cannot_allocate_is_refused_with_the_module_error(size):
    for error, name, call in [
            (TunerError, "points", lambda: lr_range_test(BLOBS, 0.01, 1.0, size, [1])),
            (TunerError, "points", lambda: standard_candidates((0.01, 0.1), 10, points=size)),
            (TunerError, "budget_iters", lambda: check_policy_ordering(LADDER, size)),
            (OptimizerError, "param_len", lambda: make_optimizer("momentum", size)),
            (OptimizerError, "param_len", lambda: make_optimizer("adam", size))]:
        with pytest.raises(error, match=rf"^{name} is too large to allocate, got {size}$"):
            call()


# Only sizes that fail at once, as above: n sizes the data, hidden the parameters.
@pytest.mark.parametrize("size", [2**52, 2**64])
def test_a_task_size_numpy_cannot_allocate_is_refused_with_task_error(size):
    for name in ("moons2", "blobs2"):
        with pytest.raises(TaskError, match=rf"^n is too large to allocate, got {size}$"):
            load_task(f"{name}(n={size})")
    task = load_task(f"moons2(n=200,hidden={size})")
    message = rf"^param_len is too large to allocate, got {task.param_len}$"
    with pytest.raises(TaskError, match=message):
        train(task, Fix(0.1), budget_iters=5)
    with pytest.raises(TaskError, match=message):
        train_population(task, [(Fix(0.1), 0), (_Constant(), 1)], budget_iters=5)


def test_a_horizon_numpy_cannot_allocate_is_refused_with_task_error():
    # 2**52 eight-byte rates is 32 PiB: numpy refuses it before allocating anything.
    with pytest.raises(TaskError, match=r"^budget_iters is too large to allocate, got 4503599627370496$"):
        train(load_task("quad1d"), Fix(0.1), budget_iters=2**52)


def test_a_task_init_error_is_not_reported_as_a_size_too_large():
    with pytest.raises(ValueError, match="could not convert string to float") as raised:
        train(dataclasses.replace(quad1d(), init=lambda rng: float("x")), Fix(0.1), budget_iters=5)
    assert type(raised.value) is ValueError
    with pytest.raises(TaskError, match=r"^param_len is too large to allocate, got 1$"):
        train(dataclasses.replace(quad1d(), init=lambda rng: np.empty(2**62)), Fix(0.1),
              budget_iters=5)


def test_grid_search_and_verify_name_a_fractional_budget(tmp_path, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before budget_iters was checked")

    monkeypatch.setattr("lrkit.tuning.train_population", no_training)
    message = r"^budget_iters must be an integer, got 2\.5$"
    with pytest.raises(TunerError, match=message):
        grid_search(BLOBS, [Fix(0.1)], budget_iters=2.5)
    path = str(tmp_path / "store.jsonl")
    db = _stocked_store(path)
    before = _read(path)
    with pytest.raises(VerifyError, match=message):
        verify_policy(Fix(0.1), BLOBS, 0.5, budget_iters=2.5, db=db)
    assert _read(path) == before


# ---------------------------------------------------------------------------
# what a population refuses before it allocates

def test_train_refuses_a_schedule_that_is_neither_a_policy_nor_a_controller():
    with pytest.raises(TaskError, match="neither a policy nor a ScheduleController"):
        train(quad1d(), "abc", budget_iters=10)


@pytest.mark.parametrize("budget", [2**53, 2**60])
def test_a_controller_population_refuses_a_horizon_past_2_53(budget):
    with pytest.raises(ScheduleError, match=r"^total_iters must be below 2\*\*53, got "):
        train_population(BLOBS, [(_Constant(), 0), (_Constant(), 1)], budget_iters=budget)


# ---------------------------------------------------------------------------
# one identity per policy

def test_an_int_rate_or_unit_is_held_as_its_float():
    assert type(Fix(k=1).k) is float
    assert serialize_policy(Fix(k=1)) == serialize_policy(Fix(k=1.0)) == '{"type": "FIX", "k": 1.0}'
    cyc = Cyclic("SINEXP", 1, 2, 5, gamma=0.5)
    assert (type(cyc.k0), type(cyc.k1), type(cyc.l)) == (float, float, int)
    # A bool or any other value is kept as given, for validation to report.
    assert Fix(k=True).k is True and Fix(k="x").k == "x"
    recs = grid_search(BLOBS, [Fix(k=1), Fix(k=1.0)], budget_iters=10)
    assert len(mean_peak_by_policy(recs)) == 1


def test_verify_skips_a_stored_copy_of_an_int_candidate(tmp_path):
    # The candidate measures 0.625 here, below the target.  The store holds
    # the candidate itself, read back as k=1.0, whose mean with this run's
    # record stays the best, and one other policy above the target.
    task = load_task("blobs2(n=40,sep=0.5)")
    key = DbKey(task.task_id, task.model_id, "momentum")
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    for policy, peak in ((Fix(k=1.0), 1.0), (Fix(k=0.5), 0.75)):
        db.put(key, make_record(policy, accs=[(5, peak)], task_id=task.task_id,
                                model_id=task.model_id, optimizer="momentum"))
    verdict = verify_policy(Fix(k=1), task, 0.7, budget_iters=10, db=db)
    assert verdict.candidate_top1 < 0.7
    assert (verdict.phase_reached, verdict.replacement) == (2, Fix(k=0.5))


# ---------------------------------------------------------------------------
# one lr-range check

@pytest.mark.parametrize("lo,hi", [(0.01, math.inf), (math.nan, 0.1), (0.01, math.nan),
                                   (0.1, 0.01), (0.0, 0.1), (-1.0, 0.1), (math.inf, math.inf)])
def test_every_lr_range_is_checked_alike(lo, hi):
    message = rf"^need 0 < lr_min < lr_max < inf, got {lo!r}, {hi!r}$"
    with pytest.raises(TunerError, match=message):
        standard_candidates((lo, hi), 10)
    with pytest.raises(TunerError, match=message):
        random_search(BLOBS, (lo, hi), 2, budget_iters=10)
    with pytest.raises(TunerError, match=message):
        lr_range_test(BLOBS, lo, hi, 4, [1])


# ---------------------------------------------------------------------------
# evaluation horizons: a count >= 1, below 2**53

@pytest.mark.parametrize("horizon", ["x", 2.5, 3.0, True, False, None, np.int64(3), -1, 0])
def test_every_evaluation_entry_point_holds_its_horizon_to_the_count_rule(horizon):
    message = "^" + re.escape(f"total_iters must be a positive integer, got {horizon!r}") + "$"
    for call in (lambda: lr_values(Fix(0.1), np.arange(3), horizon),
                 lambda: lr_values(Fix(0.1), np.arange(0), horizon),
                 lambda: eval_lr(Fix(0.1), 0, horizon),
                 lambda: schedule_series(Fix(0.1), horizon),
                 lambda: validate_policy(Fix(0.1), horizon)):
        with pytest.raises(ScheduleError, match=message):
            call()


def test_a_past_2_53_horizon_keeps_its_message_at_every_evaluation_entry_point():
    message = r"^total_iters must be below 2\*\*53, got 9007199254740992$"
    for call in (lambda: lr_values(Fix(0.1), np.arange(1), 2**53),
                 lambda: eval_lr(Fix(0.1), 0, 2**53),
                 lambda: schedule_series(Fix(0.1), 2**53),
                 lambda: validate_policy(Fix(0.1), 2**53)):
        with pytest.raises(ScheduleError, match=message):
            call()


def test_a_ladder_switching_at_its_last_step_tabulates_a_zero_length_rest(monkeypatch):
    horizons = []

    def recording(policy, ts, total_iters):
        horizons.append(total_iters)
        return lr_values(policy, ts, total_iters)

    monkeypatch.setattr("lrkit.tuning.lr_values", recording)
    ladder = PolicyLadderController([Fix(0.3), Fix(0.1), Fix(0.01)], 1, 10,
                                    PlateauConfig(patience=1, min_delta=1e9))
    for t in range(10):
        ladder.observe_train(t, 1.0)
    # The switch after the last step leaves nothing to evaluate.
    assert ladder.switches[-1] == (10, 2)
    assert 0 not in horizons
    with pytest.raises(ScheduleError, match=r"^iteration 0 outside \[0, 0\)$"):
        ladder.lr_for_step(10)
