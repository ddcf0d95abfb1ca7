"""One rule for reals at every library entry point (``lrkit.errors.check_real``).

A real is a Python ``int`` or ``float`` (so ``np.float64``) that is not a
``bool``, read as a float with an int past the float range read as +-inf.
Each entry point refuses any other value, and a real outside its interval,
with its own module's ``LrKitError`` subclass, before it trains or writes to
the store; it takes an in-range int, float or ``np.float64`` alike.
"""
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrkit import (DbError, DbKey, Fix, OptimizerError, PlateauConfig, PolicyDb, TaskError,
                   TunerError, VerifyError, adam_step, blobs2, estimate_optimal_lr,
                   iterations_to_target, load_task, lr_range_test, make_optimizer, metric_value,
                   momentum_step, moons2, plateau_action, quad1d, random_search, rank_policies,
                   record_to_doc, sgd_step, standard_candidates, train, verdict_to_doc,
                   verify_policy)
from lrkit.errors import CLOSED_UNIT, POSITIVE, check_real, is_real, real_float

from _factories import make_record

BLOBS = load_task("blobs2(n=40)")
KEY = DbKey(BLOBS.task_id, BLOBS.model_id, "momentum")
REC = make_record(Fix(0.1), accs=[(5, 0.5), (10, 0.75)])
THETA = np.array([1.0, -2.0])
GRAD = np.array([0.5, 0.25])


def test_is_real_takes_python_ints_and_floats_alone():
    for value in (0, -3, 2**1100, 0.5, math.nan, math.inf, np.float64(0.5)):
        assert is_real(value), value
    for value in (True, False, np.float32(0.5), np.int64(3), "0.5", None, [0.1], 1j):
        assert not is_real(value), value


def test_real_float_reads_an_int_past_the_float_range_as_an_infinity():
    assert real_float(10**400) == math.inf and real_float(-10**400) == -math.inf
    assert real_float(3) == 3.0 and type(real_float(np.float64(0.5))) is float


def test_check_real_messages():
    assert check_real(TaskError, "x", 2, *POSITIVE) == 2.0
    assert check_real(TaskError, "x", 0, *CLOSED_UNIT) == 0.0
    for value, rule, message in [
        (0, POSITIVE, "x must be positive and finite, got 0"),
        (math.nan, CLOSED_UNIT, "x must be in [0, 1], got nan"),
        (True, CLOSED_UNIT, "x must be in [0, 1], got True"),
        (10**400, POSITIVE, f"x must be positive and finite, got {10**400}"),
        ("0.5", CLOSED_UNIT, "x must be in [0, 1], got '0.5'"),
        (np.float32(0.5), CLOSED_UNIT, "x must be in [0, 1], got np.float32(0.5)"),
    ]:
        with pytest.raises(TaskError) as info:
            check_real(TaskError, "x", value, *rule)
        assert str(info.value) == message
    with pytest.raises(TaskError, match=r"^x must be a number, got None$"):
        check_real(TaskError, "x", None, lambda v: True, "a number")
    assert math.isnan(check_real(TaskError, "x", math.nan, lambda v: True, "a number"))


# ---------------------------------------------------------------------------
# any real at any entry point

NOT_REAL = ["x", "0.5", None, True, False, np.float32(0.5), np.int64(1), [0.1]]
NOT_FINITE = [math.nan, math.inf, -math.inf, 10**400, -10**400]


def _reals(lo: float, hi: float, ints=()):
    """In-range reals: floats in [lo, hi], each also as np.float64, and the ints given."""
    floats = st.floats(lo, hi)
    return st.one_of(floats, floats.map(np.float64), st.sampled_from(list(ints) or [lo]))


_POSITIVE = _reals(1e-3, 10.0, [1, 2])
_UNIT = _reals(0.0, 1.0, [0, 1])
_BELOW_ZERO = [-1e-300, -0.5, -1]
_OUTSIDE_POSITIVE = [0, 0.0, -0.0] + _BELOW_ZERO
_OUTSIDE_UNIT = [1.0000001, 2, -1e-300, -1]
_OUTSIDE_OPEN_UNIT = [0, 0.0, 1, 1.0, -0.5, 1.5]


def _stocked_store(path: str) -> PolicyDb:
    db = PolicyDb(path)
    for policy, peak in ((Fix(0.05), 0.9), (Fix(0.2), 0.8)):
        db.put(KEY, make_record(policy, accs=[(5, peak)], task_id=KEY.dataset_id,
                                model_id=KEY.model_id, optimizer="momentum"), stable=True)
    return db


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


# Each entry point: (its error, call(db, value), in-range values, values refused
# besides those that are not reals).
_ENTRY_POINTS = {
    "quad1d.lam": (TaskError, lambda db, v: quad1d(lam=v), _POSITIVE,
                   _OUTSIDE_POSITIVE + NOT_FINITE),
    "quad1d.theta0": (TaskError, lambda db, v: quad1d(theta0=v), _reals(-5.0, 5.0, [0, -3]),
                      NOT_FINITE),
    "blobs2.noise": (TaskError, lambda db, v: blobs2(n=40, noise=v), _reals(0.0, 3.0, [0, 1]),
                     _BELOW_ZERO + NOT_FINITE),
    "blobs2.sep": (TaskError, lambda db, v: blobs2(n=40, sep=v), _POSITIVE,
                   _OUTSIDE_POSITIVE + NOT_FINITE),
    "moons2.noise": (TaskError, lambda db, v: moons2(n=40, noise=v), _reals(0.0, 3.0, [0, 1]),
                     _BELOW_ZERO + NOT_FINITE),
    "make_optimizer.momentum": (OptimizerError,
                                lambda db, v: make_optimizer("momentum", 2, momentum=v),
                                _reals(0.0, 0.999, [0]), [1, 1.0, 1.5] + _BELOW_ZERO + NOT_FINITE),
    "make_optimizer.beta1": (OptimizerError, lambda db, v: make_optimizer("adam", 2, beta1=v),
                             _reals(1e-3, 0.999), _OUTSIDE_OPEN_UNIT + NOT_FINITE),
    "make_optimizer.beta2": (OptimizerError, lambda db, v: make_optimizer("adam", 2, beta2=v),
                             _reals(1e-3, 0.999), _OUTSIDE_OPEN_UNIT + NOT_FINITE),
    "make_optimizer.eps": (OptimizerError, lambda db, v: make_optimizer("adam", 2, eps=v),
                           _POSITIVE, _OUTSIDE_POSITIVE + NOT_FINITE),
    "sgd_step": (OptimizerError, lambda db, v: sgd_step(THETA, GRAD, v), _POSITIVE,
                 _OUTSIDE_POSITIVE + NOT_FINITE),
    "momentum_step": (OptimizerError,
                      lambda db, v: momentum_step(THETA, make_optimizer("momentum", 2), GRAD, v),
                      _POSITIVE, _OUTSIDE_POSITIVE + NOT_FINITE),
    "adam_step": (OptimizerError,
                  lambda db, v: adam_step(THETA, make_optimizer("adam", 2), GRAD, v),
                  _POSITIVE, _OUTSIDE_POSITIVE + NOT_FINITE),
    "PlateauConfig.min_delta": (TunerError, lambda db, v: PlateauConfig(min_delta=v).check(),
                                _POSITIVE, _OUTSIDE_POSITIVE + NOT_FINITE),
    "PlateauConfig.phase_split": (TunerError, lambda db, v: PlateauConfig(phase_split=v).check(),
                                  _reals(1e-3, 0.999), _OUTSIDE_OPEN_UNIT + NOT_FINITE),
    "lr_range_test.lo": (TunerError, lambda db, v: lr_range_test(BLOBS, v, 1.0, 4, [1]),
                         _reals(1e-4, 0.5), [1.0, 1, 2.0, 0, 0.0, -0.1] + NOT_FINITE),
    "lr_range_test.hi": (TunerError, lambda db, v: lr_range_test(BLOBS, 0.01, v, 4, [1]),
                         _reals(0.02, 1.0, [1]), [0.01, 0, -1] + NOT_FINITE),
    "standard_candidates.lo": (TunerError, lambda db, v: standard_candidates((v, 0.1), 10),
                               _reals(1e-4, 0.09), [0.1, 1, 0, -0.1] + NOT_FINITE),
    "standard_candidates.hi": (TunerError, lambda db, v: standard_candidates((0.01, v), 10),
                               _reals(0.02, 10.0, [1, 2]), [0.01, 0, -1] + NOT_FINITE),
    "random_search.hi": (TunerError, lambda db, v: random_search(BLOBS, (0.01, v), 2,
                                                                 budget_iters=5),
                         _reals(0.02, 1.0, [1]), [0.01, 0, -1] + NOT_FINITE),
    # A plateau is judged on any real, NaN and the infinities too.
    "plateau_action.current": (TunerError, lambda db, v: plateau_action([1.0, 0.5], v, 0, 10),
                               st.one_of(_reals(-5.0, 5.0, [0, 10**400]),
                                         st.sampled_from(NOT_FINITE)), []),
    "plateau_action.history": (TunerError, lambda db, v: plateau_action([1.0, v], 0.5, 0, 10),
                               st.one_of(_reals(-5.0, 5.0, [0, -10**400]),
                                         st.sampled_from(NOT_FINITE)), []),
    "iterations_to_target": (TunerError, lambda db, v: iterations_to_target(REC, v), _UNIT,
                             _OUTSIDE_UNIT + NOT_FINITE),
    "metric_value": (TunerError, lambda db, v: metric_value(REC, "iters_to_target", v), _UNIT,
                     _OUTSIDE_UNIT + NOT_FINITE),
    "metric_value.peak_top1": (TunerError, lambda db, v: metric_value(REC, "peak_top1", v),
                               _UNIT, _OUTSIDE_UNIT + NOT_FINITE),
    "rank_policies": (TunerError, lambda db, v: rank_policies([REC], target_top1=v), _UNIT,
                      _OUTSIDE_UNIT + NOT_FINITE),
    "PolicyDb.top_n": (DbError, lambda db, v: db.top_n(KEY, 3, target_top1=v), _UNIT,
                       _OUTSIDE_UNIT + NOT_FINITE),
    "verify_policy": (VerifyError, lambda db, v: verify_policy(Fix(0.1), BLOBS, v, budget_iters=5,
                                                               db=db, stable=True),
                      _UNIT, _OUTSIDE_UNIT + NOT_FINITE),
    "estimate_optimal_lr": (VerifyError, lambda db, v: estimate_optimal_lr([0.0], [1.0], [1.5], v),
                            _POSITIVE, _OUTSIDE_POSITIVE + NOT_FINITE),
}

_OPTIONAL = ("metric_value.peak_top1", "rank_policies", "PolicyDb.top_n")


@st.composite
def _calls(draw):
    """An entry point with an in-range value (half the time) or one it refuses."""
    name = draw(st.sampled_from(sorted(_ENTRY_POINTS)))
    error, call, valid, outside = _ENTRY_POINTS[name]
    refused = draw(st.booleans())
    # None leaves an optional target unset.
    not_real = [v for v in NOT_REAL if v is not None or name not in _OPTIONAL]
    value = draw(st.sampled_from(not_real + outside) if refused else valid)
    return name, error, call, value, refused


@given(_calls())
@settings(max_examples=300, deadline=None)
def test_any_real_is_taken_or_refused_with_the_module_error_before_any_write(call):
    name, error, fn, value, refused = call
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "store.jsonl")
        db = _stocked_store(path)
        before = _read(path)
        if not refused:
            fn(db, value)
            return
        with pytest.raises(error) as info:
            fn(db, value)
        assert type(info.value) is error, (name, value)
        assert _read(path) == before, (name, value)


@pytest.mark.parametrize("value", ["0.5", True, math.nan, -1.0])
def test_refused_reals_train_nothing(value, tmp_path, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before a real was checked")

    monkeypatch.setattr("lrkit.tuning.train_population", no_training)
    db = _stocked_store(str(tmp_path / "store.jsonl"))
    with pytest.raises(VerifyError):
        verify_policy(Fix(0.1), BLOBS, value, budget_iters=5, db=db)
    with pytest.raises(TunerError):
        lr_range_test(BLOBS, value, 1.0, 4, [1])
    with pytest.raises(TunerError):
        random_search(BLOBS, (value, 0.1), 2, budget_iters=5)


# ---------------------------------------------------------------------------
# in-range ints, floats and np.float64 give one result

@pytest.mark.parametrize("build,reals,task_id", [
    (blobs2, {"noise": 1}, "blobs2(n=2000,noise=1,seed=7,sep=3)"),
    (lambda **kw: blobs2(n=40, **kw), {"noise": 0, "sep": 2}, "blobs2(n=40,noise=0,seed=7,sep=2)"),
    (lambda **kw: moons2(n=40, **kw), {"noise": 1}, "moons2(n=40,noise=1,seed=7)"),
    (quad1d, {"lam": 10, "theta0": 3}, "quad1d(lam=10,theta0=3)"),
])
def test_task_reals_give_one_task_as_int_float_or_float64(build, reals, task_id):
    tasks = [build(**{key: kind(v) for key, v in reals.items()})
             for kind in (int, float, np.float64)]
    assert [t.task_id for t in tasks] == [task_id] * 3
    docs = {json.dumps(record_to_doc(train(t, Fix(0.05), budget_iters=6), stable=True))
            for t in tasks}
    assert len(docs) == 1


def test_optimizer_reals_step_alike_as_int_float_or_float64():
    def run(momentum, eps, lr):
        theta, state = THETA, make_optimizer("momentum", 2, momentum=momentum)
        theta, state = momentum_step(theta, state, GRAD, lr)
        adam = make_optimizer("adam", 2, eps=eps, beta1=0.5)
        theta, adam = adam_step(theta, adam, GRAD, lr)
        return sgd_step(theta, GRAD, lr).tobytes(), state.momentum, adam.eps

    results = {run(*args) for args in [(0, 1, 2), (0.0, 1.0, 2.0),
                                       (np.float64(0), np.float64(1), np.float64(2))]}
    assert len(results) == 1
    assert type(next(iter(results))[1]) is float


def test_verify_takes_an_int_target_as_its_float(tmp_path):
    outputs = []
    for target in (1, 1.0, np.float64(1.0)):
        path = str(tmp_path / f"store-{len(outputs)}.jsonl")
        verdict = verify_policy(Fix(0.1), BLOBS, target, budget_iters=5, db=PolicyDb(path),
                                stable=True)
        assert type(verdict.target_top1) is float
        outputs.append((json.dumps(verdict_to_doc(verdict, stable=True)), _read(path)))
    assert len(set(outputs)) == 1
    assert json.loads(outputs[0][0])["target_top1"] == 1.0


@pytest.mark.parametrize("lr_range", [0.1, None, (0.1,), [], "a", (0.01, 0.1, 1.0),
                                      [0.01, 0.1, 0.2]])
def test_an_lr_range_that_is_not_a_pair_is_refused_whole(lr_range):
    message = f"need 0 < lr_min < lr_max < inf, got {lr_range!r}"
    for call in (lambda: standard_candidates(lr_range, 10),
                 lambda: random_search(BLOBS, lr_range, 2, budget_iters=5)):
        with pytest.raises(TunerError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("history", [None, 1.0, 3, True])
def test_plateau_action_refuses_a_history_that_is_not_iterable(history):
    with pytest.raises(TunerError) as info:
        plateau_action(history, 1.0, 0, 10)
    assert str(info.value) == f"history must be iterable, got {type(history).__name__}"
