"""One rule for policies at every library entry point (``lrkit.schedules``).

Evaluation (``eval_lr``, ``lr_values``, ``schedule_series``) refuses a
malformed value with ``ScheduleError``: one that is not a policy, a
COMPOSITE segment holding one, a field a policy document could not hold,
or an unknown cyclic kind.  A range-invalid but well-formed policy is
evaluated as written.  Training, searches, ladders and composition refuse
any invalid policy through ``check_policy``, before they train or write.
"""
import math
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrkit import (CYCLIC_KINDS, Composite, Cyclic, DbError, DbKey, Exp, Fix, Inv, LrKitError,
                   Metrics, NStep, Poly, PolicyDb, ScheduleError, Segment, Step, check_policy,
                   compose_staged_policy, eval_lr, grid_search, load_task, lr_values,
                   optimal_lr_trace, plateau_search, quad1d, schedule_series, train,
                   train_population, validate_policy, verify_policy)
from lrkit.cli import main
from lrkit.tuning import check_policy_ordering

from _factories import make_record

BLOBS = load_task("blobs2(n=40)")
QUAD = quad1d()
BUDGET = 6

# ---------------------------------------------------------------------------
# policy-like values

# Values a document could not hold in any field, or could hold only in some.
_JUNK = st.sampled_from(["x", "5", [1], [], None, True, False, math.nan, math.inf, -math.inf,
                         np.int64(3), np.float32(0.5), 2**53, 2**64, 10**400, 2.5])
_RATE = st.one_of(st.floats(1e-3, 1.0), st.sampled_from([0.0, -1.0, 1.5, 1e308]), _JUNK)
_UNIT = st.one_of(st.floats(0.1, 0.99), st.sampled_from([0.0, 1.0, 1.5]), _JUNK)
_COUNT = st.one_of(st.integers(1, 8), st.sampled_from([0, -1, 2**53 - 1]), _JUNK)
# Boundaries are held as a tuple, so they are drawn iterable.
_BOUNDS = st.one_of(st.lists(st.integers(1, 8), max_size=3), st.just("ab"),
                    st.lists(_JUNK, min_size=1, max_size=2))
_KIND = st.one_of(st.sampled_from(CYCLIC_KINDS),
                  st.sampled_from(["SAW", "tri", "", 5, None, ["TRI"]]))


_NON_COMPOSITE = st.one_of(
    st.builds(Fix, k=_RATE),
    st.builds(Step, k=_RATE, gamma=_UNIT, l=_COUNT),
    st.builds(NStep, k=_RATE, gamma=_UNIT, boundaries=_BOUNDS),
    st.builds(Exp, k=_RATE, gamma=_UNIT),
    st.builds(Inv, k=_RATE, gamma=_RATE, p=_RATE),
    st.builds(Poly, k=_RATE, p=_RATE, max_iter=st.one_of(st.none(), _COUNT)),
    st.builds(Cyclic, kind=_KIND, k0=_RATE, k1=_RATE, l=_COUNT,
              gamma=st.one_of(st.none(), _UNIT)),
)
_NON_POLICY = st.sampled_from(["x", None, 5, 0.1, {"type": "FIX", "k": 0.1}, [Fix(0.1)],
                               Segment(0, BUDGET, Fix(0.1))])
_NESTED = Composite((Segment(0, 3, Fix(0.1)), Segment(3, 10, Fix(0.2))))
_SEGMENT_POLICY = st.one_of(_NON_COMPOSITE, _NON_COMPOSITE, _NON_POLICY, st.just(_NESTED))


@st.composite
def _composites(draw):
    """Two segments splitting ``[0, BUDGET)``, or with a bound or an entry replaced by junk."""
    mid = draw(st.integers(1, BUDGET - 1))
    bounds = [0, mid, mid, BUDGET]
    if draw(st.booleans()):
        bounds[draw(st.integers(0, 3))] = draw(st.one_of(_JUNK, st.integers(-2, 2 * BUDGET)))
    segments = [Segment(bounds[0], bounds[1], draw(_SEGMENT_POLICY)),
                Segment(bounds[2], bounds[3], draw(_SEGMENT_POLICY))]
    if draw(st.integers(0, 9)) == 0:  # an entry that is not a Segment at all
        segments[draw(st.integers(0, 1))] = draw(st.one_of(_NON_COMPOSITE, _NON_POLICY))
    return Composite(tuple(segments))


_POLICIES = st.one_of(_NON_COMPOSITE, _NON_COMPOSITE, _composites(), _NON_POLICY)


# ---------------------------------------------------------------------------
# every entry point that takes a policy

def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


_ENTRY_POINTS = {
    "eval_lr": lambda p, db: [eval_lr(p, t, BUDGET) for t in range(BUDGET)],
    "lr_values": lambda p, db: lr_values(p, np.arange(BUDGET), BUDGET),
    "schedule_series": lambda p, db: schedule_series(p, BUDGET, 2),
    "validate_policy": lambda p, db: validate_policy(p, BUDGET),
    "check_policy_ordering": lambda p, db: check_policy_ordering([Fix(10.0), p], BUDGET),
    "train": lambda p, db: train(QUAD, p, budget_iters=BUDGET),
    "train_population": lambda p, db: train_population(
        BLOBS, [(Fix(0.1), 0), (p, 1), (p, 0)], budget_iters=BUDGET),
    "optimal_lr_trace": lambda p, db: optimal_lr_trace(QUAD, p, budget_iters=BUDGET),
    "grid_search": lambda p, db: grid_search(BLOBS, [Fix(0.1), p], budget_iters=BUDGET),
    "plateau_search": lambda p, db: plateau_search(BLOBS, [p], 0, budget_iters=BUDGET),
    "compose_staged_policy": lambda p, db: compose_staged_policy([(0, 2, Fix(0.1)),
                                                                  (2, BUDGET, p)]),
    "verify_policy": lambda p, db: verify_policy(p, BLOBS, 0.0, budget_iters=BUDGET, db=db),
}


# A range-invalid policy is evaluated as written, numpy's warnings and all.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(_POLICIES, st.sampled_from(sorted(_ENTRY_POINTS)))
@settings(max_examples=400, deadline=None)
def test_any_policy_like_value_is_taken_or_refused_with_one_error_before_any_write(policy, name):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "store.jsonl")
        db = PolicyDb(path)
        db.put(DbKey(BLOBS.task_id, BLOBS.model_id, "momentum"),
               make_record(Fix(0.05), accs=[(5, 0.9)], task_id=BLOBS.task_id,
                           model_id=BLOBS.model_id, optimizer="momentum"), stable=True)
        before = _read(path)
        try:
            _ENTRY_POINTS[name](policy, db)
        except LrKitError:
            assert _read(path) == before, (name, policy)


# ---------------------------------------------------------------------------
# what evaluation refuses, and what it still evaluates

@pytest.mark.parametrize("call,message", [
    (lambda: eval_lr("x", 0, 10), "not a policy: 'x'"),
    (lambda: schedule_series(Composite((Segment(0, 10, "x"),)), 10),
     "segment 0: not a policy: 'x'"),
    (lambda: lr_values(Fix(k="a"), np.arange(10), 10), "FIX field 'k' must be a number, got 'a'"),
    (lambda: eval_lr(Poly(0.1, 1.0, max_iter="5"), 0, 10),
     "POLY field 'max_iter' must be an integer, got '5'"),
    (lambda: eval_lr(Fix(k=np.int64(1)), 0, 10),
     "FIX field 'k' must be a number, got np.int64(1)"),
    (lambda: eval_lr(Fix(k=np.float32(0.5)), 0, 10),
     "FIX field 'k' must be a number, got np.float32(0.5)"),
    (lambda: eval_lr(Fix(k=True), 0, 10), "FIX field 'k' must be a number, got True"),
    (lambda: eval_lr(Cyclic("SAW", 0.1, 0.2, 5), 0, 10), "unknown cyclic kind 'SAW'"),
    (lambda: eval_lr(Cyclic("TRIEXP", 0.1, 0.2, 5), 0, 10),
     "TRIEXP field 'gamma' must be a number, got None"),
    (lambda: eval_lr(NStep(0.1, 0.5, "ab"), 0, 10),
     "NSTEP field 'boundaries' must be a list of integers, got ('a', 'b')"),
    (lambda: eval_lr(Composite((Segment(0, 5.0, Fix(0.1)),)), 0, 10),
     "segment 0: field 'end' must be an integer, got 5.0"),
    (lambda: lr_values(Composite((Fix(0.1),)), np.arange(3), 10),
     "segment 0: not a segment: Fix(k=0.1)"),
    (lambda: eval_lr(Fix(k=10**400), 0, 10), "FIX rate overflows the float range at t=0"),
    (lambda: lr_values(Fix(k=10**400), np.arange(0), 10), "FIX rate overflows the float range"),
])
def test_evaluation_refuses_a_malformed_value(call, message):
    with pytest.raises(ScheduleError) as info:
        call()
    assert str(info.value) == message


def test_a_range_invalid_policy_evaluates_as_written():
    assert validate_policy(Fix(k=-1.0), 3) != []
    assert lr_values(Fix(k=-1.0), np.arange(3), 3).tolist() == [-1.0, -1.0, -1.0]
    assert eval_lr(Exp(k=0.1, gamma=2.0), 3, 5) == 0.1 * 2.0 ** 3
    # A gamma the kind does not take is left out of its document, and ignored.
    assert eval_lr(Cyclic("TRI", 0.1, 0.2, 5, gamma=7.0), 5, 10) == eval_lr(
        Cyclic("TRI", 0.1, 0.2, 5), 5, 10)
    nested = Composite((Segment(0, 5, Composite((Segment(0, 5, Fix(0.3)),))),
                        Segment(5, 10, Fix(0.2))))
    assert "segment 0: nested composite segments are not allowed" in validate_policy(nested, 10)
    assert schedule_series(nested, 10, 5).lrs == (0.3, 0.2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("policy,message", [
    (Cyclic("TRI", 0.1, 0.2, 0), r"TRI rate is undefined at t=1: math domain error"),
    (Inv(0.1, -1.0, 0.5), r"INV rate is undefined at t=2: .*complex"),
    (Poly(0.1, -1.0, max_iter=3), r"POLY rate is undefined at t=3: 0\.0 cannot be raised"),
])
def test_a_formula_off_its_domain_names_its_first_iteration(policy, message):
    for evaluate in (lambda: lr_values(policy, np.arange(4), 4),
                     lambda: schedule_series(policy, 4)):
        with pytest.raises(ScheduleError, match=f"^{message}"):
            evaluate()


def test_a_composite_entry_that_is_not_a_segment_is_reported():
    assert validate_policy(Composite((Fix(0.1),)), 10) == ["segment 0: not a segment: Fix(k=0.1)"]
    with pytest.raises(ScheduleError, match=r"^invalid policy: segment 0: not a segment: 'x'$"):
        train(QUAD, Composite(("x",)), budget_iters=BUDGET)


def test_a_population_refuses_an_unhashable_policy_before_it_hashes_it():
    for call in (lambda: train(QUAD, Fix(k=[1]), budget_iters=BUDGET),
                 lambda: optimal_lr_trace(QUAD, Fix(k=[1]), budget_iters=BUDGET)):
        with pytest.raises(ScheduleError, match=r"^invalid policy: k must be a positive "
                                                r"finite number, got \[1\]$"):
            call()


def test_check_policy_names_every_problem_under_its_prefix():
    check_policy(Fix(0.1), 10)
    with pytest.raises(ScheduleError) as info:
        check_policy(Cyclic("SAW", 0.0, 0.06, 0, gamma=0.5), 10, "candidate 3 invalid")
    assert str(info.value) == ("candidate 3 invalid: unknown cyclic kind 'SAW'; k0 must be a "
                               "positive finite number, got 0.0; l must be an integer >= 1, "
                               "got 0; SAW does not take gamma")


def test_a_population_checks_each_distinct_policy_once(monkeypatch):
    import lrkit.training
    seen = []

    def recording(policy, total_iters, what="invalid policy"):
        seen.append(policy)
        check_policy(policy, total_iters, what)

    monkeypatch.setattr(lrkit.training, "check_policy", recording)
    train_population(QUAD, [(Fix(0.1), 0), (Fix(0.1), 1), (Fix(0.2), 0), (Fix(0.1), 2)],
                     budget_iters=BUDGET)
    assert seen == [Fix(0.1), Fix(0.2)]


# ---------------------------------------------------------------------------
# one default range probe for tune and verify

def test_tune_and_verify_probe_the_same_default_range(tmp_path, monkeypatch):
    import lrkit.tuning
    calls = []
    real = lrkit.tuning.lr_range_test

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(lrkit.tuning, "lr_range_test", recording)
    common = ["--task", "moons2(n=200)", "--budget", "100", "--seeds", "0,1",
              "--eval-every", "5"]
    assert main(["--stable-output", "--db", str(tmp_path / "tune.jsonl"), "tune",
                 "--strategy", "grid", *common]) == 0
    assert main(["--stable-output", "--db", str(tmp_path / "verify.jsonl"), "verify",
                 "--policy", '{"type": "FIX", "k": 0.001}', "--target", "0.99", *common]) == 1
    assert len(calls) == 2
    (tune_args, tune_kwargs), (verify_args, verify_kwargs) = calls
    assert tune_args[0].task_id == verify_args[0].task_id
    assert (tune_args[1:], tune_kwargs) == (verify_args[1:], verify_kwargs)


# ---------------------------------------------------------------------------
# what the store refuses to encode

@pytest.mark.parametrize("change", [
    {"seed": np.int64(1)}, {"budget_iters": np.int64(100)}, {"final_loss": "x"},
    {"final_loss": None}, {"series": [Metrics(np.int64(5), 1.0, 0.5)]},
], ids=["seed", "budget_iters", "final_loss-str", "final_loss-none", "iteration"])
def test_put_refuses_a_record_it_cannot_encode_before_writing(tmp_path, change):
    path = str(tmp_path / "store.jsonl")
    db = PolicyDb(path)
    db.put(DbKey("toy", "m", "sgd"), make_record(Fix(0.1), accs=[(5, 0.5)]))
    before = _read(path)
    record = replace(make_record(Fix(0.2), accs=[(5, 0.5)]), **change)
    with pytest.raises(DbError, match=r"^cannot store the record of task 'toy', seed "):
        db.put(DbKey("toy", "m", "sgd"), record)
    assert _read(path) == before
    assert len(db) == len(PolicyDb(path)) == 1
