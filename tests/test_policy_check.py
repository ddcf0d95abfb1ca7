"""One rule for policies at every library entry point (``lrkit.schedules``).

Evaluation (``eval_lr``, ``lr_values``, ``schedule_series``,
``check_policy_ordering``), training, searches, ladders and composition
refuse any policy ``validate_policy`` reports, with ``check_policy``'s one
``ScheduleError``, before they train or write; a valid policy evaluates bit
for bit as its one-point formulas do.  ``policy_to_doc`` and
``serialize_policy`` refuse a malformed value (not a policy, a COMPOSITE
segment holding one, a field a policy document could not hold, or an
unknown cyclic kind) with ``PolicyFormatError``, and write a range-invalid
policy as it is.
"""
import math
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrkit import (CYCLIC_KINDS, Composite, Cyclic, DbError, DbKey, Exp, Fix, Inv, LrKitError,
                   Metrics, NStep, Poly, PolicyDb, PolicyFormatError, ScheduleError, Segment,
                   Step, check_policy, compose_staged_policy, eval_lr, grid_search, load_task,
                   lr_values, optimal_lr_trace, plateau_search, policy_from_doc, policy_to_doc,
                   quad1d, schedule_series, serialize_policy, train, train_population,
                   validate_policy, verify_policy)
from lrkit.cli import main
from lrkit.tuning import check_policy_ordering

from _factories import make_record
from sched_scalar import scalar_lr

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

# Policies valid over any horizon up to 60, to draw beside the values above.
_VALID_INNER = st.one_of(
    st.builds(Fix, k=st.floats(1e-3, 1.0)),
    st.builds(Step, k=st.floats(1e-3, 1.0), gamma=st.floats(0.1, 0.99), l=st.integers(1, 8)),
    st.builds(NStep, k=st.floats(1e-3, 1.0), gamma=st.floats(0.1, 0.99),
              boundaries=st.lists(st.integers(1, 8), min_size=1, max_size=3,
                                  unique=True).map(sorted)),
    st.builds(Exp, k=st.floats(1e-3, 1.0), gamma=st.floats(0.1, 0.99)),
    st.builds(Inv, k=st.floats(1e-3, 1.0), gamma=st.floats(1e-3, 1.0), p=st.floats(0.1, 3.0)),
    st.builds(Poly, k=st.floats(1e-3, 1.0), p=st.floats(0.1, 3.0),
              max_iter=st.one_of(st.none(), st.integers(60, 100))),
    st.sampled_from(CYCLIC_KINDS).flatmap(lambda kind: st.builds(
        Cyclic, kind=st.just(kind), k0=st.floats(1e-3, 1.0), k1=st.floats(1e-3, 1.0),
        l=st.integers(1, 8), gamma=st.floats(0.5, 0.99) if "EXP" in kind else st.none())),
)


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
    "policy_to_doc": lambda p, db: policy_to_doc(p),
    "serialize_policy": lambda p, db: serialize_policy(p),
}


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
# what evaluation refuses, and what it evaluates

# Each evaluation entry point over every iteration of a horizon: its rates, or
# None for the ordering check, which returns nothing.
_EVALUATIONS = {
    "eval_lr": lambda p, total: [eval_lr(p, t, total) for t in range(total)],
    "lr_values": lambda p, total: lr_values(p, np.arange(total), total).tolist(),
    "schedule_series": lambda p, total: list(schedule_series(p, total).lrs),
    "check_policy_ordering": lambda p, total: check_policy_ordering([p, p], total),
}


def _assert_refused(policy, total, message):
    for name, evaluate in _EVALUATIONS.items():
        with pytest.raises(ScheduleError) as info:
            evaluate(policy, total)
        assert str(info.value) == message, name


@given(st.one_of(_POLICIES, _VALID_INNER), st.one_of(st.just(BUDGET), st.integers(1, 40)),
       st.sampled_from(sorted(_EVALUATIONS)))
@settings(max_examples=600, deadline=None)
def test_evaluation_refuses_exactly_what_validation_reports(policy, total, name):
    if problems := validate_policy(policy, total):
        with pytest.raises(ScheduleError) as info:
            _EVALUATIONS[name](policy, total)
        assert str(info.value) == "invalid policy: " + "; ".join(problems)
    elif (got := _EVALUATIONS[name](policy, total)) is not None:
        assert list(map(float.hex, got)) == [
            float(scalar_lr(policy, t, total)).hex() for t in range(total)]


@given(st.integers(1, 60), st.data())
@settings(max_examples=300, deadline=None)
def test_a_valid_composite_gives_each_iteration_to_the_segment_holding_it(total, data):
    cuts = data.draw(st.lists(st.integers(1, total - 1), max_size=7, unique=True)
                     if total > 1 else st.just([]))
    edges = [0, *sorted(cuts), total]
    composite = Composite(tuple(Segment(a, b, data.draw(_VALID_INNER))
                                for a, b in zip(edges, edges[1:])))
    assert validate_policy(composite, total) == []
    ts = data.draw(st.permutations(range(total))) + data.draw(
        st.lists(st.integers(0, total - 1), max_size=10))
    got = lr_values(composite, np.array(ts), total)
    assert list(map(float.hex, got)) == [float(scalar_lr(composite, t, total)).hex() for t in ts]


@pytest.mark.parametrize("make,message", [
    (lambda: "x", "not a policy: 'x'"),
    (lambda: Composite((Segment(0, 10, "x"),)), "segment 0: not a policy: 'x'"),
    (lambda: Fix(k="a"), "FIX field 'k' must be a number, got 'a'"),
    (lambda: Poly(0.1, 1.0, max_iter="5"), "POLY field 'max_iter' must be an integer, got '5'"),
    (lambda: Fix(k=np.int64(1)), "FIX field 'k' must be a number, got np.int64(1)"),
    (lambda: Fix(k=np.float32(0.5)), "FIX field 'k' must be a number, got np.float32(0.5)"),
    (lambda: Fix(k=True), "FIX field 'k' must be a number, got True"),
    (lambda: Cyclic("SAW", 0.1, 0.2, 5), "unknown cyclic kind 'SAW'"),
    (lambda: Cyclic("TRIEXP", 0.1, 0.2, 5), "TRIEXP field 'gamma' must be a number, got None"),
    (lambda: NStep(0.1, 0.5, "ab"),
     "NSTEP field 'boundaries' must be a list of integers, got ('a', 'b')"),
    (lambda: Composite((Segment(0, 5.0, Fix(0.1)),)),
     "segment 0: field 'end' must be an integer, got 5.0"),
    (lambda: Composite((Fix(0.1),)), "segment 0: not a segment: Fix(k=0.1)"),
])
def test_evaluation_refuses_a_malformed_value(make, message):
    # Evaluation words it as validation does; a document keeps its own wording.
    policy = make()
    _assert_refused(policy, 10, "invalid policy: " + "; ".join(validate_policy(policy, 10)))
    with pytest.raises(PolicyFormatError) as info:
        policy_to_doc(policy)
    assert str(info.value) == message


def test_a_range_invalid_policy_is_refused_by_evaluation():
    with pytest.raises(ScheduleError, match=r"^invalid policy: not a policy: 'x'$"):
        eval_lr("x", 0, 10)
    # Before any sample is allocated: 2**52 of them would not fit.
    with pytest.raises(ScheduleError, match=r"^invalid policy: k must be a positive finite "):
        schedule_series(Fix(k=-1.0), 2**52)
    _assert_refused(Fix(k="a"), 10, "invalid policy: k must be a positive finite number, got 'a'")
    nested = Composite((Segment(0, 5, Composite((Segment(0, 5, Fix(0.3)),))),
                        Segment(5, 10, Fix(0.2))))
    for policy, total, problem in (
            (Fix(k=-1.0), 3, "k must be a positive finite number, got -1.0"),
            (Exp(k=0.1, gamma=2.0), 5, "gamma must lie in (0, 1), got 2.0"),
            (Cyclic("TRI", 0.1, 0.2, 5, gamma=7.0), 10, "TRI does not take gamma"),
            (nested, 10, "segment 0: nested composite segments are not allowed"),
            (Poly(0.1, 1.0, max_iter=5), 10, "max_iter=5 is shorter than the horizon: "
                                            "evaluation past it is an error (need >= 9)"),
            (Composite((Segment(0, 10, Fix(0.1)), Segment(12, 20, Fix(0.1)))), 20,
             "gap between segment ending at 10 and segment starting at 12")):
        _assert_refused(policy, total, f"invalid policy: {problem}")


def test_a_rate_past_the_float_range_is_refused_by_evaluation():
    # An int past the float range is refused as a rate, even where no sample is asked for.
    problem = f"invalid policy: k must be a positive finite number, got {10**400}"
    _assert_refused(Fix(k=10**400), 3, problem)
    with pytest.raises(ScheduleError) as info:
        eval_lr(Fix(k=10**400), 0, 10)
    assert str(info.value) == problem
    with pytest.raises(ScheduleError) as info:
        lr_values(Fix(k=10**400), np.arange(0), 10)
    assert str(info.value) == problem


@pytest.mark.parametrize("policy,problem", [
    (Cyclic("TRI", 0.1, 0.2, 0), "l must be an integer >= 1, got 0"),
    (Inv(0.1, -1.0, 0.5), "gamma must be a positive finite number, got -1.0"),
    (Poly(0.1, -1.0, max_iter=3), "p must be a positive finite number, got -1.0"),
], ids=["TRI", "INV", "POLY"])
def test_a_policy_off_its_formulas_domain_is_refused_before_evaluation(policy, problem):
    # Each formula would fail inside the horizon: a zero half-cycle divides by
    # 0, a negative INV base takes a fractional power, 0.0 a negative one.
    _assert_refused(policy, 4, f"invalid policy: {problem}")


@pytest.mark.parametrize("call,message", [
    (lambda: policy_to_doc(Composite(("x",))), "segment 0: not a segment: 'x'"),
    (lambda: serialize_policy(Fix(k=np.int64(1))),
     "FIX field 'k' must be a number, got np.int64(1)"),
    (lambda: policy_to_doc(Cyclic("SAW", 0.1, 0.2, 5)), "unknown cyclic kind 'SAW'"),
    (lambda: serialize_policy(Composite((Segment(0, 5, Cyclic("SAW", 0.1, 0.2, 5)),))),
     "segment 0: unknown cyclic kind 'SAW'"),
    (lambda: policy_to_doc("x"), "not a policy: 'x'"),
])
def test_a_policy_document_refuses_a_malformed_value_as_evaluation_words_it(call, message):
    with pytest.raises(PolicyFormatError) as info:
        call()
    assert str(info.value) == message


def test_a_range_invalid_or_wide_policy_is_written_as_it_is():
    for policy in (Fix(k=-1.0), Step(0.1, 1.5, 2**53), NStep(0.1, 0.5, (5, 2)),
                   Cyclic("TRI", 0.0, 0.2, 2**60), Poly(0.1, 1.0, max_iter=2**64)):
        assert policy_from_doc(policy_to_doc(policy)) == policy
    assert serialize_policy(Step(0.1, 0.5, 2**53)) == (
        '{"type": "STEP", "k": 0.1, "gamma": 0.5, "l": 9007199254740992}')


def test_a_composite_entry_that_is_not_a_segment_is_reported():
    assert validate_policy(Composite((Fix(0.1),)), 10) == ["segment 0: not a segment: Fix(k=0.1)"]
    with pytest.raises(ScheduleError, match=r"^invalid policy: segment 0: not a segment: 'x'$"):
        train(QUAD, Composite(("x",)), budget_iters=BUDGET)


def test_a_wide_integer_is_reported_beside_every_other_problem():
    problems = ["k must be a positive finite number, got -1.0",
                f"l must be below 2**53, got {2**60}"]
    assert validate_policy(Step(-1.0, 0.5, 2**60), 10) == problems
    _assert_refused(Step(-1.0, 0.5, 2**60), 10, "invalid policy: " + "; ".join(problems))


def test_a_composite_entry_that_is_not_a_segment_is_reported_beside_the_others():
    comp = Composite((Segment(0, 5, Fix(-1.0)), "x"))
    problems = ["segment 0: k must be a positive finite number, got -1.0",
                "segment 1: not a segment: 'x'"]
    assert validate_policy(comp, 10) == problems
    _assert_refused(comp, 10, "invalid policy: " + "; ".join(problems))


@pytest.mark.parametrize("kind", ["FIX", "STEP", "COMPOSITE"])
def test_a_cyclic_kind_that_names_another_policy_type_is_unknown(kind):
    # Another type's tag is a key of the document table, but no waveform.
    policy, problem = Cyclic(kind, 0.1, 0.2, 5), f"unknown cyclic kind {kind!r}"
    assert validate_policy(policy, 10) == [problem]
    _assert_refused(policy, 10, "invalid policy: " + problem)
    with pytest.raises(PolicyFormatError) as info:
        policy_to_doc(policy)
    assert str(info.value) == problem


def test_a_composite_without_segments_is_reported_and_refused():
    problem = "composite must have at least one segment"
    assert validate_policy(Composite(()), 10) == [problem]
    _assert_refused(Composite(()), 10, "invalid policy: " + problem)


def test_a_composite_document_refuses_a_segment_that_is_not_an_object():
    with pytest.raises(PolicyFormatError) as info:
        policy_from_doc({"type": "COMPOSITE", "segments": [5]})
    assert str(info.value) == "COMPOSITE segment 0 must be an object"


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
