"""Snapshot step-size estimates, bit for bit against ``estimate_reference``.

``optimal_lr_trace`` estimates every snapshot triple of a run in one pass
over the stacked snapshots, and ``estimate_optimal_lr`` is its one-triple
case.  Both must give the estimates of the per-triple reference loop,
with ``lr_opt`` compared by ``float.hex``: over random snapshot stacks
(1 to 300 parameters, scales from 1e-300 to 1e300, exactly singular
triples, signed zeros), over one-triple inputs in every layout, and over
whole training runs of each task, optimizer and stride.  The trace checks
nothing that ``train`` hands over; what it relies on is a property test of
``train`` itself.
"""
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import estimate_reference as ref
from lrkit import (Composite, Cyclic, Fix, PlateauConfig, PolicyLadderController, ScheduleSeries,
                   Segment, VerifyError, estimate_optimal_lr, load_task, optimal_lr_trace, train,
                   verify)

from _factories import make_record


def _key(est):
    lr_opt = None if est.lr_opt is None else est.lr_opt.hex()
    return type(est.t), est.t, est.applied_lr.hex(), lr_opt


def _outcome(call):
    """The estimates' keys, or the refusal's type and message."""
    try:
        return [_key(est) for est in call()]
    except VerifyError as exc:
        return type(exc), str(exc)


def _trace_of(snaps, lrs):
    """``optimal_lr_trace`` over a record holding ``snaps`` and the rates ``lrs``."""
    record = dataclasses.replace(make_record(Fix(0.1)), snapshots=snaps,
                                 lr_trace=ScheduleSeries(tuple(range(len(lrs))), tuple(lrs)))
    with mock.patch("lrkit.verify.train", return_value=record):
        return optimal_lr_trace(load_task("quad1d"), Fix(0.1), budget_iters=3)


def _check_trace(snaps, lrs):
    assert _outcome(lambda: _trace_of(snaps, lrs)) == \
        _outcome(lambda: ref.trace_estimates(snaps, lrs))


@st.composite
def _stacks(draw):
    """Snapshots at iterations 0, stride, 2 * stride, ... and a rate for each iteration.

    Rows are random at one scale, in floats or in small integers times a power
    of two, or repeat the row before (a zero step), or continue the two before
    it (a singular triple: ``2 * mid - prev - nxt`` is exactly zero); some
    entries are then set to signed zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p, stride = draw(st.integers(3, 8)), draw(st.integers(1, 300)), draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-300, 300))
    kinds = draw(st.lists(st.sampled_from(["random", "random", "repeat", "singular"]),
                          min_size=n, max_size=n))
    ints = draw(st.booleans())
    rows = []
    for i, kind in enumerate(kinds):
        if kind == "repeat" and i >= 1:
            rows.append(rows[-1].copy())
        elif kind == "singular" and i >= 2:
            rows.append(2.0 * rows[-1] - rows[-2])
        elif ints:
            rows.append(rng.integers(-1000, 1000, size=p) * 2.0 ** int(np.log2(scale)))
        else:
            rows.append(rng.standard_normal(p) * scale)
    stack = np.array(rows)
    zeros = rng.random(stack.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    stack[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    lrs = (10.0 ** rng.uniform(-6, 1, size=(n - 1) * stride + 1)).tolist()
    return [(i * stride, row) for i, row in enumerate(stack)], lrs


@given(_stacks())
@settings(max_examples=300, deadline=None)
def test_every_triple_of_a_stack_matches_the_reference_bitwise(stack):
    snaps, lrs = stack
    with np.errstate(over="ignore"):
        _check_trace(snaps, lrs)


def test_a_stack_at_the_float_extremes_matches_the_reference_bitwise():
    for scale in (1e-300, 5e-324, 1e300, 1.7e308):
        row = np.array([1.0, -0.5, 0.0, -0.0]) * scale
        snaps = [(0, row), (1, 0.5 * row), (2, -row), (3, row.copy()), (4, -row)]
        with np.errstate(over="ignore"):
            _check_trace(snaps, [0.1, 1e-300, 1e300, 0.5])


@st.composite
def _triples(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["0-d", "1-d", "C", "transposed", "reversed"]))
    shape = {"0-d": (), "1-d": (draw(st.integers(1, 300)),)}.get(
        layout, (draw(st.integers(1, 20)), draw(st.integers(1, 20))))
    scale = 10.0 ** draw(st.integers(-300, 300))
    xs = [np.asarray(rng.standard_normal(shape) * scale) for _ in range(3)]
    if draw(st.booleans()):
        xs[2] = 2.0 * xs[1] - xs[0]  # exactly singular: 2 * mid - prev - nxt is 0
    lay = {"transposed": lambda x: x.T, "reversed": lambda x: x[::-1]}.get(layout, lambda x: x)
    xs = [lay(x) for x in xs]
    return xs, float(10.0 ** rng.uniform(-6, 1)), draw(st.integers(0, 10**6))


@given(_triples())
@settings(max_examples=300, deadline=None)
def test_one_triple_in_any_layout_matches_the_reference_bitwise(triple):
    (p, m, n), lr, t = triple
    with np.errstate(over="ignore"):
        assert _key(estimate_optimal_lr(p, m, n, lr, t)) == \
            _key(ref.estimate_optimal_lr(p, m, n, lr, t))


def test_snapshots_laid_out_unlike_each_other_stay_aligned():
    # Mixed layouts are read in C order: the estimate is that of C-order copies,
    # and agrees with the reference to rounding (its two sums may visit two orders).
    rng = np.random.default_rng(3)
    p, m, n = (rng.standard_normal((7, 5)) for _ in range(3))
    for a, b, c in [(p, np.asfortranarray(m), n), (np.asfortranarray(p), np.asfortranarray(m), n),
                    (p[::-1][::-1], m[:, ::-1].copy()[:, ::-1], n.T.copy().T)]:
        got = estimate_optimal_lr(a, b, c, 0.1)
        assert _key(got) == _key(estimate_optimal_lr(p, m, n, 0.1))
        assert got.lr_opt == pytest.approx(ref.estimate_optimal_lr(a, b, c, 0.1).lr_opt, rel=1e-12)


# ---------------------------------------------------------------------------
# whole training runs

def _traced(monkeypatch, task, policy, **kwargs):
    """``optimal_lr_trace`` and the reference loop over the record it trained."""
    records = []

    def keep(*args, **kw):
        records.append(verify_train(*args, **kw))
        return records[-1]

    verify_train = verify.train
    monkeypatch.setattr("lrkit.verify.train", keep)
    got = _outcome(lambda: optimal_lr_trace(task, policy, **kwargs))
    rec, = records
    return got, _outcome(lambda: ref.trace_estimates(rec.snapshots, rec.lr_trace.lrs)), rec


@pytest.mark.parametrize("spec", ["landscape2d", "quad1d", "blobs2(n=200)", "moons2(n=200)"])
@pytest.mark.parametrize("optimizer", ["sgd", "momentum", "adam"])
@pytest.mark.parametrize("stride", [1, 3])
def test_a_run_matches_the_reference_loop_bitwise(monkeypatch, spec, optimizer, stride):
    policy = Cyclic("TRI", 0.01, 0.2, 20)
    got, want, rec = _traced(monkeypatch, load_task(spec), policy, budget_iters=90,
                             stride=stride, optimizer=optimizer)
    assert got == want
    assert len(got) == len(rec.snapshots) - 2 == 90 // stride - 1


def test_a_run_that_diverges_matches_the_reference_loop_bitwise(monkeypatch):
    got, want, rec = _traced(monkeypatch, load_task("quad1d(lam=2)"), Fix(k=1.2),
                             budget_iters=60, stride=1, optimizer="sgd")
    assert rec.diverged and got == want and len(got) == len(rec.snapshots) - 2 > 0


# ---------------------------------------------------------------------------
# what optimal_lr_trace takes from train unchecked

@st.composite
def _runs(draw):
    """A run of each task, optimizer and stride under a rate that holds, one that
    diverges at once, one that diverges after a drawn step, or a plateau ladder
    with a diverging rung."""
    task = load_task(draw(st.sampled_from(["quad1d", "landscape2d", "blobs2(n=200)",
                                           "moons2(n=200)"])))
    budget = draw(st.integers(3, 60))
    safe = Fix(k=draw(st.floats(2e-4, 0.5)))
    blowup = Fix(k=draw(st.sampled_from([1e3, 1e8, 1e300])))
    kind = draw(st.sampled_from(["holds", "early", "late", "ladder"]))
    if kind == "ladder":
        schedule = PolicyLadderController([blowup, safe, Fix(k=1e-4)], 1, budget,
                                          PlateauConfig(patience=draw(st.integers(1, 3))))
    elif kind == "late":
        at = draw(st.integers(1, budget - 1))
        schedule = Composite(segments=(Segment(0, at, safe), Segment(at, budget, blowup)))
    else:
        schedule = safe if kind == "holds" else blowup
    return task, schedule, dict(budget_iters=budget, seed=draw(st.integers(0, 3)),
                                optimizer=draw(st.sampled_from(["sgd", "momentum", "adam"])),
                                snapshot_stride=draw(st.integers(1, 3)))


@given(_runs())
@settings(max_examples=200, deadline=None)
def test_train_hands_over_finite_snapshots_of_one_shape_and_checked_rates(run):
    # optimal_lr_trace stacks a run's snapshots and estimates every triple
    # unchecked: each snapshot has the task's shape and is finite, the
    # snapshots sit every stride steps, and the rate applied after each
    # snapshot that has a step after it is a positive, finite float.
    task, schedule, kwargs = run
    with np.errstate(over="ignore", invalid="ignore"):
        rec = train(task, schedule, **kwargs)
    stride, lrs = kwargs["snapshot_stride"], rec.lr_trace.lrs
    ts = [t for t, _ in rec.snapshots]
    assert ts == list(range(0, stride * len(ts), stride)) and ts[-1] <= len(lrs)
    for _, theta in rec.snapshots:
        assert theta.shape == (task.param_len,) and np.isfinite(theta).all()
    for t in ts:
        if t < len(lrs):
            assert type(lrs[t]) is float and 0.0 < lrs[t] < math.inf
