"""Optimizer update-rule tests.

Single-step values and 3-step traces are checked against straight-line
hand computations in plain Python floats.  Momentum with a zero
coefficient must match SGD bitwise, and Adam's bias-corrected first
step has a closed-form magnitude eta / (1 + eps / |grad|) that the
property tests pin down exactly.
"""
import math
import re

import numpy as np
import pytest

from lrkit import (
    OPTIMIZER_KINDS,
    Fix,
    OptimizerError,
    PolicyDb,
    TaskError,
    VerifyError,
    adam_step,
    grid_search,
    load_task,
    lr_range_test,
    make_optimizer,
    momentum_step,
    optimal_lr_trace,
    plateau_search,
    quad1d,
    random_search,
    sgd_step,
    train,
    train_population,
    verify_policy,
)


def test_sgd_examples():
    assert sgd_step(np.array([1.0, 2.0]), np.array([0.0, 0.0]), 0.1).tolist() == [1.0, 2.0]
    assert sgd_step(np.array([1.0]), np.array([2.0]), 0.5).tolist() == [0.0]
    got = sgd_step(np.array([0.3, -0.1]), np.array([1.5, -2.0]), 0.01)
    assert got == pytest.approx([0.285, -0.08], rel=1e-12)


def test_momentum_examples():
    state = make_optimizer("momentum", 1)
    theta, state = momentum_step(np.array([1.0]), state, np.array([2.0]), 0.5)
    assert theta.tolist() == [0.0]
    assert state.v.tolist() == [-1.0]

    # Pure inertia: zero gradient keeps moving by momentum * v.
    theta, state = momentum_step(np.array([0.0]), state, np.array([0.0]), 0.1)
    assert theta == pytest.approx([-0.9], rel=1e-12)
    assert state.v == pytest.approx([-0.9], rel=1e-12)

    fresh = make_optimizer("momentum", 1)
    fresh = fresh.__class__(kind="momentum", v=np.array([-1.0]), momentum=0.9)
    theta, fresh = momentum_step(np.array([0.0]), fresh, np.array([1.0]), 0.1)
    assert fresh.v == pytest.approx([-1.0], rel=1e-12)
    assert theta == pytest.approx([-1.0], rel=1e-12)


def test_adam_first_step_value():
    state = make_optimizer("adam", 1)
    eta = 0.001
    theta, state = adam_step(np.array([0.0]), state, np.array([1.0]), eta)
    assert state.step == 1
    assert theta[0] == pytest.approx(-eta / (1.0 + 1e-8), rel=1e-12)
    assert theta[0] == pytest.approx(-0.000999999995, rel=1e-8)


def test_adam_zero_gradient_keeps_params():
    state = make_optimizer("adam", 2)
    theta, state = adam_step(np.array([0.5, -0.5]), state, np.zeros(2), 0.01)
    assert theta.tolist() == [0.5, -0.5]
    assert state.m.tolist() == [0.0, 0.0]
    assert state.v.tolist() == [0.0, 0.0]


def _adam_reference_trace(theta, grads, eta, b1=0.9, b2=0.999, eps=1e-8):
    """Straight-line scalar reference for a 1-parameter Adam trace."""
    m = 0.0
    v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        mhat = m / (1.0 - b1 ** t)
        vhat = v / (1.0 - b2 ** t)
        theta = theta - eta * mhat / (math.sqrt(vhat) + eps)
        out.append(theta)
    return out


def test_adam_three_step_trace():
    grads = [1.0, -0.5, 0.25]
    want = _adam_reference_trace(0.2, grads, 0.01)
    state = make_optimizer("adam", 1)
    theta = np.array([0.2])
    got = []
    for g in grads:
        theta, state = adam_step(theta, state, np.array([g]), 0.01)
        got.append(theta[0])
    assert got == pytest.approx(want, rel=1e-12)
    assert state.step == 3


def test_momentum_three_step_trace():
    mu, eta = 0.9, 0.05
    v = 0.0
    want = []
    th = 1.0
    for g in [2.0, -1.0, 0.5]:
        v = mu * v - eta * g
        th = th + v
        want.append(th)
    state = make_optimizer("momentum", 1)
    theta = np.array([1.0])
    got = []
    for g in [2.0, -1.0, 0.5]:
        theta, state = momentum_step(theta, state, np.array([g]), eta)
        got.append(theta[0])
    assert got == pytest.approx(want, rel=1e-12)


def test_momentum_zero_coefficient_is_sgd_bitwise():
    rng = np.random.default_rng(123)
    theta_m = rng.normal(size=5)
    theta_s = theta_m.copy()
    state = make_optimizer("momentum", 5, momentum=0.0)
    for _ in range(1000):
        grad = rng.normal(size=5)
        lr = float(abs(rng.normal()) + 1e-4)
        theta_s = sgd_step(theta_s, grad, lr)
        theta_m, state = momentum_step(theta_m, state, grad, lr)
        assert np.array_equal(theta_s, theta_m)


def test_adam_first_step_magnitude_property():
    # Closed form: |delta| = eta / (1 + eps / |c|) for a fresh state,
    # so |delta| < eta always, and |delta| >= eta * (1 - 1e-6) once
    # |c| >= 1e-2 (eps = 1e-8 makes eps/|c| <= 1e-6 there).
    rng = np.random.default_rng(7)
    eta = 0.003
    for _ in range(100):
        c = float(10.0 ** rng.uniform(-6, 3)) * float(rng.choice([-1.0, 1.0]))
        state = make_optimizer("adam", 1)
        theta, _ = adam_step(np.array([0.0]), state, np.array([c]), eta)
        delta = abs(theta[0])
        assert delta == pytest.approx(eta / (1.0 + 1e-8 / abs(c)), rel=1e-12)
        assert delta <= eta
        if abs(c) >= 1e-2:
            assert delta >= eta * (1.0 - 1e-6)


def test_adam_small_gradient_step_falls_short_of_coarse_bound():
    # At |grad| = 1e-3 the exact first-step magnitude is eta/(1+1e-5),
    # which sits below eta*(1 - 1e-6); the closed form above is the
    # correct statement of the first-step property.
    eta = 0.01
    state = make_optimizer("adam", 1)
    theta, _ = adam_step(np.array([0.0]), state, np.array([1e-3]), eta)
    delta = abs(theta[0])
    assert delta == pytest.approx(eta / (1.0 + 1e-5), rel=1e-12)
    assert delta < eta * (1.0 - 1e-6)


def test_sgd_lr_linearity():
    rng = np.random.default_rng(11)
    grad = rng.normal(size=4)
    # At theta = 0 the delta is -fl(lr * grad) with no absorption, and
    # power-of-two scaling commutes with rounding, so equality is exact.
    zero = np.zeros(4)
    base = sgd_step(zero, grad, 0.01)
    for c in (2.0, 0.5, 8.0):
        assert np.array_equal(sgd_step(zero, grad, c * 0.01), c * base)
    # Away from zero, subtracting theta back reintroduces rounding at
    # theta's magnitude; linearity then holds to a few ulp.
    theta = rng.normal(size=4)
    base = sgd_step(theta, grad, 0.01) - theta
    for c in (2.0, 3.0, 0.7, 11.0):
        scaled = sgd_step(theta, grad, c * 0.01) - theta
        assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-15)


def test_make_optimizer_shapes_and_defaults():
    adam = make_optimizer("adam", 3)
    assert adam.step == 0
    assert adam.m.tolist() == [0.0, 0.0, 0.0]
    assert adam.v.tolist() == [0.0, 0.0, 0.0]
    assert (adam.beta1, adam.beta2, adam.eps) == (0.9, 0.999, 1e-8)
    sgd = make_optimizer("sgd", 5)
    assert sgd.v is None and sgd.m is None
    mom = make_optimizer("momentum", 2)
    assert mom.momentum == 0.9 and mom.v.tolist() == [0.0, 0.0]


def test_make_optimizer_rejects_bad_hyperparams():
    with pytest.raises(OptimizerError):
        make_optimizer("rmsprop", 2)
    with pytest.raises(OptimizerError):
        make_optimizer("momentum", 2, momentum=1.0)
    with pytest.raises(OptimizerError):
        make_optimizer("adam", 2, beta1=0.0)
    with pytest.raises(OptimizerError):
        make_optimizer("adam", 2, beta2=1.0)
    with pytest.raises(OptimizerError):
        make_optimizer("adam", 2, eps=0.0)
    with pytest.raises(OptimizerError):
        make_optimizer("sgd", 0)


@pytest.mark.parametrize("bad", [None, 1, "rmsprop"])
def test_every_entry_point_refuses_an_unknown_optimizer_with_one_message(tmp_path, bad):
    message = f"^{re.escape(f'unknown optimizer {bad!r}; expected one of {OPTIMIZER_KINDS}')}$"
    with pytest.raises(OptimizerError, match=message):
        make_optimizer(bad, 2)
    with pytest.raises(TaskError, match=message):
        train_population(quad1d(), [(Fix(k=0.1), 0)], budget_iters=5, optimizer=bad)
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    with pytest.raises(VerifyError, match=message):
        verify_policy(Fix(k=0.1), load_task("blobs2(n=40)"), 0.5, budget_iters=5, db=db,
                      optimizer=bad)
    assert len(db) == 0


_HUGE = 2**40  # a budget whose rate table cannot be allocated


@pytest.mark.parametrize("entry", [
    lambda: train(quad1d(), Fix(k=0.1), budget_iters=_HUGE, optimizer="nope"),
    lambda: grid_search(quad1d(), [Fix(k=0.1)], budget_iters=_HUGE, optimizer="nope"),
    lambda: random_search(quad1d(), (0.01, 0.1), 2, budget_iters=_HUGE, optimizer="nope"),
    lambda: lr_range_test(load_task("blobs2(n=40)"), 0.01, 1.0, 4, [_HUGE], optimizer="nope"),
    lambda: optimal_lr_trace(quad1d(), Fix(k=0.1), budget_iters=_HUGE, optimizer="nope"),
    lambda: plateau_search(quad1d(), [Fix(k=0.1), Fix(k=0.01)], 0, budget_iters=_HUGE,
                           optimizer="nope"),
], ids=["train", "grid_search", "random_search", "lr_range_test", "optimal_lr_trace",
        "plateau_search"])
def test_an_unknown_optimizer_is_refused_before_the_budget_is_allocated(entry):
    # The rate table of 2**40 steps would not fit: only a check made before it names the optimizer.
    message = f"unknown optimizer 'nope'; expected one of {OPTIMIZER_KINDS}"
    with pytest.raises(TaskError, match=f"^{re.escape(message)}$"):
        entry()


def test_an_optimizer_name_is_read_in_any_case():
    assert make_optimizer("ADAM", 2).kind == "adam"
    assert train(quad1d(), Fix(k=0.1), budget_iters=5, optimizer="Sgd").optimizer == "sgd"


def test_step_input_validation():
    with pytest.raises(OptimizerError):
        sgd_step(np.zeros(2), np.zeros(3), 0.1)
    with pytest.raises(OptimizerError):
        sgd_step(np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(OptimizerError):
        sgd_step(np.zeros(2), np.zeros(2), float("nan"))
    with pytest.raises(OptimizerError):
        sgd_step(np.array([float("inf"), 0.0]), np.zeros(2), 0.1)
    with pytest.raises(OptimizerError):
        sgd_step(np.zeros(2), np.array([float("nan"), 0.0]), 0.1)


def test_steps_do_not_mutate_inputs():
    theta = np.array([1.0, 2.0])
    grad = np.array([0.5, -0.5])
    state = make_optimizer("momentum", 2)
    momentum_step(theta, state, grad, 0.1)
    assert theta.tolist() == [1.0, 2.0]
    assert grad.tolist() == [0.5, -0.5]
    assert state.v.tolist() == [0.0, 0.0]
    astate = make_optimizer("adam", 2)
    adam_step(theta, astate, grad, 0.1)
    assert astate.m.tolist() == [0.0, 0.0]
    assert astate.step == 0
