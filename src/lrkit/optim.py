"""Optimizer update rules over float64 parameter vectors and matrices.

Each rule is one array kernel, ``kernel(theta, slots, grad, lr, t)``,
that works on a single vector (scalar ``lr``) and on a ``(K, P)``
population of vectors (``lr`` a ``(K, 1)`` column) alike: ``slots`` is
the tuple of accumulators (none for sgd, ``(v,)`` for momentum,
``(m, v)`` for adam) and ``t`` the 1-based count of completed steps.
Kernels are pure and check nothing; the training engine steps every row
of a population through them.  ``sgd_step``/``momentum_step``/
``adam_step`` are the checked single-vector entry points over an
:class:`OptimizerState`, and return fresh arrays, which keeps trials
replayable and lets callers snapshot parameters without defensive copies.

Conventions, with g the gradient of the loss at the current params:

* sgd:       theta' = theta - lr * g
* momentum:  v' = mu * v - lr * g;  theta' = theta + v'
* adam:      m' = b1 * m + (1 - b1) * g
             v' = b2 * v + (1 - b2) * g**2
             theta' = theta - lr * mhat / (sqrt(vhat) + eps)
  with mhat = m' / (1 - b1**t), vhat = v' / (1 - b2**t) and t the
  1-based count of completed steps.  eps sits outside the square root,
  so a fresh-state step moves every coordinate by almost exactly lr.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import OPEN_UNIT, POSITIVE, LrKitError, OptimizerError, allocating, check_count, check_real

__all__ = ["OptimizerState", "OPTIMIZER_KINDS", "KERNELS", "check_optimizer", "make_optimizer",
           "sgd_kernel", "momentum_kernel", "adam_kernel",
           "sgd_step", "momentum_step", "adam_step"]

OPTIMIZER_KINDS = ("sgd", "momentum", "adam")


def check_optimizer(error: type[LrKitError], optimizer) -> str:
    """The kind of :data:`OPTIMIZER_KINDS` a ``str`` names in any case, lowercased; else ``error``."""
    if not (isinstance(optimizer, str) and optimizer.lower() in OPTIMIZER_KINDS):
        raise error(f"unknown optimizer {optimizer!r}; expected one of {OPTIMIZER_KINDS}")
    return optimizer.lower()


@dataclass(frozen=True)
class OptimizerState:
    """Accumulator state; sgd carries none, momentum one, adam two."""

    kind: str
    step: int = 0
    v: np.ndarray | None = None
    m: np.ndarray | None = None
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def make_optimizer(kind: str, param_len: int, *, momentum: float = 0.9,
                   beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> OptimizerState:
    """Fresh state for ``kind`` over ``param_len`` parameters."""
    kind = check_optimizer(OptimizerError, kind)
    check_count(OptimizerError, "param_len", param_len)
    momentum = check_real(OptimizerError, "momentum", momentum, lambda v: 0.0 <= v < 1.0, "in [0, 1)")
    beta1 = check_real(OptimizerError, "beta1", beta1, *OPEN_UNIT)
    beta2 = check_real(OptimizerError, "beta2", beta2, *OPEN_UNIT)
    eps = check_real(OptimizerError, "eps", eps, *POSITIVE)
    if kind == "sgd":
        return OptimizerState(kind=kind)
    with allocating(OptimizerError, "param_len", param_len):
        if kind == "momentum":
            return OptimizerState(kind=kind, v=np.zeros(param_len), momentum=momentum)
        return OptimizerState(kind=kind, v=np.zeros(param_len), m=np.zeros(param_len),
                              beta1=beta1, beta2=beta2, eps=eps)


def _check_inputs(theta: np.ndarray, grad: np.ndarray, lr: float):
    lr = check_real(OptimizerError, "lr", lr, *POSITIVE)
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if theta.shape != grad.shape:
        raise OptimizerError(f"shape mismatch: params {theta.shape} vs gradient {grad.shape}")
    if not np.isfinite(theta).all() or not np.isfinite(grad).all():
        raise OptimizerError("non-finite parameters or gradient")
    return theta, grad, lr


# momentum and adam update the temporaries they make in place, in the
# operation order of the formulas above; no kernel writes an input.

def sgd_kernel(theta, slots, grad, lr, t):
    return theta - lr * grad, slots


def momentum_kernel(theta, slots, grad, lr, t, *, momentum: float = 0.9):
    v = momentum * slots[0]
    v -= lr * grad
    return theta + v, (v,)


def adam_kernel(theta, slots, grad, lr, t, *, beta1: float = 0.9, beta2: float = 0.999,
                eps: float = 1e-8):
    m = beta1 * slots[0]
    m += (1.0 - beta1) * grad
    v = beta2 * slots[1]
    v += (1.0 - beta2) * grad * grad
    step = lr * (m / (1.0 - beta1 ** t))
    step /= np.sqrt(v / (1.0 - beta2 ** t)) + eps
    return np.subtract(theta, step, out=step), (m, v)


# kind -> (number of accumulator slots, kernel at the default hyperparameters)
KERNELS = {"sgd": (0, sgd_kernel), "momentum": (1, momentum_kernel), "adam": (2, adam_kernel)}


def sgd_step(theta: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    theta, grad, lr = _check_inputs(theta, grad, lr)
    return sgd_kernel(theta, (), grad, lr, 1)[0]


def momentum_step(theta: np.ndarray, state: OptimizerState, grad: np.ndarray,
                  lr: float) -> tuple[np.ndarray, OptimizerState]:
    theta, grad, lr = _check_inputs(theta, grad, lr)
    t = state.step + 1
    theta, (v,) = momentum_kernel(theta, (state.v,), grad, lr, t, momentum=state.momentum)
    return theta, replace(state, v=v, step=t)


def adam_step(theta: np.ndarray, state: OptimizerState, grad: np.ndarray,
              lr: float) -> tuple[np.ndarray, OptimizerState]:
    theta, grad, lr = _check_inputs(theta, grad, lr)
    t = state.step + 1
    theta, (m, v) = adam_kernel(theta, (state.m, state.v), grad, lr, t,
                                beta1=state.beta1, beta2=state.beta2, eps=state.eps)
    return theta, replace(state, m=m, v=v, step=t)

