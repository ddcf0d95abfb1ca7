"""Bit reference for one training step.

The sigmoid, the ``np.mean`` heads and the three optimizer kernels that
lrkit used before they were rewritten to cut per-call overhead (one
``exp`` in the sigmoid, ``sum / n`` means, kernels that work in place
on their own temporaries), copied verbatim.  The rewritten code must
equal these bit for bit, so tests compare ``tobytes()`` of both, NaN
payloads included, and whole trial records trained with these heads
and kernels swapped in.
"""
import numpy as np

from lrkit.tasks import _Head


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce(Z: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # per-row mean of log(1 + exp(z)) - y*z, computed stably
    z = Z[..., 0]
    return np.mean(np.logaddexp(0.0, z) - ys * z, axis=-1)


def bce_and_dZ(Z: np.ndarray, ys: np.ndarray):
    return bce(Z, ys), ((sigmoid(Z[..., 0]) - ys) / ys.shape[-1])[..., None]


binary_head = _Head(
    loss=bce, loss_and_dZ=bce_and_dZ,
    top1=lambda Z, ys: np.mean((Z[..., 0] > 0.0) == (ys > 0.5), axis=-1))


def softmax_ce(Z: np.ndarray, ys: np.ndarray):
    """Per-row mean cross-entropy, shifted logits, their log-normalizer, labels as indices."""
    label = np.broadcast_to(ys, Z.shape[:-1])[..., None]
    Zs = Z - Z.max(axis=-1, keepdims=True)
    logZ = np.log(np.exp(Zs).sum(axis=-1))
    return np.mean(logZ - np.take_along_axis(Zs, label, axis=-1)[..., 0], axis=-1), Zs, logZ, label


def softmax_loss_and_dZ(Z: np.ndarray, ys: np.ndarray):
    loss, Zs, logZ, label = softmax_ce(Z, ys)
    dZ = np.exp(Zs - logZ[..., None])
    np.put_along_axis(dZ, label, np.take_along_axis(dZ, label, axis=-1) - 1.0, axis=-1)
    dZ /= ys.shape[-1]
    return loss, dZ


softmax_head = _Head(
    loss=lambda Z, ys: softmax_ce(Z, ys)[0], loss_and_dZ=softmax_loss_and_dZ,
    top1=lambda Z, ys: np.mean(Z.argmax(axis=-1) == ys, axis=-1))


def sgd_kernel(theta, slots, grad, lr, t):
    return theta - lr * grad, slots


def momentum_kernel(theta, slots, grad, lr, t, *, momentum: float = 0.9):
    v = momentum * slots[0] - lr * grad
    return theta + v, (v,)


def adam_kernel(theta, slots, grad, lr, t, *, beta1: float = 0.9, beta2: float = 0.999,
                eps: float = 1e-8):
    m, v = slots
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    return theta - lr * mhat / (np.sqrt(vhat) + eps), (m, v)


KERNELS = {"sgd": (0, sgd_kernel), "momentum": (1, momentum_kernel), "adam": (2, adam_kernel)}
