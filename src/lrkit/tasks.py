"""Deterministic desk-scale training tasks.

A task bundles a dataset, a differentiable model, and metric hooks
behind three callables (init, loss-and-grad, eval) over a flat float64
parameter vector.  Given the same spec string and seeds, a task yields
bit-identical data and metrics on a platform, which is what makes
schedule comparisons and stored results meaningful.

The training engine steps a whole population of trials at once, so it
calls a task through its *batched* callables (see :meth:`Task.batched`),
which take a ``(K, P)`` parameter matrix and ``(K, B)`` batch indices.
The classifiers define one batched formula per model, built from
stacked ``np.matmul`` so that each row's result is bitwise the one a
lone vector gets; their per-vector callables are its ``K = 1`` slice.
The analytic surfaces (and any hand-built task) define per-vector
callables only and are lifted row by row: their scalar ``math``
formulas would change in the last bit under numpy.

Built-ins (see :func:`load_task`):

* ``landscape2d`` -- a fixed analytic 2-D cost surface (see
  :data:`LANDSCAPE`): an anisotropic quadratic bowl minus two Gaussian
  pits, the deeper one off-center, the shallower one narrow and placed
  on the descent path.  Full-batch, no accuracy metric.  Small constant
  steps settle in the narrow pit; schedules that start fast and decay
  late reach the deep one.
* ``quad1d`` -- the scalar quadratic ``0.5 * lam * theta**2``.  Its
  optimal step size is exactly ``1 / lam``, which makes it the
  reference surface for step-size estimators.
* ``blobs2`` -- two Gaussian classes in the plane.
* ``moons2`` -- two interleaved half-moons with Gaussian noise.
* ``mnist-idx`` -- 10-class digit images read from IDX files on disk.

``blobs2`` and ``moons2`` take ``model=logreg`` (linear head) or
``model=mlp`` (one tanh hidden layer); ``mnist-idx`` always uses the
tanh hidden layer with a 10-way softmax.
"""
from __future__ import annotations

import math
import os
import re
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TaskError

__all__ = ["Task", "load_task", "TASK_NAMES", "LANDSCAPE",
           "landscape2d", "quad1d", "blobs2", "moons2", "mnist_idx"]


BatchLossGrad = Callable[[np.ndarray, np.ndarray | None, str], tuple[np.ndarray, np.ndarray]]
BatchEval = Callable[[np.ndarray, str], tuple[np.ndarray, np.ndarray | None]]


@dataclass(frozen=True)
class Task:
    """One train/eval problem over a flat parameter vector.

    ``n_train == 0`` means a pure optimization surface: the loop feeds
    ``batch=None`` and every step sees the full objective.

    ``loss_and_grad(theta, batch, split)`` and ``eval_loss_top1(theta,
    split)`` work on one ``(P,)`` vector.  A task may also supply their
    batched forms over a ``(K, P)`` matrix: ``batch_loss_and_grad(Theta,
    idx, split)`` with ``(K, B)`` indices (or None for the full split)
    returns ``(K,)`` losses and a ``(K, P)`` gradient, and
    ``batch_eval(Theta, split)`` returns ``(K,)`` losses and ``(K,)``
    top-1 values (None without accuracy).  Row ``k`` of each must equal
    the per-vector result for row ``k`` bitwise.  A task that leaves
    them out is lifted row by row (:meth:`batched`).
    """

    task_id: str
    model_id: str
    param_len: int
    batch_size: int
    n_train: int
    n_val: int
    has_accuracy: bool
    init: Callable[[np.random.Generator], np.ndarray]
    loss_and_grad: Callable[[np.ndarray, np.ndarray | None, str], tuple[float, np.ndarray]]
    eval_loss_top1: Callable[[np.ndarray, str], tuple[float, float | None]]
    batch_loss_and_grad: BatchLossGrad | None = None
    batch_eval: BatchEval | None = None

    @property
    def steps_per_epoch(self) -> int:
        if self.n_train <= 0:
            return 1
        return max(1, math.ceil(self.n_train / self.batch_size))

    def batched(self) -> tuple[BatchLossGrad, BatchEval]:
        """``(batch_loss_and_grad, batch_eval)``, lifting a missing one row by row
        from the per-vector callable."""
        return (self.batch_loss_and_grad or _lift_loss_and_grad(self.loss_and_grad),
                self.batch_eval or _lift_eval(self.eval_loss_top1))


def _lift_loss_and_grad(loss_and_grad) -> BatchLossGrad:
    def batch_loss_and_grad(theta, idx, split):
        rows = [loss_and_grad(row, None if idx is None else idx[k], split)
                for k, row in enumerate(theta)]
        return np.array([loss for loss, _ in rows]), np.stack([grad for _, grad in rows])
    return batch_loss_and_grad


def _lift_eval(eval_loss_top1) -> BatchEval:
    def batch_eval(theta, split):
        rows = [eval_loss_top1(row, split) for row in theta]
        top1 = [v for _, v in rows]
        return (np.array([loss for loss, _ in rows]),
                None if None in top1 else np.array(top1))
    return batch_eval


def _batched_task(batch_loss_and_grad: BatchLossGrad, batch_eval: BatchEval, **fields) -> Task:
    """A task whose per-vector callables are the ``K = 1`` slice of its batched ones."""
    def loss_and_grad(theta, batch_idx, split):
        loss, grad = batch_loss_and_grad(
            np.asarray(theta, dtype=float)[None],
            None if batch_idx is None else np.asarray(batch_idx)[None], split)
        return float(loss[0]), grad[0]

    def eval_loss_top1(theta, split):
        loss, top1 = batch_eval(np.asarray(theta, dtype=float)[None], split)
        return float(loss[0]), float(top1[0])

    return Task(loss_and_grad=loss_and_grad, eval_loss_top1=eval_loss_top1,
                batch_loss_and_grad=batch_loss_and_grad, batch_eval=batch_eval, **fields)


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (of each stacked matrix)."""
    return a.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# analytic surfaces

# Cost surface for landscape2d:
#   f(x, y) = BOWL_X * x**2 + BOWL_Y * y**2
#             - sum over pits of depth * exp(-((x-cx)**2 + (y-cy)**2) / (2 * width**2))
# Start point START.  The narrow shallow pit sits on the descent path
# from the start, the deep pit near the bowl floor: rates below ~0.35
# are captured by the shallow pit, while larger early steps hop over it
# and settle in the deep one once the rate decays below ~0.48.
LANDSCAPE = {
    "BOWL_X": 0.04,
    "BOWL_Y": 0.08,
    "PITS": (
        # (depth, cx, cy, width)
        (1.0, 0.4, -0.3, 0.5),    # deep, near the bowl floor
        (0.45, -1.3, 0.5, 0.28),  # shallow, narrow, on the descent path
    ),
    "START": (-2.6, 1.8),
}


def _landscape_loss_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
    x, y = float(theta[0]), float(theta[1])
    bx, by = LANDSCAPE["BOWL_X"], LANDSCAPE["BOWL_Y"]
    loss = bx * x * x + by * y * y
    gx, gy = 2.0 * bx * x, 2.0 * by * y
    for depth, cx, cy, width in LANDSCAPE["PITS"]:
        dx, dy = x - cx, y - cy
        e = depth * math.exp(-(dx * dx + dy * dy) / (2.0 * width * width))
        loss -= e
        gx += e * dx / (width * width)
        gy += e * dy / (width * width)
    return loss, np.array([gx, gy])


def landscape2d() -> Task:
    """The fixed 2-D surface; full batch, fixed start, no accuracy."""
    start = np.array(LANDSCAPE["START"], dtype=float)

    def init(rng: np.random.Generator) -> np.ndarray:
        return start.copy()

    def loss_and_grad(theta, batch, split):
        return _landscape_loss_grad(np.asarray(theta, dtype=float))

    def eval_loss_top1(theta, split):
        loss, _ = _landscape_loss_grad(np.asarray(theta, dtype=float))
        return loss, None

    return Task(task_id="landscape2d", model_id="surface", param_len=2, batch_size=1,
                n_train=0, n_val=0, has_accuracy=False, init=init,
                loss_and_grad=loss_and_grad, eval_loss_top1=eval_loss_top1)


def quad1d(lam: float = 2.0, theta0: float = 1.0) -> Task:
    """Scalar quadratic ``0.5 * lam * theta**2`` started at ``theta0``."""
    if not (np.isfinite(lam) and lam > 0.0):
        raise TaskError(f"lam must be positive and finite, got {lam!r}")
    lam = float(lam)
    theta0 = float(theta0)

    def init(rng: np.random.Generator) -> np.ndarray:
        return np.array([theta0])

    def loss_and_grad(theta, batch, split):
        th = float(np.asarray(theta, dtype=float)[0])
        return 0.5 * lam * th * th, np.array([lam * th])

    def eval_loss_top1(theta, split):
        th = float(np.asarray(theta, dtype=float)[0])
        return 0.5 * lam * th * th, None

    return Task(task_id=f"quad1d(lam={lam:g})", model_id="surface", param_len=1, batch_size=1,
                n_train=0, n_val=0, has_accuracy=False, init=init,
                loss_and_grad=loss_and_grad, eval_loss_top1=eval_loss_top1)


# ---------------------------------------------------------------------------
# binary classifiers in the plane

def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _bce_loss(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    # per-row mean of log(1 + exp(z)) - y*z, computed stably
    return np.mean(np.logaddexp(0.0, z) - y * z, axis=-1)


def _make_binary_task(name: str, X: np.ndarray, y: np.ndarray, *, seed: int,
                      model: str, hidden: int, batch: int,
                      data_params: str) -> Task:
    n = X.shape[0]
    order = np.random.default_rng((seed, 3)).permutation(n)
    X, y = X[order], y[order]
    n_tr = int(round(0.8 * n))
    X_tr, y_tr = X[:n_tr], y[:n_tr]
    X_va, y_va = X[n_tr:], y[n_tr:]
    splits = {"train": (X_tr, y_tr), "val": (X_va, y_va)}

    def gather(idx, split):
        Xs, ys = splits[split]
        return (Xs, ys) if idx is None else (Xs[idx], ys[idx])

    model = str(model).lower()
    if model == "logreg":
        param_len = 3
        model_id = "logreg"

        def init(rng: np.random.Generator) -> np.ndarray:
            theta = np.zeros(3)
            theta[:2] = 0.5 * rng.standard_normal(2)
            return theta

        def forward(theta: np.ndarray, Xs: np.ndarray) -> np.ndarray:
            return np.matmul(Xs, theta[:, :2, None])[..., 0] + theta[:, 2:]

        def batch_loss_and_grad(theta, idx, split):
            Xs, ys = gather(idx, split)
            z = forward(theta, Xs)
            dz = (_sigmoid(z) - ys) / ys.shape[-1]
            grad = np.empty_like(theta)
            grad[:, :2] = np.matmul(_t(Xs), dz[..., None])[..., 0]
            grad[:, 2] = dz.sum(axis=-1)
            return _bce_loss(z, ys), grad

    elif model == "mlp":
        if hidden < 1:
            raise TaskError(f"hidden must be >= 1, got {hidden}")
        h = int(hidden)
        param_len = 4 * h + 1
        model_id = f"mlp{h}"

        def unpack(theta: np.ndarray):
            W1 = theta[:, : 2 * h].reshape(-1, 2, h)
            b1 = theta[:, None, 2 * h: 3 * h]
            w2 = theta[:, 3 * h: 4 * h]
            b2 = theta[:, 4 * h:]
            return W1, b1, w2, b2

        def init(rng: np.random.Generator) -> np.ndarray:
            theta = np.zeros(param_len)
            theta[: 2 * h] = rng.standard_normal(2 * h) / math.sqrt(2.0)
            theta[3 * h: 4 * h] = rng.standard_normal(h) / math.sqrt(h)
            return theta

        def hidden_and_logit(theta: np.ndarray, Xs: np.ndarray):
            W1, b1, w2, b2 = unpack(theta)
            H = np.tanh(np.matmul(Xs, W1) + b1)
            return H, np.matmul(H, w2[..., None])[..., 0] + b2

        def forward(theta: np.ndarray, Xs: np.ndarray) -> np.ndarray:
            return hidden_and_logit(theta, Xs)[1]

        def batch_loss_and_grad(theta, idx, split):
            Xs, ys = gather(idx, split)
            H, z = hidden_and_logit(theta, Xs)
            w2 = unpack(theta)[2]
            dz = (_sigmoid(z) - ys) / ys.shape[-1]
            dH = dz[..., None] * w2[:, None, :] * (1.0 - H * H)
            grad = np.empty_like(theta)
            grad[:, : 2 * h] = np.matmul(_t(Xs), dH).reshape(-1, 2 * h)
            grad[:, 2 * h: 3 * h] = dH.sum(axis=-2)
            grad[:, 3 * h: 4 * h] = np.matmul(_t(H), dz[..., None])[..., 0]
            grad[:, 4 * h] = dz.sum(axis=-1)
            return _bce_loss(z, ys), grad

    else:
        raise TaskError(f"unknown model {model!r}; expected 'logreg' or 'mlp'")

    def batch_eval(theta, split):
        Xs, ys = splits[split]
        z = forward(theta, Xs)
        ok = np.isfinite(z).all(axis=-1)
        with np.errstate(invalid="ignore"):
            loss = _bce_loss(z, ys)
        top1 = np.mean((z > 0.0) == (ys > 0.5), axis=-1)
        return np.where(ok, loss, math.nan), np.where(ok, top1, 0.0)

    return _batched_task(batch_loss_and_grad, batch_eval,
                         task_id=f"{name}({data_params})", model_id=model_id,
                         param_len=param_len, batch_size=int(batch), n_train=n_tr,
                         n_val=n - n_tr, has_accuracy=True, init=init)


def _check_dataset_args(name: str, n: int, batch: int) -> None:
    if n < 10:
        raise TaskError(f"{name} needs n >= 10, got {n}")
    if batch < 1:
        raise TaskError(f"{name} needs batch >= 1, got {batch}")


def blobs2(seed: int = 7, n: int = 2000, sep: float = 3.0, noise: float = 1.0,
           model: str = "logreg", hidden: int = 8, batch: int = 32) -> Task:
    """Two Gaussian classes centered ``sep`` apart along the diagonal."""
    _check_dataset_args("blobs2", n, batch)
    if noise < 0 or not np.isfinite(noise):
        raise TaskError(f"blobs2 needs noise >= 0, got {noise!r}")
    if sep <= 0 or not np.isfinite(sep):
        raise TaskError(f"blobs2 needs sep > 0, got {sep!r}")
    rng = np.random.default_rng((int(seed), 11))
    half = n // 2
    y = np.concatenate([np.zeros(half), np.ones(n - half)])
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    centers = np.where(y[:, None] > 0.5, 0.5 * sep * u, -0.5 * sep * u)
    X = centers + float(noise) * rng.standard_normal((n, 2))
    params = f"n={n},noise={noise:g},seed={int(seed)},sep={sep:g}"
    return _make_binary_task("blobs2", X, y, seed=int(seed), model=model, hidden=hidden,
                             batch=batch, data_params=params)


def moons2(seed: int = 7, n: int = 2000, noise: float = 0.25,
           model: str = "mlp", hidden: int = 8, batch: int = 32) -> Task:
    """Two interleaved half-moons; linearly inseparable by construction."""
    _check_dataset_args("moons2", n, batch)
    if noise < 0 or not np.isfinite(noise):
        raise TaskError(f"moons2 needs noise >= 0, got {noise!r}")
    rng = np.random.default_rng((int(seed), 11))
    half = n // 2
    a_out = np.linspace(0.0, math.pi, half)
    a_in = np.linspace(0.0, math.pi, n - half)
    outer = np.column_stack([np.cos(a_out), np.sin(a_out)])
    inner = np.column_stack([1.0 - np.cos(a_in), 0.5 - np.sin(a_in)])
    X = np.vstack([outer, inner]) + float(noise) * rng.standard_normal((n, 2))
    y = np.concatenate([np.zeros(half), np.ones(n - half)])
    params = f"n={n},noise={noise:g},seed={int(seed)}"
    return _make_binary_task("moons2", X, y, seed=int(seed), model=model, hidden=hidden,
                             batch=batch, data_params=params)


# ---------------------------------------------------------------------------
# IDX digit images

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def _read_idx_images(path: str) -> np.ndarray:
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise TaskError(f"cannot read image file {path!r}: {exc}") from exc
    if len(data) < 16:
        raise TaskError(f"image file {path!r} is too short for an IDX header")
    magic, n, rows, cols = struct.unpack(">iiii", data[:16])
    if magic != _IDX_IMAGE_MAGIC:
        raise TaskError(f"image file {path!r} has magic {magic:#010x}, expected {_IDX_IMAGE_MAGIC:#010x}")
    need = 16 + n * rows * cols
    if len(data) < need:
        raise TaskError(f"image file {path!r} is truncated: {len(data)} bytes, need {need}")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16, count=n * rows * cols)
    return pixels.reshape(n, rows * cols).astype(np.float64) / 255.0


def _read_idx_labels(path: str, n_expected: int) -> np.ndarray:
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise TaskError(f"cannot read label file {path!r}: {exc}") from exc
    if len(data) < 8:
        raise TaskError(f"label file {path!r} is too short for an IDX header")
    magic, n = struct.unpack(">ii", data[:8])
    if magic != _IDX_LABEL_MAGIC:
        raise TaskError(f"label file {path!r} has magic {magic:#010x}, expected {_IDX_LABEL_MAGIC:#010x}")
    if len(data) < 8 + n:
        raise TaskError(f"label file {path!r} is truncated: {len(data)} bytes, need {8 + n}")
    if n != n_expected:
        raise TaskError(f"label file {path!r} has {n} labels for {n_expected} images")
    return np.frombuffer(data, dtype=np.uint8, offset=8, count=n).astype(np.int64)


def mnist_idx(path: str = "data/mnist", hidden: int = 32, batch: int = 64,
              limit: int | None = None, val_limit: int | None = None) -> Task:
    """10-class digit classifier over IDX files in ``path``.

    Expects the four conventional files (``train-images-idx3-ubyte``,
    ``train-labels-idx1-ubyte``, ``t10k-images-idx3-ubyte``,
    ``t10k-labels-idx1-ubyte``).  ``limit``/``val_limit`` cap the splits
    for quicker runs.
    """
    if hidden < 1:
        raise TaskError(f"hidden must be >= 1, got {hidden}")
    if batch < 1:
        raise TaskError(f"batch must be >= 1, got {batch}")
    X_tr = _read_idx_images(os.path.join(path, "train-images-idx3-ubyte"))
    y_tr = _read_idx_labels(os.path.join(path, "train-labels-idx1-ubyte"), X_tr.shape[0])
    X_va = _read_idx_images(os.path.join(path, "t10k-images-idx3-ubyte"))
    y_va = _read_idx_labels(os.path.join(path, "t10k-labels-idx1-ubyte"), X_va.shape[0])
    if limit is not None:
        X_tr, y_tr = X_tr[:limit], y_tr[:limit]
    if val_limit is not None:
        X_va, y_va = X_va[:val_limit], y_va[:val_limit]
    if X_tr.shape[0] < 1 or X_va.shape[0] < 1:
        raise TaskError("mnist-idx needs at least one train and one val example")
    n_in = X_tr.shape[1]
    n_cls = 10
    h = int(hidden)
    param_len = n_in * h + h + h * n_cls + n_cls
    splits = {"train": (X_tr, y_tr), "val": (X_va, y_va)}

    def unpack(theta: np.ndarray):
        o = 0
        W1 = theta[:, o: o + n_in * h].reshape(-1, n_in, h); o += n_in * h
        b1 = theta[:, None, o: o + h]; o += h
        W2 = theta[:, o: o + h * n_cls].reshape(-1, h, n_cls); o += h * n_cls
        b2 = theta[:, None, o: o + n_cls]
        return W1, b1, W2, b2

    def init(rng: np.random.Generator) -> np.ndarray:
        theta = np.zeros(param_len)
        theta[: n_in * h] = rng.standard_normal(n_in * h) / math.sqrt(n_in)
        o = n_in * h + h
        theta[o: o + h * n_cls] = rng.standard_normal(h * n_cls) / math.sqrt(h)
        return theta

    def logits(theta: np.ndarray, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        W1, b1, W2, b2 = unpack(theta)
        H = np.tanh(np.matmul(Xs, W1) + b1)
        return H, np.matmul(H, W2) + b2

    def ce_and_probs(Z: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row mean cross-entropy, softmax, and each example's label as an index."""
        label = np.broadcast_to(ys, Z.shape[:-1])[..., None]
        Zs = Z - Z.max(axis=-1, keepdims=True)
        logZ = np.log(np.exp(Zs).sum(axis=-1))
        loss = np.mean(logZ - np.take_along_axis(Zs, label, axis=-1)[..., 0], axis=-1)
        P = np.exp(Zs - logZ[..., None])
        return loss, P, label

    def batch_loss_and_grad(theta, idx, split):
        Xs, ys = splits[split]
        if idx is not None:
            Xs, ys = Xs[idx], ys[idx]
        H, Z = logits(theta, Xs)
        loss, dZ, label = ce_and_probs(Z, ys)
        np.put_along_axis(dZ, label, np.take_along_axis(dZ, label, axis=-1) - 1.0, axis=-1)
        dZ /= ys.shape[-1]
        W1, b1, W2, b2 = unpack(theta)
        dH = np.matmul(dZ, _t(W2)) * (1.0 - H * H)
        grad = np.empty_like(theta)
        o = 0
        grad[:, o: o + n_in * h] = np.matmul(_t(Xs), dH).reshape(-1, n_in * h); o += n_in * h
        grad[:, o: o + h] = dH.sum(axis=-2); o += h
        grad[:, o: o + h * n_cls] = np.matmul(_t(H), dZ).reshape(-1, h * n_cls); o += h * n_cls
        grad[:, o: o + n_cls] = dZ.sum(axis=-2)
        return loss, grad

    def batch_eval(theta, split):
        Xs, ys = splits[split]
        _, Z = logits(theta, Xs)
        ok = np.isfinite(Z).all(axis=(-2, -1))
        with np.errstate(invalid="ignore"):
            loss = ce_and_probs(Z, ys)[0]
        top1 = np.mean(Z.argmax(axis=-1) == ys, axis=-1)
        return np.where(ok, loss, math.nan), np.where(ok, top1, 0.0)

    tid = "mnist-idx" if limit is None else f"mnist-idx(limit={int(limit)})"
    return _batched_task(batch_loss_and_grad, batch_eval,
                         task_id=tid, model_id=f"mlp{h}x{n_cls}", param_len=param_len,
                         batch_size=int(batch), n_train=X_tr.shape[0], n_val=X_va.shape[0],
                         has_accuracy=True, init=init)


# ---------------------------------------------------------------------------
# spec strings

_BUILDERS: dict[str, Callable[..., Task]] = {
    "landscape2d": landscape2d,
    "quad1d": quad1d,
    "blobs2": blobs2,
    "moons2": moons2,
    "mnist-idx": mnist_idx,
}
TASK_NAMES = tuple(sorted(_BUILDERS))

_SPEC_RE = re.compile(r"^\s*([A-Za-z0-9_-]+)\s*(?:\((.*)\))?\s*$", re.DOTALL)


def _coerce(text: str):
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    low = text.lower()
    if low == "none":
        return None
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def load_task(spec: str) -> Task:
    """Build a task from a spec string like ``blobs2(seed=7, n=2000)``.

    The name selects a builder from :data:`TASK_NAMES`; the optional
    parenthesized list supplies ``key=value`` overrides for its keyword
    parameters.
    """
    m = _SPEC_RE.match(spec or "")
    if not m:
        raise TaskError(f"cannot parse task spec {spec!r}")
    name = m.group(1).lower()
    builder = _BUILDERS.get(name)
    if builder is None:
        raise TaskError(f"unknown task {name!r}; available: {', '.join(TASK_NAMES)}")
    kwargs = {}
    body = m.group(2)
    if body and body.strip():
        for part in body.split(","):
            if "=" not in part:
                raise TaskError(f"task parameter {part.strip()!r} is not key=value")
            key, value = part.split("=", 1)
            kwargs[key.strip()] = _coerce(value)
    try:
        return builder(**kwargs)
    except TypeError as exc:
        raise TaskError(f"bad parameters for task {name!r}: {exc}") from None
