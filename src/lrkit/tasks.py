"""Deterministic desk-scale training tasks.

A task bundles a dataset, a differentiable model, and metric hooks
behind three callables (init, loss-and-grad, eval).  The model
callables work on a whole population at once: a ``(K, P)`` parameter
matrix, one float64 row per trial, with ``(K, B)`` batch indices.
Given the same spec string and seeds, a task yields bit-identical data
and metrics on a platform, which is what makes schedule comparisons and
stored results meaningful.

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

Each builder parameter has one rule, in the table :data:`_PARAMS`: the
counts ``seed >= 0``, ``n >= 10``, and ``hidden``, ``batch``, ``limit``,
``val_limit >= 1``, each an int or an integral float (None leaves a cap
unset), and the reals ``lam`` and ``sep`` positive and ``noise``
non-negative, all finite, and ``theta0`` finite.  A spec builds the task
its id names, or it is refused with one ``TaskError``.

The two surfaces apply a scalar ``math`` formula row by row, which numpy
would change in the last bit.  The classifiers are a body, a linear map
or a one-hidden-layer tanh MLP, under a head, sigmoid cross-entropy on one
logit or softmax cross-entropy.  ``blobs2`` and ``moons2``, one builder
over two point generators, put the sigmoid head on ``model=logreg`` or
``model=mlp``; ``mnist-idx`` puts the softmax head on a tanh MLP with 10
outputs.  Stacked ``np.matmul`` makes each row's result bitwise the one a
population of one gets.
"""
from __future__ import annotations

import math
import os
import re
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import POSITIVE, LrKitError, TaskError, allocating, check_real, is_count

__all__ = ["Task", "load_task", "TASK_NAMES", "LANDSCAPE",
           "landscape2d", "quad1d", "blobs2", "moons2", "mnist_idx"]


@dataclass(frozen=True)
class Task:
    """One train/eval problem over rows of flat parameter vectors.

    ``n_train == 0`` means a pure optimization surface: the loop feeds
    ``idx=None`` and every step sees the full objective.

    ``loss_and_grad(Theta, idx, split)`` takes a ``(K, P)`` parameter
    matrix and ``(K, B)`` batch indices (or None for the full split) and
    returns ``(K,)`` losses and a ``(K, P)`` gradient.
    ``eval_loss_top1(Theta, split)`` returns ``(K,)`` losses and ``(K,)``
    top-1 values, or None without accuracy.  Row ``k`` of each result
    depends on row ``k`` of the inputs alone, bitwise.
    """

    task_id: str
    model_id: str
    param_len: int
    batch_size: int
    n_train: int
    n_val: int
    has_accuracy: bool
    init: Callable[[np.random.Generator], np.ndarray]
    loss_and_grad: Callable[[np.ndarray, np.ndarray | None, str], tuple[np.ndarray, np.ndarray]]
    eval_loss_top1: Callable[[np.ndarray, str], tuple[np.ndarray, np.ndarray | None]]

    @property
    def steps_per_epoch(self) -> int:
        if self.n_train <= 0:
            return 1
        return max(1, math.ceil(self.n_train / self.batch_size))


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (of each stacked matrix)."""
    return a.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# builder parameters

# Each builder parameter's rule, by name: a count's least value, or a real's
# check_real rule.  None leaves a cap (a count in _CAPS) unset.
_PARAMS = {"seed": 0, "n": 10, "hidden": 1, "batch": 1, "limit": 1, "val_limit": 1,
           "lam": POSITIVE, "sep": POSITIVE, "theta0": (math.isfinite, "finite"),
           "noise": (lambda v: 0.0 <= v < math.inf, "non-negative and finite")}
_CAPS = ("limit", "val_limit")


def _params(task: str, **given) -> dict:
    """``given``, each value read by its rule in :data:`_PARAMS`; the first that
    breaks it raises ``TaskError("bad parameters for task '<task>': ...")``."""
    def bad(message: str) -> TaskError:
        return TaskError(f"bad parameters for task {task!r}: {message}")

    read = {}
    for key, value in given.items():
        rule = _PARAMS[key]
        if isinstance(rule, tuple):
            value = check_real(bad, key, value, *rule)
        elif not (value is None and key in _CAPS):
            if not (is_count(value) or isinstance(value, float) and value.is_integer()):
                raise bad(f"{key}={value!r} is not an integer")
            if value < rule:  # numpy's seeding refuses a negative seed too, with a raw ValueError
                raise bad(f"{key} must be >= {rule}, got {value!r}")
            value = int(value)
        read[key] = value
    return read


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


def _surface(task_id: str, start, formula) -> Task:
    """A full-batch surface with no accuracy, started at ``start``.

    ``formula(*row)`` maps one row's parameters, as Python floats, to its
    loss and gradient list in scalar ``math``; it runs row by row.
    """
    start = np.array(start, dtype=float)

    def loss_and_grad(theta, idx, split):
        rows = [formula(*row) for row in theta.tolist()]
        return np.array([loss for loss, _ in rows]), np.array([grad for _, grad in rows])

    def eval_loss_top1(theta, split):
        return np.array([formula(*row)[0] for row in theta.tolist()]), None

    return Task(task_id=task_id, model_id="surface", param_len=len(start), batch_size=1,
                n_train=0, n_val=0, has_accuracy=False, init=lambda rng: start.copy(),
                loss_and_grad=loss_and_grad, eval_loss_top1=eval_loss_top1)


def _landscape(x: float, y: float) -> tuple[float, list[float]]:
    bx, by = LANDSCAPE["BOWL_X"], LANDSCAPE["BOWL_Y"]
    loss = bx * x * x + by * y * y
    gx, gy = 2.0 * bx * x, 2.0 * by * y
    for depth, cx, cy, width in LANDSCAPE["PITS"]:
        dx, dy = x - cx, y - cy
        e = depth * math.exp(-(dx * dx + dy * dy) / (2.0 * width * width))
        loss -= e
        gx += e * dx / (width * width)
        gy += e * dy / (width * width)
    return loss, [gx, gy]


def landscape2d() -> Task:
    """The fixed 2-D surface; full batch, fixed start, no accuracy."""
    return _surface("landscape2d", LANDSCAPE["START"], _landscape)


def _num(x: float) -> str:
    """``x`` for a task id: ``:g`` text when it reads back as ``x``, else ``repr``."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def quad1d(lam: float = 2.0, theta0: float = 1.0) -> Task:
    """Scalar quadratic ``0.5 * lam * theta**2`` started at ``theta0``."""
    lam, theta0 = _params("quad1d", lam=lam, theta0=theta0).values()
    start = "" if theta0 == 1.0 else f",theta0={_num(theta0)}"
    return _surface(f"quad1d(lam={_num(lam)}{start})", [theta0],
                    lambda th: (0.5 * lam * th * th, [lam * th]))


# ---------------------------------------------------------------------------
# classifiers: a body under a head
#
# A body maps a (K, P) parameter matrix and inputs Xs -- (B, n_in) shared
# by every row, or (K, B, n_in) gathered per row -- to (K, B, n_out)
# logits; a head turns logits and labels into per-row losses, the logit
# gradient and top-1.

class _Body(NamedTuple):
    param_len: int
    init: Callable[[np.random.Generator], np.ndarray]
    forward: Callable      # (Theta, Xs) -> (H, Z): hidden activations (or None), logits
    backward: Callable     # (Theta, Xs, H, dZ) -> (K, P) gradient


class _Head(NamedTuple):
    loss: Callable         # (Z, ys) -> (K,) mean loss per row
    loss_and_dZ: Callable  # (Z, ys) -> (loss, dloss/dZ)
    top1: Callable         # (Z, ys) -> (K,) accuracy per row


def _linear(n_in: int, n_out: int) -> _Body:
    """``Z = Xs W + b``: W starts at ``0.5 * N(0, 1)``, b at 0."""
    nw = n_in * n_out

    def init(rng: np.random.Generator) -> np.ndarray:
        theta = np.zeros(nw + n_out)
        theta[:nw] = 0.5 * rng.standard_normal(nw)
        return theta

    def forward(theta, Xs):
        return None, np.matmul(Xs, theta[:, :nw].reshape(-1, n_in, n_out)) + theta[:, None, nw:]

    def backward(theta, Xs, H, dZ):
        grad = np.empty_like(theta)
        grad[:, :nw] = np.matmul(_t(Xs), dZ).reshape(-1, nw)
        grad[:, nw:] = dZ.sum(axis=-2)
        return grad

    return _Body(nw + n_out, init, forward, backward)


def _tanh_mlp(n_in: int, h: int, n_out: int) -> _Body:
    """``H = tanh(Xs W1 + b1)``, ``Z = H W2 + b2``, laid out as W1, b1, W2, b2.

    Weights start at ``N(0, 1 / fan_in)``, biases at 0.
    """
    a, b, c = n_in * h, n_in * h + h, n_in * h + h + h * n_out

    def unpack(theta: np.ndarray):
        return (theta[:, :a].reshape(-1, n_in, h), theta[:, None, a:b],
                theta[:, b:c].reshape(-1, h, n_out), theta[:, None, c:])

    def init(rng: np.random.Generator) -> np.ndarray:
        theta = np.zeros(c + n_out)
        theta[:a] = rng.standard_normal(a) / math.sqrt(n_in)
        theta[b:c] = rng.standard_normal(h * n_out) / math.sqrt(h)
        return theta

    def forward(theta, Xs):
        W1, b1, W2, b2 = unpack(theta)
        # Built in place: a full-split eval then holds one (K, N, h) array,
        # not two whose release can let malloc trim the heap and fault the
        # pages back in on every eval.
        H = np.matmul(Xs, W1)
        H += b1
        np.tanh(H, out=H)
        return H, np.matmul(H, W2) + b2

    def backward(theta, Xs, H, dZ):
        dH = np.matmul(dZ, _t(unpack(theta)[2])) * (1.0 - H * H)
        grad = np.empty_like(theta)
        grad[:, :a] = np.matmul(_t(Xs), dH).reshape(-1, a)
        grad[:, a:b] = dH.sum(axis=-2)
        grad[:, b:c] = np.matmul(_t(H), dZ).reshape(-1, h * n_out)
        grad[:, c:] = dZ.sum(axis=-2)
        return grad

    return _Body(c + n_out, init, forward, backward)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, from one
    # exp that cannot overflow; np.minimum(z, -z), unlike -np.abs(z), keeps
    # a NaN's sign bit.
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


# The mean over the last axis as np.mean computes it, without its Python wrapper.
def _row_mean(x: np.ndarray) -> np.ndarray:
    return x.sum(axis=-1) / x.shape[-1]


def _bce(Z: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # per-row mean of log(1 + exp(z)) - y*z, computed stably
    z = Z[..., 0]
    return _row_mean(np.logaddexp(0.0, z) - ys * z)


def _bce_and_dZ(Z: np.ndarray, ys: np.ndarray):
    return _bce(Z, ys), ((_sigmoid(Z[..., 0]) - ys) / ys.shape[-1])[..., None]


_binary_head = _Head(
    loss=_bce, loss_and_dZ=_bce_and_dZ,
    top1=lambda Z, ys: _row_mean((Z[..., 0] > 0.0) == (ys > 0.5)))


def _softmax_ce(Z: np.ndarray, ys: np.ndarray):
    """Per-row mean cross-entropy, shifted logits, their log-normalizer, labels as indices."""
    label = np.broadcast_to(ys, Z.shape[:-1])[..., None]
    Zs = Z - Z.max(axis=-1, keepdims=True)
    logZ = np.log(np.exp(Zs).sum(axis=-1))
    return _row_mean(logZ - np.take_along_axis(Zs, label, axis=-1)[..., 0]), Zs, logZ, label


def _softmax_loss_and_dZ(Z: np.ndarray, ys: np.ndarray):
    loss, Zs, logZ, label = _softmax_ce(Z, ys)
    dZ = np.exp(Zs - logZ[..., None])
    np.put_along_axis(dZ, label, np.take_along_axis(dZ, label, axis=-1) - 1.0, axis=-1)
    dZ /= ys.shape[-1]
    return loss, dZ


_softmax_head = _Head(
    loss=lambda Z, ys: _softmax_ce(Z, ys)[0], loss_and_dZ=_softmax_loss_and_dZ,
    top1=lambda Z, ys: _row_mean(Z.argmax(axis=-1) == ys))


def _classifier(splits: dict, body: _Body, head: _Head, **fields) -> Task:
    """``body`` under ``head`` over ``splits`` (``{"train"|"val": (X, y)}``).

    Eval reports a row with non-finite logits as NaN loss and 0.0 top-1.
    """
    def loss_and_grad(theta, idx, split):
        Xs, ys = splits[split]
        if idx is not None:
            Xs, ys = Xs[idx], ys[idx]
        H, Z = body.forward(theta, Xs)
        loss, dZ = head.loss_and_dZ(Z, ys)
        return loss, body.backward(theta, Xs, H, dZ)

    def eval_loss_top1(theta, split):
        Xs, ys = splits[split]
        Z = body.forward(theta, Xs)[1]
        ok = np.isfinite(Z).all(axis=(-2, -1))
        with np.errstate(invalid="ignore"):
            loss = head.loss(Z, ys)
        return np.where(ok, loss, math.nan), np.where(ok, head.top1(Z, ys), 0.0)

    return Task(param_len=body.param_len, n_train=len(splits["train"][1]),
                n_val=len(splits["val"][1]), has_accuracy=True, init=body.init,
                loss_and_grad=loss_and_grad, eval_loss_top1=eval_loss_top1, **fields)


def _blob_points(y: np.ndarray, p: dict) -> np.ndarray:
    # Each class at its center, ``sep`` apart along the diagonal.
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    return np.where(y[:, None] > 0.5, 0.5 * p["sep"] * u, -0.5 * p["sep"] * u)


def _moon_points(y: np.ndarray, p: dict) -> np.ndarray:
    # An upper half-circle for class 0 and a lower one, shifted, for class 1.
    half = len(y) // 2
    a_out = np.linspace(0.0, math.pi, half)
    a_in = np.linspace(0.0, math.pi, len(y) - half)
    return np.vstack([np.column_stack([np.cos(a_out), np.sin(a_out)]),
                      np.column_stack([1.0 - np.cos(a_in), 0.5 - np.sin(a_in)])])


def _planar(name: str, points, model: str, **given) -> Task:
    """``n`` points of two classes, ``points(y, p)`` plus ``noise`` times a standard normal,
    shuffled and split 80/20 under a sigmoid ``model``; its id names the data and any batch but 32."""
    p = _params(name, **given)
    model = str(model).lower()
    if model not in ("logreg", "mlp"):
        raise TaskError(f"unknown model {model!r}; expected 'logreg' or 'mlp'")
    seed, n, hidden = p["seed"], p["n"], p["hidden"]
    rng = np.random.default_rng((seed, 11))
    with allocating(TaskError, "n", n):
        # y first: linspace past the int64 range returns an empty array, not an error.
        y = np.concatenate([np.zeros(n // 2), np.ones(n - n // 2)])
        X = points(y, p) + p["noise"] * rng.standard_normal((n, 2))
    order = np.random.default_rng((seed, 3)).permutation(n)
    X, y = X[order], y[order]
    n_tr = round(0.8 * n)
    splits = {"train": (X[:n_tr], y[:n_tr]), "val": (X[n_tr:], y[n_tr:])}
    data = ",".join(f"{key}={_num(v) if isinstance(v, float) else v}"
                    for key, v in sorted(p.items()) if key != "hidden" and (key, v) != ("batch", 32))
    body = _linear(2, 1) if model == "logreg" else _tanh_mlp(2, hidden, 1)
    return _classifier(splits, body, _binary_head, task_id=f"{name}({data})", batch_size=p["batch"],
                       model_id=model if model == "logreg" else f"mlp{hidden}")


def blobs2(seed: int = 7, n: int = 2000, sep: float = 3.0, noise: float = 1.0,
           model: str = "logreg", hidden: int = 8, batch: int = 32) -> Task:
    """Two Gaussian classes centered ``sep`` apart along the diagonal."""
    return _planar("blobs2", _blob_points, model, seed=seed, n=n, hidden=hidden, batch=batch,
                   sep=sep, noise=noise)


def moons2(seed: int = 7, n: int = 2000, noise: float = 0.25,
           model: str = "mlp", hidden: int = 8, batch: int = 32) -> Task:
    """Two interleaved half-moons; linearly inseparable by construction."""
    return _planar("moons2", _moon_points, model, seed=seed, n=n, hidden=hidden, batch=batch,
                   noise=noise)


# ---------------------------------------------------------------------------
# IDX digit images

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def _read_idx(path: str, what: str, magic: int, ndim: int) -> np.ndarray:
    """The uint8 body of an ``ndim``-dimensional IDX file as ``(dim 0, product of the rest)``."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise TaskError(f"cannot read {what} file {path!r}: {exc}") from exc
    head = 4 + 4 * ndim
    if len(data) < head:
        raise TaskError(f"{what} file {path!r} is too short for an IDX header")
    found, *dims = struct.unpack(f">{1 + ndim}i", data[:head])
    if found != magic:
        raise TaskError(f"{what} file {path!r} has magic {found:#010x}, expected {magic:#010x}")
    need = head + math.prod(dims)
    if len(data) < need:
        raise TaskError(f"{what} file {path!r} is truncated: {len(data)} bytes, need {need}")
    body = np.frombuffer(data, dtype=np.uint8, offset=head, count=need - head)
    return body.reshape(dims[0], math.prod(dims[1:]))


def mnist_idx(path: str = "data/mnist", hidden: int = 32, batch: int = 64,
              limit: int | None = None, val_limit: int | None = None) -> Task:
    """10-class digit classifier over IDX files in ``path``.

    Expects the four conventional files (``train-images-idx3-ubyte``,
    ``train-labels-idx1-ubyte``, ``t10k-images-idx3-ubyte``,
    ``t10k-labels-idx1-ubyte``).  ``limit``/``val_limit`` cap the splits
    for quicker runs.  The id names ``path`` (as given) and ``batch`` unless at their defaults.
    """
    p = _params("mnist-idx", hidden=hidden, batch=batch, limit=limit, val_limit=val_limit)

    def read(prefix: str, cap: int | None):
        images = os.path.join(path, f"{prefix}-images-idx3-ubyte")
        labels = os.path.join(path, f"{prefix}-labels-idx1-ubyte")
        X = _read_idx(images, "image", _IDX_IMAGE_MAGIC, 3)
        y = _read_idx(labels, "label", _IDX_LABEL_MAGIC, 1)[:, 0]
        if len(y) != len(X):
            raise TaskError(f"label file {labels!r} has {len(y)} labels for {len(X)} images")
        return X[:cap].astype(np.float64) / 255.0, y[:cap].astype(np.int64)

    splits = {"train": read("train", p["limit"]), "val": read("t10k", p["val_limit"])}
    if len(splits["train"][1]) < 1 or len(splits["val"][1]) < 1:
        raise TaskError("mnist-idx needs at least one train and one val example")
    named = [f"path={path}"] if path != "data/mnist" else []  # two directories, two ids
    args = ",".join(named + [f"{key}={p[key]}" for key in ("batch", *_CAPS)
                             if p[key] != (64 if key == "batch" else None)])
    return _classifier(splits, _tanh_mlp(splits["train"][0].shape[1], p["hidden"], 10),
                       _softmax_head, task_id=f"mnist-idx({args})" if args else "mnist-idx",
                       model_id=f"mlp{p['hidden']}x10", batch_size=p["batch"])


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
    parameters, each given once.  ``spec`` is a ``str``; anything else is
    refused.  Raises only :class:`TaskError`, also for a value the builder cannot use.
    """
    m = _SPEC_RE.match(spec) if isinstance(spec, str) else None
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
            key, value = (side.strip() for side in part.split("=", 1))
            if key in kwargs:
                raise TaskError(f"task parameter {key!r} is given twice")
            kwargs[key] = _coerce(value)
    try:
        return builder(**kwargs)
    except LrKitError:
        raise
    except (TypeError, ValueError, ArithmeticError) as exc:  # such as nan or 1e400
        raise TaskError(f"bad parameters for task {name!r}: {exc}") from None
