"""Task construction, determinism, gradient, and format tests."""
import os
import re
import struct

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from lrkit import (LANDSCAPE, TASK_NAMES, Task, TaskError, blobs2, landscape2d, load_task, moons2,
                   quad1d)
from lrkit.tasks import _coerce, mnist_idx
from fd_check import fd_relative_error, row_loss_grad


def write_idx_fixture(root, n_train=40, n_val=12, side=8, seed=3):
    """Write a tiny, well-formed IDX dataset and return its directory."""
    rng = np.random.default_rng(seed)
    d = os.path.join(root, "idx")
    os.makedirs(d, exist_ok=True)

    def images(path, n):
        body = rng.integers(0, 256, size=n * side * side, dtype=np.uint8)
        with open(path, "wb") as f:
            f.write(struct.pack(">iiii", 0x00000803, n, side, side))
            f.write(body.tobytes())

    def labels(path, n):
        body = rng.integers(0, 10, size=n, dtype=np.uint8)
        with open(path, "wb") as f:
            f.write(struct.pack(">ii", 0x00000801, n))
            f.write(body.tobytes())

    images(os.path.join(d, "train-images-idx3-ubyte"), n_train)
    labels(os.path.join(d, "train-labels-idx1-ubyte"), n_train)
    images(os.path.join(d, "t10k-images-idx3-ubyte"), n_val)
    labels(os.path.join(d, "t10k-labels-idx1-ubyte"), n_val)
    return d


def row_eval(task, theta):
    """Val loss and top-1 (None without accuracy) of one parameter vector."""
    loss, top1 = task.eval_loss_top1(np.asarray(theta, dtype=float)[None], "val")
    return float(loss[0]), None if top1 is None else float(top1[0])


def _fd_tasks(tmp_path):
    idx_dir = write_idx_fixture(str(tmp_path))
    return [
        landscape2d(),
        quad1d(lam=2.0),
        quad1d(lam=10.0, theta0=-3.0),
        blobs2(seed=7, n=200, model="logreg"),
        blobs2(seed=7, n=200, model="mlp", hidden=4),
        moons2(seed=7, n=200, model="mlp", hidden=8),
        mnist_idx(path=idx_dir, hidden=2, batch=8),
    ]


def test_gradients_match_finite_differences(tmp_path):
    for task in _fd_tasks(tmp_path):
        rng = np.random.default_rng(42)
        theta0 = task.init(np.random.default_rng((0, 1)))
        for _ in range(10):
            theta = theta0 + 0.5 * rng.standard_normal(task.param_len)
            err = fd_relative_error(task, theta, rng)
            assert err <= 1e-4, (task.task_id, err)


def test_landscape_task_shape():
    task = landscape2d()
    assert task.param_len == 2
    assert not task.has_accuracy
    assert task.n_train == 0 and task.steps_per_epoch == 1
    theta = task.init(np.random.default_rng(0))
    assert theta.tolist() == list(LANDSCAPE["START"])
    theta[0] = 99.0
    assert task.init(np.random.default_rng(0)).tolist() == list(LANDSCAPE["START"])
    loss, top1 = row_eval(task, LANDSCAPE["START"])
    assert np.isfinite(loss) and top1 is None


def test_quad1d_gradient_is_linear():
    task = quad1d(lam=2.0)
    loss, grad = row_loss_grad(task, [3.0])
    assert loss == pytest.approx(9.0, rel=1e-12)
    assert grad[0] == pytest.approx(6.0, rel=1e-12)
    with pytest.raises(TaskError):
        quad1d(lam=0.0)


def test_blobs2_split_sizes_and_batching():
    task = blobs2(n=100, batch=32)
    assert (task.n_train, task.n_val) == (80, 20)
    assert task.steps_per_epoch == 3
    assert task.has_accuracy


def test_blobs2_is_deterministic():
    a = blobs2(seed=7, n=200)
    b = blobs2(seed=7, n=200)
    theta = np.array([0.3, -0.2, 0.1])
    idx = np.arange(32)
    la, ga = row_loss_grad(a, theta, idx)
    lb, gb = row_loss_grad(b, theta, idx)
    assert la == lb
    assert np.array_equal(ga, gb)
    c = blobs2(seed=8, n=200)
    lc, _ = row_loss_grad(c, theta, idx)
    assert lc != la


def test_blobs2_oracle_weights_separate_perfectly():
    task = blobs2(seed=7, n=400, sep=8.0, noise=0.5, model="logreg")
    loss, top1 = row_eval(task, [1.0, 1.0, 0.0])
    assert top1 == 1.0
    assert np.isfinite(loss)


def test_initial_accuracy_is_near_chance():
    accs = []
    for seed in range(5):
        task = blobs2(seed=7, n=400, model="logreg")
        theta = task.init(np.random.default_rng((seed, 1)))
        _, top1 = row_eval(task, theta)
        accs.append(top1)
    assert abs(float(np.mean(accs)) - 0.5) <= 0.2


def test_classifier_accuracy_flips_with_sign():
    # For a linear head, z(-theta) = -z(theta), so the z > 0 decision
    # rule gives acc(theta) + acc(-theta) = 1 whenever no z is exactly 0.
    task = blobs2(seed=7, n=300, model="logreg")
    theta = task.init(np.random.default_rng((1, 1))) + 0.1
    _, a = row_eval(task, theta)
    _, b = row_eval(task, -theta)
    assert a + b == pytest.approx(1.0, abs=1e-12)


def test_eval_guards_non_finite_logits():
    task = blobs2(seed=7, n=100, model="logreg")
    loss, top1 = row_eval(task, [np.inf, 0.0, 0.0])
    assert np.isnan(loss) and top1 == 0.0


def test_mlp_param_layout_length():
    task = moons2(seed=7, n=100, model="mlp", hidden=8)
    assert task.param_len == 4 * 8 + 1
    assert task.model_id == "mlp8"


def test_load_task_round_trips_names():
    assert set(TASK_NAMES) == {"blobs2", "landscape2d", "mnist-idx", "moons2", "quad1d"}
    task = load_task("blobs2(seed=7, n=200, model='mlp', hidden=4)")
    assert task.model_id == "mlp4"
    assert task.task_id.startswith("blobs2(")
    assert load_task("landscape2d").task_id == "landscape2d"
    assert load_task("quad1d(lam=2.5)").task_id == "quad1d(lam=2.5)"


@pytest.mark.parametrize("spec, task_id", [
    ("quad1d(lam=0.5,theta0=3)", "quad1d(lam=0.5,theta0=3)"),
    ("quad1d(lam=0.5,theta0=1.0)", "quad1d(lam=0.5)"),
    ("quad1d(lam=0.1,theta0=-0.25)", "quad1d(lam=0.1,theta0=-0.25)"),
    ("quad1d(lam=1234567)", "quad1d(lam=1234567.0)"),   # :g would print 1.23457e+06
    ("blobs2(n=200,noise=1.0000001)", "blobs2(n=200,noise=1.0000001,seed=7,sep=3)"),
    ("blobs2(n=200,noise=1)", "blobs2(n=200,noise=1,seed=7,sep=3)"),
    ("moons2(n=200,noise=0.30000000000000004)", "moons2(n=200,noise=0.30000000000000004,seed=7)"),
    ("moons2(n=300,noise=0.3,seed=3)", "moons2(n=300,noise=0.3,seed=3)"),
])
def test_task_ids_name_their_data_exactly(spec, task_id):
    assert load_task(spec).task_id == task_id


def test_load_task_rejects_bad_specs():
    with pytest.raises(TaskError, match="unknown task"):
        load_task("mystery")
    with pytest.raises(TaskError, match="key=value"):
        load_task("blobs2(7)")
    with pytest.raises(TaskError, match="bad parameters"):
        load_task("blobs2(banana=1)")
    with pytest.raises(TaskError, match="cannot parse"):
        load_task("blobs2(")
    with pytest.raises(TaskError, match="unknown model"):
        load_task("blobs2(model=forest)")


@pytest.mark.parametrize("spec", [
    "moons2(hidden=1e400)", "blobs2(batch=1e400)",   # inf is not an integer
    "moons2(hidden=nan)", "quad1d(theta0=abc)",      # nor is nan; ValueError from float
    "blobs2(seed=-1)",                               # numpy's seeding rejects it
])
def test_load_task_reports_unusable_values_as_bad_parameters(spec):
    with pytest.raises(TaskError, match="bad parameters for task"):
        load_task(spec)


# Each builder's keys; size fields stay below a few thousand so that no example allocates much.
_SPEC_KEYS = {"blobs2": ("seed", "n", "sep", "noise", "model", "hidden", "batch"),
              "moons2": ("seed", "n", "noise", "model", "hidden", "batch"),
              "quad1d": ("lam", "theta0"), "landscape2d": (),
              "mnist-idx": ("path", "hidden", "batch", "limit", "val_limit")}
_SIZE_KEYS = ("n", "hidden", "batch", "limit", "val_limit")
_ODD_VALUES = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "none", "None", "true",
                               "False", "abc", "'mlp'", "logreg", "''", "-0"])


def _spec_value(key: str):
    if key in _SIZE_KEYS:
        number = st.one_of(st.integers(-5, 3000), st.floats(-5.0, 3000.0))
    else:
        number = st.one_of(st.integers(), st.floats())
    return st.one_of(number.map(str), _ODD_VALUES)


@st.composite
def _task_specs(draw):
    """Built-in or unknown names with known or unknown keys, or any text at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=30))
    name = draw(st.sampled_from(TASK_NAMES) if draw(st.integers(0, 3))
                else st.from_regex(r"[A-Za-z0-9_-]{1,10}", fullmatch=True))
    known = _SPEC_KEYS.get(name.lower(), ())
    other = st.sampled_from(("banana",) + _SIZE_KEYS + _SPEC_KEYS["blobs2"] + ("lam", "path"))
    keys = draw(st.lists(st.sampled_from(known) if known and draw(st.integers(0, 4)) else other,
                         max_size=4))
    if not keys and draw(st.booleans()):
        return name
    return f"{name}({', '.join(f'{k}={draw(_spec_value(k))}' for k in keys)})"


@pytest.mark.parametrize("spec", ["blobs2(seed=1.5)", "blobs2(n=200,batch=2.5)", "blobs2(n=200.5)",
                                  "moons2(n=200,hidden=2.7)", "blobs2(seed=true)"])
def test_load_task_refuses_fractions_and_bools_for_integer_fields(spec):
    with pytest.raises(TaskError, match=r"bad parameters for task .*=.* is not an integer"):
        load_task(spec)


def test_load_task_keeps_integral_floats_for_integer_fields():
    task = load_task("moons2(n=200.0,seed=2.0,hidden=3.0,batch=4.0)")
    assert task.task_id == load_task("moons2(n=200,seed=2)").task_id
    assert (task.model_id, task.batch_size, task.n_train + task.n_val) == ("mlp3", 4, 200)
    assert load_task("blobs2(n=200.0)").task_id == load_task("blobs2(n=200)").task_id


def _given_values(spec: str) -> dict:
    """The ``key=value`` overrides of a spec, converted as load_task converts them."""
    m = re.search(r"\((.*)\)", spec, re.DOTALL)
    parts = [p.split("=", 1) for p in m.group(1).split(",") if "=" in p] if m else []
    return {key.strip(): _coerce(value) for key, value in parts}


def _shown_integers(task: Task) -> dict:
    """The integer fields a built task shows in its ids and sizes."""
    shown = {"n": task.n_train + task.n_val, "batch": task.batch_size}
    for key in ("seed", "limit"):
        m = re.search(rf"\b{key}=(-?\d+)", task.task_id)
        if m:
            shown[key] = int(m.group(1))
    m = re.fullmatch(r"mlp(\d+)(x10)?", task.model_id)
    if m:
        shown["hidden"] = int(m.group(1))
    return shown


_FLOAT_KEYS = ("sep", "noise", "lam", "theta0")


def _shown_floats(task: Task) -> dict:
    """The float fields a built task shows in its id (quad1d leaves out theta0 = 1)."""
    shown = {key: float(text) for key, text in
             re.findall(rf"\b({'|'.join(_FLOAT_KEYS)})=([^,)]+)", task.task_id)}
    if task.task_id.startswith("quad1d"):
        shown.setdefault("theta0", 1.0)
    return shown


@given(_task_specs())
@settings(max_examples=300, deadline=None)
def test_any_task_spec_returns_a_task_or_raises_a_task_error(spec):
    try:
        task = load_task(spec)
    except TaskError:
        return
    assert isinstance(task, Task)
    # A task that builds carries every integer and float field exactly as
    # given, never truncated, and never a bool read as a number.
    shown = {**_shown_integers(task), **_shown_floats(task)}
    for key, value in _given_values(spec).items():
        if key in _SIZE_KEYS + ("seed",) + _FLOAT_KEYS and key in shown:
            assert not isinstance(value, bool) and value == shown[key], (key, value, shown)


@pytest.mark.parametrize("spec", ["blobs2(noise=true)", "blobs2(sep=True)", "moons2(noise=false)",
                                  "quad1d(lam=true)", "quad1d(theta0=false)"])
def test_load_task_refuses_bools_for_float_fields(spec):
    with pytest.raises(TaskError, match=r"bad parameters for task .*=.* is not a number"):
        load_task(spec)


def test_dataset_argument_validation():
    with pytest.raises(TaskError):
        blobs2(n=5)
    with pytest.raises(TaskError):
        blobs2(batch=0)
    with pytest.raises(TaskError):
        blobs2(noise=-1.0)
    with pytest.raises(TaskError):
        blobs2(sep=0.0)
    with pytest.raises(TaskError):
        moons2(noise=float("nan"))
    with pytest.raises(TaskError):
        moons2(model="mlp", hidden=0)
    for theta0 in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(TaskError, match="theta0 must be finite"):
            quad1d(theta0=theta0)


def test_idx_pipeline_reads_fixture(tmp_path):
    d = write_idx_fixture(str(tmp_path))
    task = mnist_idx(path=d, hidden=2, batch=8)
    assert task.n_train == 40 and task.n_val == 12
    assert task.param_len == 64 * 2 + 2 + 2 * 10 + 10
    theta = task.init(np.random.default_rng((0, 1)))
    loss, grad = row_loss_grad(task, theta, np.arange(8))
    assert np.isfinite(loss) and np.isfinite(grad).all()
    _, top1 = row_eval(task, theta)
    assert 0.0 <= top1 <= 1.0
    assert task.task_id == "mnist-idx"
    assert mnist_idx(path=d, limit=30).task_id == "mnist-idx(limit=30)"
    assert mnist_idx(path=d, val_limit=6).task_id == "mnist-idx(val_limit=6)"
    assert mnist_idx(path=d, limit=30, val_limit=6).task_id == "mnist-idx(limit=30,val_limit=6)"


IMAGES, LABELS = "train-images-idx3-ubyte", "train-labels-idx1-ubyte"


def _idx_error(root, name, damage):
    """``(path, message)`` of the TaskError once ``damage`` rewrites fixture file ``name``."""
    path = os.path.join(write_idx_fixture(str(root)), name)
    with open(path, "r+b") as f:
        damage(f)
    with pytest.raises(TaskError) as info:
        mnist_idx(path=os.path.dirname(path))
    return path, str(info.value)


def test_idx_rejects_truncated_images(tmp_path):
    # and truncated labels: one reader serves both
    for what, name, size, need in (("image", IMAGES, 100, 16 + 40 * 64),
                                   ("label", LABELS, 20, 8 + 40)):
        path, msg = _idx_error(tmp_path / what, name, lambda f: f.truncate(size))
        assert msg == f"{what} file {path!r} is truncated: {size} bytes, need {need}"


def test_idx_rejects_wrong_magic(tmp_path):
    for what, name, magic in (("image", IMAGES, 0x00000803), ("label", LABELS, 0x00000801)):
        path, msg = _idx_error(tmp_path / what, name, lambda f: f.write(struct.pack(">i", 0x707)))
        assert msg == f"{what} file {path!r} has magic 0x00000707, expected {magic:#010x}"


def test_idx_rejects_label_count_mismatch(tmp_path):
    d = write_idx_fixture(str(tmp_path))
    lbl = os.path.join(d, "train-labels-idx1-ubyte")
    with open(lbl, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, 7))
        f.write(bytes(7))
    with pytest.raises(TaskError, match="labels for"):
        mnist_idx(path=d)


def test_idx_rejects_short_header(tmp_path):
    for what, name in (("image", "t10k-images-idx3-ubyte"), ("label", LABELS)):
        path, msg = _idx_error(tmp_path / what, name, lambda f: f.truncate(2))
        assert msg == f"{what} file {path!r} is too short for an IDX header"


def test_idx_missing_file(tmp_path):
    with pytest.raises(TaskError, match="cannot read"):
        mnist_idx(path=str(tmp_path / "nowhere"))
