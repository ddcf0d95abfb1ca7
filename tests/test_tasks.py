"""Task construction, determinism, gradient, and format tests."""
import math
import os
import re
import struct

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from lrkit import (LANDSCAPE, TASK_NAMES, DbKey, Fix, PolicyDb, Task, TaskError, blobs2,
                   landscape2d, load_task, moons2, quad1d, verify_policy)
from lrkit.tasks import _coerce, mnist_idx
from _factories import make_record
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


@pytest.mark.parametrize("spec", [123, b"quad1d", ["quad1d"]], ids=["int", "bytes", "list"])
def test_load_task_refuses_a_spec_that_is_not_a_str(spec):
    with pytest.raises(TaskError, match=f"^{re.escape(f'cannot parse task spec {spec!r}')}$"):
        load_task(spec)


@pytest.mark.parametrize("spec", ["moons2(n=40,n=50)", "moons2(n=40, n =40)",
                                  "quad1d(lam=2,theta0=1,lam=2)"])
def test_load_task_refuses_a_repeated_key(spec):
    # Taking the last of a repeated key would build a task the spec does not name once.
    key = "lam" if spec.startswith("quad1d") else "n"
    with pytest.raises(TaskError, match=rf"^task parameter '{key}' is given twice$"):
        load_task(spec)


@pytest.mark.parametrize("spec", [
    "moons2(hidden=1e400)", "blobs2(batch=1e400)",   # inf is not an integer
    "moons2(hidden=nan)", "quad1d(theta0=abc)",      # nor is nan; ValueError from float
    "blobs2(seed=-1)",                               # nor is a negative seed
])
def test_load_task_reports_unusable_values_as_bad_parameters(spec):
    with pytest.raises(TaskError, match="bad parameters for task"):
        load_task(spec)


@pytest.mark.parametrize("build,name,seed", [(blobs2, "blobs2", -1), (moons2, "moons2", -2)])
def test_a_builder_refuses_a_negative_seed_as_a_bad_parameter(build, name, seed):
    with pytest.raises(TaskError) as raised:
        build(seed=seed)
    assert str(raised.value) == f"bad parameters for task {name!r}: seed must be >= 0, got {seed}"


# Each builder's counts with the least value each takes; None leaves a cap unset.
_COUNT_BOUNDS = {"blobs2": {"seed": 0, "n": 10, "hidden": 1, "batch": 1},
                 "moons2": {"seed": 0, "n": 10, "hidden": 1, "batch": 1},
                 "mnist-idx": {"hidden": 1, "batch": 1, "limit": 1, "val_limit": 1}}


@pytest.mark.parametrize("name, key", [(name, key) for name, bounds in _COUNT_BOUNDS.items()
                                       for key in bounds])
def test_every_count_is_refused_below_its_bound_or_as_a_non_integer(tmp_path, name, key):
    # blobs2 trains model=logreg, and holds hidden to its rule all the same.
    build = {"blobs2": blobs2, "moons2": moons2,
             "mnist-idx": lambda **kw: mnist_idx(path=write_idx_fixture(str(tmp_path)), **kw)}
    low = _COUNT_BOUNDS[name][key]
    for value in [low - 1, low + 0.5, True, math.nan, math.inf] + (
            [] if key in ("limit", "val_limit") else [None]):
        with pytest.raises(TaskError) as raised:
            build[name](**{key: value})
        rule = (f"{key} must be >= {low}, got {value!r}" if value == low - 1
                else f"{key}={value!r} is not an integer")
        assert str(raised.value) == f"bad parameters for task {name!r}: {rule}"


@pytest.mark.parametrize("key", ["limit", "val_limit"])
@pytest.mark.parametrize("cap", [-1, 0])
def test_mnist_idx_refuses_a_cap_below_one(tmp_path, key, cap):
    # A negative cap would drop examples from the end, under an id that names the cap.
    spec = f"mnist-idx(path={write_idx_fixture(str(tmp_path))},{key}={cap})"
    with pytest.raises(TaskError) as raised:
        load_task(spec)
    assert str(raised.value) == (f"bad parameters for task 'mnist-idx': "
                                 f"{key} must be >= 1, got {cap}")


@pytest.mark.parametrize("spec, task_id, model_id, sizes", [
    ("blobs2", "blobs2(n=2000,noise=1,seed=7,sep=3)", "logreg", (1600, 400, 3, 32)),
    ("moons2", "moons2(n=2000,noise=0.25,seed=7)", "mlp8", (1600, 400, 33, 32)),
    ("moons2(n=3000,noise=0.3,seed=7,batch=4)", "moons2(batch=4,n=3000,noise=0.3,seed=7)", "mlp8",
     (2400, 600, 33, 4)),
    ("blobs2(model=mlp,hidden=3,n=200.0)", "blobs2(n=200,noise=1,seed=7,sep=3)", "mlp3",
     (160, 40, 13, 32)),
    ("blobs2(sep=2,noise=0.5,seed=3,n=101)", "blobs2(n=101,noise=0.5,seed=3,sep=2)", "logreg",
     (81, 20, 3, 32)),
    ("moons2(model=logreg,n=11)", "moons2(n=11,noise=0.25,seed=7)", "logreg", (9, 2, 3, 32)),
    ("moons2(noise=0,seed=0,n=10)", "moons2(n=10,noise=0,seed=0)", "mlp8", (8, 2, 33, 32)),
])
def test_planar_specs_keep_their_ids_and_sizes(spec, task_id, model_id, sizes):
    # Stored trials are keyed by these ids, so a spec keeps its ids and sizes.
    task = load_task(spec)
    assert (task.task_id, task.model_id) == (task_id, model_id)
    assert (task.n_train, task.n_val, task.param_len, task.batch_size) == sizes


def test_a_batch_other_than_the_default_is_part_of_the_task_id(tmp_path):
    small, default = load_task("moons2(n=200,batch=4)"), load_task("moons2(n=200)")
    assert (small.task_id, small.model_id) == ("moons2(batch=4,n=200,noise=0.25,seed=7)", "mlp8")
    assert (default.task_id, default.model_id) == ("moons2(n=200,noise=0.25,seed=7)", "mlp8")
    assert load_task("moons2(n=200,batch=32)").task_id == default.task_id
    # A row stored for the default batch is trusted for it alone: the default
    # task hands it back in phase 2, the batch-4 task searches in phase 3.
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    db.put(DbKey(default.task_id, default.model_id, "momentum"),
           make_record(Fix(0.5), accs=[(5, 1.0)], task_id=default.task_id,
                       model_id=default.model_id, optimizer="momentum"))
    verdict = verify_policy(Fix(1e-4), default, 0.99, budget_iters=10, db=db)
    assert (verdict.phase_reached, verdict.replacement) == (2, Fix(0.5))
    verdict = verify_policy(Fix(1e-4), small, 0.99, budget_iters=10, db=db)
    assert verdict.phase_reached == 3 and verdict.replacement != Fix(0.5)


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
    assert task.task_id == load_task("moons2(n=200,seed=2,batch=4)").task_id
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
    with pytest.raises(TaskError, match=r"^bad parameters for task '\w+': \w+ must be .+, got (True|False)$"):
        load_task(spec)


@pytest.mark.parametrize("spec", ["quad1d(lam=9007199254740993)",
                                  "blobs2(sep=36028797018963971)",
                                  "moons2(noise=9007199254740993)",
                                  "quad1d(theta0=-9007199254740993)"])
def test_load_task_refuses_an_int_no_float_holds_for_a_float_field(spec):
    # Read as the nearest float, the field would differ from the value the spec gives.
    with pytest.raises(TaskError, match=r"^bad parameters for task '\w+': \w+=-?\d+ is not "
                                        r"exactly a float$"):
        load_task(spec)


def test_an_int_a_float_holds_exactly_is_taken_for_a_float_field():
    assert quad1d(lam=2**53).task_id == "quad1d(lam=9007199254740992.0)"


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
    assert task.task_id == f"mnist-idx(path={d},batch=8)"
    assert mnist_idx(path=d, batch=64).task_id == f"mnist-idx(path={d})"
    assert mnist_idx(path=d, limit=30).task_id == f"mnist-idx(path={d},limit=30)"
    assert mnist_idx(path=d, val_limit=6).task_id == f"mnist-idx(path={d},val_limit=6)"
    assert mnist_idx(path=d, limit=30, val_limit=6).task_id == \
        f"mnist-idx(path={d},limit=30,val_limit=6)"


def test_idx_directories_with_different_data_build_different_ids(tmp_path):
    first = write_idx_fixture(str(tmp_path / "a"), seed=3)
    second = write_idx_fixture(str(tmp_path / "b"), seed=4)
    tasks = [load_task(f"mnist-idx(path={d},hidden=2)") for d in (first, second)]
    assert [t.task_id for t in tasks] == [f"mnist-idx(path={first})", f"mnist-idx(path={second})"]
    assert tasks[0].model_id == tasks[1].model_id == "mlp2x10"


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


def test_idx_needs_a_train_example(tmp_path):
    with pytest.raises(TaskError) as info:
        mnist_idx(path=write_idx_fixture(str(tmp_path), n_train=0))
    assert str(info.value) == "mnist-idx needs at least one train and one val example"


def test_idx_rejects_short_header(tmp_path):
    for what, name in (("image", "t10k-images-idx3-ubyte"), ("label", LABELS)):
        path, msg = _idx_error(tmp_path / what, name, lambda f: f.truncate(2))
        assert msg == f"{what} file {path!r} is too short for an IDX header"


def test_idx_missing_file(tmp_path):
    with pytest.raises(TaskError, match="cannot read"):
        mnist_idx(path=str(tmp_path / "nowhere"))
