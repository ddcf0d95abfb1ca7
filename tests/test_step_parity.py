"""One training step, bit for bit against ``step_reference``.

The sigmoid, the heads and the optimizer kernels are compared by
``tobytes()`` with the reference over random arrays mixed with edge
values (signed zeros, infinities, NaNs with payloads of both signs,
subnormals, exp's overflow thresholds), in C order, strided and
transposed.  Whole ``train_population`` records are compared with the
reference heads and kernels swapped in, diverging rows included.
"""
import json

import numpy as np
import pytest

import step_reference as ref
from lrkit import (Fix, PolicyLadderController, blobs2, mnist_idx, moons2, record_to_doc, tasks,
                   train_population, training)
from lrkit.optim import KERNELS

from test_tasks import write_idx_fixture

_NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0xFFF80000DEADBEEF,
             0x7FF4000000000000, 0xFFF0000000000123, 0x7FFFFFFFFFFFFFFF]
EDGES = np.concatenate([
    np.array(_NAN_BITS, dtype=np.uint64).view(np.float64),
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
     1e308, -1e308, 709.78, -709.78, 710.0, -710.0, 745.2, -745.2, 746.0, -746.0,
     36.7, -36.7, 1e-17, -1e-17]])
K_SIZES = (1, 2, 3, 18, 72)
B_SIZES = (1, 2, 7, 32, 600)
LAYOUTS = ("C", "strided", "transposed")


def _array(rng, shape, layout):
    """Random float64s of ``shape``, about a fifth of them edge values, laid out as asked."""
    full = {"C": shape, "strided": (*shape[:-1], 2 * shape[-1]),
            "transposed": shape[::-1]}[layout]
    x = rng.standard_normal(full) * 10.0 ** rng.integers(-4, 4, size=full)
    hit = rng.random(full) < 0.2
    x[hit] = rng.choice(EDGES, size=int(hit.sum()))
    return {"C": x, "strided": x[..., ::2], "transposed": x.T}[layout]


def _same(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", K_SIZES)
def test_sigmoid_matches_reference_bitwise(k):
    rng = np.random.default_rng(k)
    with np.errstate(all="ignore"):
        for b in B_SIZES:
            for layout in LAYOUTS:
                z = _array(rng, (k, b), layout)
                assert _same(tasks._sigmoid(z), ref.sigmoid(z)), (k, b, layout)
        z = np.concatenate([EDGES, -EDGES])
        assert _same(tasks._sigmoid(z), ref.sigmoid(z))


def _heads_agree(new, old, Z, ys) -> None:
    with np.errstate(all="ignore"):
        loss, dZ = new.loss_and_dZ(Z, ys)
        ref_loss, ref_dZ = old.loss_and_dZ(Z, ys)
        assert _same(loss, ref_loss) and _same(dZ, ref_dZ)
        assert _same(new.loss(Z, ys), old.loss(Z, ys))
        assert _same(new.top1(Z, ys), old.top1(Z, ys))


@pytest.mark.parametrize("k", K_SIZES)
def test_binary_head_matches_reference_bitwise(k):
    rng = np.random.default_rng(100 + k)
    for b in B_SIZES:
        for layout in LAYOUTS:
            Z = _array(rng, (k, b), layout)[..., None]
            shared = rng.integers(0, 2, size=b).astype(float)
            for ys in (shared, np.broadcast_to(shared, (k, b)),
                       rng.integers(0, 2, size=(k, b)).astype(float)):
                _heads_agree(tasks._binary_head, ref.binary_head, Z, ys)


@pytest.mark.parametrize("k", K_SIZES)
def test_softmax_head_matches_reference_bitwise(k):
    rng = np.random.default_rng(200 + k)
    for b in B_SIZES:
        for layout in ("C", "strided"):
            Z = _array(rng, (k, b, 10), layout)
            for ys in (rng.integers(0, 10, size=b), rng.integers(0, 10, size=(k, b))):
                _heads_agree(tasks._softmax_head, ref.softmax_head, Z, ys)


@pytest.mark.parametrize("kind", sorted(KERNELS))
@pytest.mark.parametrize("k", K_SIZES)
def test_kernels_match_reference_and_leave_inputs_alone(kind, k):
    rng = np.random.default_rng((300, k, len(kind)))
    n_slots, kernel = KERNELS[kind]
    ref_kernel = ref.KERNELS[kind][1]
    with np.errstate(all="ignore"):
        for p in B_SIZES:
            for layout in LAYOUTS:
                theta, grad = _array(rng, (k, p), layout), _array(rng, (k, p), layout)
                slots = tuple(_array(rng, (k, p), layout) for _ in range(n_slots))
                # A rate column cut from a wider matrix, as the engine passes it, or a scalar.
                table = 10.0 ** rng.uniform(-6, 8, size=(k, 5))
                for lr in (table[:, 2:3], float(table[0, 0])):
                    for t in (1, 2, 57, 3000):
                        before = [a.tobytes() for a in (theta, grad, *slots)]
                        out, out_slots = kernel(theta, slots, grad, lr, t)
                        assert [a.tobytes() for a in (theta, grad, *slots)] == before
                        ref_out, ref_slots = ref_kernel(theta, slots, grad, lr, t)
                        assert _same(out, ref_out), (kind, k, p, layout, t)
                        assert len(out_slots) == len(ref_slots) == n_slots
                        assert all(_same(a, b) for a, b in zip(out_slots, ref_slots))


LADDER = [Fix(k=0.05), Fix(k=0.01), Fix(k=0.002)]


def _task(name, idx_dir):
    return {"blobs2": lambda: blobs2(n=200),
            "moons2": lambda: moons2(n=200),
            "idx": lambda: mnist_idx(path=idx_dir, hidden=4, batch=8)}[name]()


def _records(name, idx_dir, optimizer):
    """Stable documents and snapshot bytes of one mixed population, a diverging rate among it."""
    task = _task(name, idx_dir)
    trials = [(Fix(k=0.05), 0), (Fix(k=1e8), 1), (Fix(k=0.3), 1), (Fix(k=1e8), 0),
              (PolicyLadderController(LADDER, 1, 60), 2)]
    records = train_population(task, trials, budget_iters=60, optimizer=optimizer,
                               eval_every=7, snapshot_stride=20)
    docs = json.dumps([record_to_doc(rec, stable=True) for rec in records])
    snaps = [(it, theta.tobytes()) for rec in records for it, theta in rec.snapshots]
    return docs, snaps, [rec.diverged for rec in records]


@pytest.mark.parametrize("optimizer", sorted(KERNELS))
@pytest.mark.parametrize("name", ["blobs2", "moons2", "idx"])
def test_population_records_match_reference_step(name, optimizer, tmp_path, monkeypatch):
    idx_dir = write_idx_fixture(str(tmp_path))
    new = _records(name, idx_dir, optimizer)
    with monkeypatch.context() as m:
        m.setattr(tasks, "_binary_head", ref.binary_head)
        m.setattr(tasks, "_softmax_head", ref.softmax_head)
        m.setattr(training, "KERNELS", ref.KERNELS)
        old = _records(name, idx_dir, optimizer)
    assert new == old
    assert any(new[2]) and not all(new[2])
