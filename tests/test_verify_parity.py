"""Three-phase verification, byte for byte against ``verify_reference``.

``verify_policy`` consults the store before it trains, and trains the
candidate as one population with the ranked policies it re-trains.  Run
on copies of one store, it must give the reference's verdict document and
leave the same store bytes, in every phase: a verified candidate, a
phase-2 hand-back of a trusted mean, phases 2 and 3 after re-training
policies stored only under another optimizer, a stored COMPOSITE realized
over another budget, and an ``n_top`` cut.
"""
import shutil

import pytest

import verify_reference as ref
from lrkit import (Composite, Cyclic, DbKey, Fix, PolicyDb, Segment, grid_search, load_task,
                   mean_peak_by_policy, verdict_to_doc, verify_policy)

from _factories import make_record

TASK = load_task("moons2(n=200)")
BUDGET, SEEDS = 40, (0, 1)
WEAK = Fix(k=1e-4)  # a candidate below every target here but 0


def _key(optimizer: str) -> DbKey:
    return DbKey(dataset_id=TASK.task_id, model_id=TASK.model_id, optimizer_id=optimizer)


def _stock(path, trained=(), made=()):
    """A store of ``trained`` ``(optimizer, policies)`` grids run at the budget and
    ``made`` ``(optimizer, policy, peak)`` synthetic records."""
    db = PolicyDb(str(path))
    for optimizer, policies in trained:
        for rec in grid_search(TASK, policies, budget_iters=BUDGET, seeds=SEEDS,
                               optimizer=optimizer):
            db.put(_key(optimizer), rec, stable=True)
    for optimizer, policy, peak in made:
        db.put(_key(optimizer), make_record(policy, accs=[(10, peak)], task_id=TASK.task_id,
                                            model_id=TASK.model_id, optimizer=optimizer),
               stable=True)
    return path


def _read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _both(tmp_path, store, candidate, target, **kwargs):
    """The reference's and this verify's verdicts, each on its own copy of ``store``;
    asserts equal verdict documents and store bytes, and returns the reference verdict."""
    verdicts = []
    for name, verify in (("ref", ref.verify_policy), ("new", verify_policy)):
        path = tmp_path / f"{name}.jsonl"
        shutil.copyfile(store, path)
        verdict = verify(candidate, TASK, target, budget_iters=BUDGET, db=PolicyDb(str(path)),
                         seeds=SEEDS, optimizer="sgd", stable=True, **kwargs)
        verdicts.append((verdict_to_doc(verdict, stable=True), _read(path)))
    assert verdicts[0] == verdicts[1]
    return verdicts[0][0]


def _sgd_means(policies) -> dict:
    return dict(mean_peak_by_policy(grid_search(TASK, policies, budget_iters=BUDGET,
                                                seeds=SEEDS, optimizer="sgd")))


def test_phase1_matches_the_reference(tmp_path):
    store = _stock(tmp_path / "store.jsonl", trained=[("sgd", [Fix(k=0.05)]),
                                                      ("momentum", [Fix(k=0.3)])])
    doc = _both(tmp_path, store, Fix(k=0.5), 0.5)
    assert doc["phase_reached"] == 1
    assert len(doc["evidence"]) == 2 * len(SEEDS)  # the candidate and one re-train


def test_phase2_trusting_same_optimizer_means_matches_the_reference(tmp_path):
    trusted = [Fix(k=0.5), Cyclic(kind="TRI", k0=0.01, k1=0.5, l=10)]
    store = _stock(tmp_path / "store.jsonl", trained=[("sgd", trusted)])
    doc = _both(tmp_path, store, WEAK, max(_sgd_means(trusted).values()))
    assert doc["phase_reached"] == 2 and doc["replacement"] is not None
    assert len(doc["evidence"]) == len(SEEDS)  # the candidate alone


@pytest.mark.parametrize("phase", [2, 3])
def test_retraining_other_optimizer_policies_matches_the_reference(tmp_path, phase):
    others = [Fix(k=0.5), Fix(k=0.1), Cyclic(kind="SIN", k0=0.01, k1=0.5, l=10)]
    store = _stock(tmp_path / "store.jsonl", trained=[("momentum", others)],
                   made=[("sgd", Fix(k=0.02), 0.3)])
    target = max(_sgd_means(others).values()) if phase == 2 else 1.0
    doc = _both(tmp_path, store, WEAK, target)
    assert doc["phase_reached"] == phase
    assert len(doc["evidence"]) >= 3 * len(SEEDS)  # the candidate and two re-trains at least


@pytest.mark.parametrize("optimizer", ["sgd", "momentum"])
def test_a_composite_realized_over_another_budget_matches_the_reference(tmp_path, optimizer):
    wide = Composite(segments=(Segment(0, 300, Fix(k=0.5)),))
    store = _stock(tmp_path / "store.jsonl", trained=[("momentum", [Fix(k=0.2)])],
                   made=[(optimizer, wide, 0.99), ("sgd", Fix(k=0.05), 0.6)])
    doc = _both(tmp_path, store, WEAK, 0.7)
    # Neither re-trained nor handed back: the re-trained FIX is.
    assert doc["phase_reached"] == 2 and doc["replacement"] == {"type": "FIX", "k": 0.2}


def test_an_n_top_cut_matches_the_reference(tmp_path):
    # The candidate is stored best under sgd, so the cut is left to the others.
    ranked = [(Fix(k=0.5), 0.9), (Fix(k=0.2), 0.8), (Fix(k=0.1), 0.7), (Fix(k=0.05), 0.6)]
    store = _stock(tmp_path / "store.jsonl", made=[("sgd", WEAK, 0.95)] +
                   [("momentum", policy, peak) for policy, peak in ranked])
    doc = _both(tmp_path, store, WEAK, 0.0, n_top=2)
    assert doc["phase_reached"] == 1
    retrained = [rec["policy"] for rec in doc["evidence"][len(SEEDS):]]
    assert retrained == [{"type": "FIX", "k": k} for k in (0.5, 0.5, 0.2, 0.2)]
