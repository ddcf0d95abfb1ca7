"""Tests for the JSON-lines policy store."""
import dataclasses
import json
import math
import multiprocessing
import os
import tempfile
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from lrkit import policydb, training, tuning
from lrkit import (Composite, Cyclic, DbError, DbKey, Fix, Metrics, PolicyDb, SCHEMA_VERSION,
                   ScheduleSeries, Segment, TaskError, TrialRecord, TrialSummary, TunerError,
                   iterations_to_target, metric_value, moons2, quad1d, rank_policies,
                   record_from_doc, record_to_doc, train)
from lrkit.policydb import SERIES_CAP

from _factories import make_record

try:
    import fcntl
except ImportError:  # non-POSIX
    fcntl = None

KEY = DbKey(dataset_id="blobs", model_id="logreg", optimizer_id="sgd")
OTHER = DbKey(dataset_id="blobs", model_id="mlp", optimizer_id="sgd")


def seeded_db(path, peaks=(0.9, 0.95, 0.8)):
    db = PolicyDb(str(path))
    for i, (k, peak) in enumerate(zip((0.1, 0.2, 0.3), peaks)):
        db.put(KEY, make_record(Fix(k=k), seed=i, accs=[(10, peak)],
                                task_id="blobs", model_id="logreg"))
    return db


# ---------------------------------------------------------------------------
# one trial type: a record is a summary, and the summary is the one codec

def test_a_record_is_a_frozen_summary_whose_fields_come_first():
    assert policydb.TrialSummary is training.TrialSummary is TrialSummary
    rec = make_record(Fix(k=0.1), accs=[(5, 0.5), (10, 0.7)])
    assert isinstance(rec, TrialSummary)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.seed = 1
    names = [f.name for f in dataclasses.fields(TrialSummary)]
    assert names == ["task_id", "model_id", "policy", "optimizer", "seed", "budget_iters",
                     "eval_every", "diverged", "peak_top1", "iter_at_peak", "final_loss"]
    assert [f.name for f in dataclasses.fields(TrialRecord)] == names + [
        "series", "lr_trace", "snapshots", "wall_ms_total"]


@pytest.mark.parametrize("final_loss", [0.25, math.inf, math.nan])
def test_the_stored_summary_is_the_head_of_the_record_document(tmp_path, final_loss):
    rec = make_record(Fix(k=0.1), accs=[(5, 0.5), (10, 0.7)], final_loss=final_loss,
                      task_id="blobs", model_id="logreg")
    doc = TrialSummary.to_doc(rec)
    assert list(record_to_doc(rec))[:len(doc) + 2] == [*doc, "series", "lr_trace"]
    assert {k: record_to_doc(rec)[k] for k in doc} == doc
    assert doc["policy"] == {"type": "FIX", "k": 0.1}
    assert doc["final_loss"] == (0.25 if math.isfinite(final_loss) else repr(final_loss))
    db = PolicyDb(str(tmp_path / "db.jsonl"))
    db.put(KEY, rec)
    for row in (db.query(KEY)[0], PolicyDb(str(tmp_path / "db.jsonl")).query(KEY)[0]):
        assert row.summary_doc == doc
        assert type(row.summary) is TrialSummary
        assert TrialSummary.to_doc(row.summary) == TrialSummary.to_doc(row.record) == doc
        assert repr(row.summary.final_loss) == repr(float(final_loss))


def test_record_from_doc_refuses_a_final_loss_of_null():
    doc = record_to_doc(make_record(Fix(k=0.1), accs=[(5, 0.5)]))
    doc["final_loss"] = None
    with pytest.raises(TaskError, match=r"^malformed trial record document: TypeError"):
        record_from_doc(doc)


def test_record_from_doc_refuses_a_document_that_is_not_a_dict():
    with pytest.raises(TaskError, match=r"^malformed trial record document: AttributeError"):
        record_from_doc([])


def test_ranking_a_summary_by_iters_to_target_is_refused(tmp_path):
    db = seeded_db(tmp_path / "db.jsonl")
    row = db.query(KEY)[0]
    message = r"^iters_to_target reads a trial's series, which a TrialSummary does not hold$"
    with pytest.raises(TunerError, match=message):
        rank_policies([row.summary], metric="iters_to_target", target_top1=0.5)
    with pytest.raises(TunerError, match=message):
        metric_value(row.summary, "iters_to_target", 0.5)
    with pytest.raises(TunerError, match=message):
        iterations_to_target(row.summary, 0.5)
    assert metric_value(row.record, "iters_to_target", 0.5) == 10.0
    assert db.top_n(KEY, 1, metric="iters_to_target", target_top1=0.5)[0][1] == 10.0


# ---------------------------------------------------------------------------
# basics

def test_put_assigns_increasing_ids_and_query_preserves_order(tmp_path):
    db = seeded_db(tmp_path / "db.jsonl")
    db.put(OTHER, make_record(Fix(k=0.5), accs=[(10, 0.7)], task_id="blobs",
                              model_id="mlp"))
    assert len(db) == 4
    got = db.query(KEY)
    assert [r.id for r in got] == [1, 2, 3]
    assert [r.record.seed for r in got] == [0, 1, 2]
    assert all(r.key == KEY for r in got)
    assert db.query(DbKey(dataset_id="x", model_id="y", optimizer_id="z")) == []


def test_key_validation():
    with pytest.raises(DbError, match="dataset_id"):
        DbKey(dataset_id="", model_id="m", optimizer_id="o")
    with pytest.raises(DbError, match="malformed key"):
        DbKey.from_doc({"dataset_id": "d"})


def test_put_rejects_bad_key_and_inconsistent_record(tmp_path):
    db = PolicyDb(str(tmp_path / "db.jsonl"))
    with pytest.raises(DbError, match="DbKey"):
        db.put(("blobs", "logreg", "sgd"), make_record(Fix(k=0.1)))
    lying = TrialRecord(task_id="t", model_id="m", policy=Fix(k=0.1), optimizer="sgd",
                        seed=0, budget_iters=10, eval_every=1,
                        series=[Metrics(iteration=10, loss=1.0, top1=0.8)],
                        lr_trace=ScheduleSeries(),
                        diverged=False, peak_top1=0.9, iter_at_peak=10, final_loss=1.0)
    with pytest.raises(DbError, match="series max"):
        db.put(KEY, lying)
    assert len(db) == 0


@pytest.mark.parametrize("record", [
    TrialSummary.from_doc(TrialSummary.to_doc(make_record(Fix(k=0.1)))), "x"],
    ids=["summary", "str"])
def test_put_refuses_what_is_not_a_trial_record_before_it_touches_the_file(tmp_path, record):
    path = tmp_path / "db.jsonl"
    db = PolicyDb(path)
    with pytest.raises(DbError) as refused:
        db.put(KEY, record)
    assert str(refused.value) == f"record must be a TrialRecord, got {type(record).__name__}"
    assert not path.exists() and len(db) == 0


@pytest.mark.parametrize("path", [None, b"db.jsonl", 3], ids=["none", "bytes", "int"])
def test_a_store_path_that_is_not_a_str_is_refused_and_creates_no_file(tmp_path, monkeypatch,
                                                                         path):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(DbError, match=r"^store path must be a str or an os\.PathLike of one"):
        PolicyDb(path)
    assert os.listdir(tmp_path) == []
    assert len(PolicyDb(tmp_path / "db.jsonl")) == 0  # a pathlib.Path is a str path


@pytest.mark.parametrize("segments", [
    (), (Segment(0, 10, Composite((Segment(0, 10, Fix(k=0.1)),))),)], ids=["empty", "nested"])
def test_put_refuses_a_composite_that_does_not_read_back_and_leaves_the_file(tmp_path, segments):
    path = tmp_path / "db.jsonl"
    db = seeded_db(path)
    before = path.read_bytes()
    with pytest.raises(DbError, match=r"^cannot store the record of task 'toy', seed 0: COMPOSITE "):
        db.put(KEY, make_record(Composite(segments)))
    assert path.read_bytes() == before and len(db) == 3


def test_reopen_sees_same_records_and_continues_ids(tmp_path):
    path = tmp_path / "db.jsonl"
    seeded_db(path)
    db = PolicyDb(str(path))
    assert len(db) == 3
    got = db.query(KEY)
    assert [(r.record.policy, r.record.peak_top1, r.record.seed) for r in got] == \
        [(Fix(k=0.1), 0.9, 0), (Fix(k=0.2), 0.95, 1), (Fix(k=0.3), 0.8, 2)]
    new_id = db.put(KEY, make_record(Fix(k=0.9), accs=[(10, 0.5)], task_id="blobs",
                                     model_id="logreg"))
    assert new_id == 4


def test_query_partial_filters_by_given_components(tmp_path):
    db = seeded_db(tmp_path / "db.jsonl")
    db.put(OTHER, make_record(Fix(k=0.5), accs=[(10, 0.7)], task_id="blobs",
                              model_id="mlp"))
    assert len(db.query_partial()) == 4
    assert len(db.query_partial(dataset_id="blobs")) == 4
    assert len(db.query_partial(model_id="logreg")) == 3
    assert len(db.query_partial(model_id="mlp", optimizer_id="sgd")) == 1
    assert db.query_partial(optimizer_id="adam") == []


# ---------------------------------------------------------------------------
# crash safety and corruption

def test_truncated_final_line_is_skipped_and_recovered(tmp_path):
    path = tmp_path / "db.jsonl"
    seeded_db(path)
    with open(path, "a", encoding="utf-8") as f:
        f.write('{"kind": "record", "id": 4, "key": {"data')  # interrupted append
    with pytest.warns(UserWarning, match="truncated final line 5"):
        db = PolicyDb(str(path))
    assert len(db) == 3
    assert db.put(KEY, make_record(Fix(k=0.7), accs=[(10, 0.6)], task_id="blobs",
                                   model_id="logreg")) == 4
    reopened = PolicyDb(str(path))  # the fragment was truncated away
    assert [r.id for r in reopened.query(KEY)] == [1, 2, 3, 4]


def test_mid_file_corruption_refuses_to_open(tmp_path):
    path = tmp_path / "db.jsonl"
    seeded_db(path)
    lines = path.read_text().splitlines()
    lines[1] = "definitely not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DbError, match="line 2"):
        PolicyDb(str(path))


def test_header_and_schema_checks(tmp_path):
    missing = tmp_path / "noheader.jsonl"
    missing.write_text('{"kind": "record", "id": 1}\n')
    with pytest.raises(DbError, match="header"):
        PolicyDb(str(missing))
    future = tmp_path / "future.jsonl"
    future.write_text(json.dumps({"kind": "header", "schema_version": 99}) + "\n")
    with pytest.raises(DbError, match="schema_version 99"):
        PolicyDb(str(future))


# ---------------------------------------------------------------------------
# ranking

def test_top_n_orders_and_truncates(tmp_path):
    db = seeded_db(tmp_path / "db.jsonl", peaks=(0.9, 0.95, 0.8))
    top = db.top_n(KEY, 2)
    assert top == [(Fix(k=0.2), 0.95), (Fix(k=0.1), 0.9)]
    assert db.top_n(KEY, 10) == top + [(Fix(k=0.3), 0.8)]  # scarce: all matches
    assert db.top_n(OTHER, 3) == []


def test_top_n_prefix_property(tmp_path):
    db = seeded_db(tmp_path / "db.jsonl", peaks=(0.9, 0.9, 0.8))  # includes a tie
    for n in (1, 2):
        assert db.top_n(KEY, n) == db.top_n(KEY, n + 1)[:n]


def test_top_n_other_metrics_and_validation(tmp_path):
    path = tmp_path / "db.jsonl"
    db = PolicyDb(str(path))
    db.put(KEY, make_record(Fix(k=0.1), accs=[(10, 0.5), (20, 0.9)], final_loss=0.3))
    db.put(KEY, make_record(Fix(k=0.2), accs=[(10, 0.8), (20, 0.85)], final_loss=0.1))
    assert db.top_n(KEY, 2, metric="final_loss") == [(Fix(k=0.2), 0.1), (Fix(k=0.1), 0.3)]
    by_iters = db.top_n(KEY, 2, metric="iters_to_target", target_top1=0.87)
    assert by_iters == [(Fix(k=0.1), 20.0), (Fix(k=0.2), float("inf"))]
    with pytest.raises(DbError, match="n must be"):
        db.top_n(KEY, 0)
    with pytest.raises(DbError, match="unknown metric"):
        db.top_n(KEY, 1, metric="wall_ms")


@pytest.mark.parametrize("metric, target, message", [
    ("iters_to_target", None, "metric 'iters_to_target' needs target_top1"),
    ("wall_ms", None,
     "unknown metric 'wall_ms'; expected one of ('peak_top1', 'final_loss', 'iters_to_target')"),
    ("peak_top1", 1.5, "target_top1 must be in [0, 1], got 1.5"),
])
def test_top_n_refuses_a_metric_it_cannot_rank_by_before_it_reads_a_row(tmp_path, metric, target,
                                                                         message):
    # The same DbError line whether or not the key holds rows to rank.
    db = seeded_db(tmp_path / "db.jsonl", peaks=(0.9, 0.95))
    for key in (OTHER, KEY):
        with pytest.raises(DbError) as raised:
            db.top_n(key, 3, metric, target)
        assert str(raised.value) == message


def test_top_n_values_follow_the_ranking_for_every_metric(tmp_path):
    db = PolicyDb(str(tmp_path / "db.jsonl"))
    records = [make_record(Fix(k=0.1), seed=0, accs=[(10, 0.5), (20, 0.9)], final_loss=0.3),
               make_record(Fix(k=0.2), seed=1, accs=[(10, 0.95)], final_loss=float("inf")),
               make_record(Fix(k=0.3), seed=2, accs=[(10, 0.4)], final_loss=0.1),
               make_record(Fix(k=0.1), seed=3, accs=[(10, 0.86)], final_loss=0.2)]
    for rec in records:
        db.put(KEY, rec)

    def iters(rec):
        it = iterations_to_target(rec, 0.85)
        return float("inf") if it is None else float(it)

    expected = {"peak_top1": lambda rec: rec.peak_top1,
                "final_loss": lambda rec: rec.final_loss, "iters_to_target": iters}
    for metric, value in expected.items():
        ranked = rank_policies(records, metric=metric, target_top1=0.85)
        assert db.top_n(KEY, 4, metric=metric, target_top1=0.85) == \
            [(rec.policy, value(rec)) for rec in ranked]


# ---------------------------------------------------------------------------
# series thinning

def long_record(n_points, peak_iter, lr_len=0):
    series = [Metrics(iteration=i + 1, loss=1.0, top1=0.99 if i + 1 == peak_iter else 0.1)
              for i in range(n_points)]
    return TrialRecord(task_id="t", model_id="m", policy=Fix(k=0.1), optimizer="sgd",
                       seed=0, budget_iters=n_points, eval_every=1, series=series,
                       lr_trace=ScheduleSeries(tuple(range(lr_len)), (0.01,) * lr_len),
                       diverged=False, peak_top1=0.99, iter_at_peak=peak_iter,
                       final_loss=1.0)


def stored_doc(db, record_id):
    """The trial document stored on disk under ``record_id``: summary and payload joined."""
    for head, payload in read_lines(db.path)[1:]:
        if head["id"] == record_id:
            return {**head["summary"], **json.loads(payload)}
    raise AssertionError(f"no stored line with id {record_id}")


def split_line(line):
    """(head document, payload bytes) of a stored line; the payload is None without a tab."""
    head, tab, payload = line.rstrip(b"\n").partition(b"\t")
    return json.loads(head), (payload if tab else None)


def join_line(head, payload):
    return json.dumps(head).encode() + b"\t" + payload


def read_lines(path):
    with open(path, "rb") as f:
        return [split_line(line) for line in f]


@pytest.mark.parametrize("n_points", [1024, 1500])
def test_thinning_caps_series_and_keeps_peak_and_final(tmp_path, n_points):
    db = PolicyDb(str(tmp_path / "db.jsonl"))
    # Iteration 777 falls off every thinning stride, forcing reinsertion.
    rid = db.put(KEY, long_record(n_points, peak_iter=777, lr_len=2000))
    doc = stored_doc(db, rid)
    assert len(doc["series"]) <= SERIES_CAP
    assert any(m["iteration"] == 777 and m["top1"] == 0.99 for m in doc["series"])
    assert doc["series"][-1]["iteration"] == n_points
    assert len(doc["lr_trace"]) <= SERIES_CAP
    assert doc["peak_top1"] == 0.99 and doc["iter_at_peak"] == 777
    reopened = PolicyDb(str(db.path))
    rec = reopened.query(KEY)[0].record
    assert rec.peak_top1 == 0.99 and rec.iter_at_peak == 777


def test_short_series_stored_verbatim(tmp_path):
    db = PolicyDb(str(tmp_path / "db.jsonl"))
    rid = db.put(KEY, long_record(40, peak_iter=7))
    doc = stored_doc(db, rid)
    assert len(doc["series"]) == 40
    assert "meta" in doc  # wall-clock metadata survives when nothing is thinned


@pytest.mark.parametrize("stable", [False, True])
def test_read_back_record_keeps_stored_wall_times(tmp_path, stable):
    rec = train(quad1d(), Fix(k=0.1), budget_iters=20, optimizer="sgd")
    key = DbKey(dataset_id=rec.task_id, model_id=rec.model_id, optimizer_id="sgd")
    db = PolicyDb(str(tmp_path / "db.jsonl"))
    rid = db.put(key, rec, stable=stable)
    for handle in (db, PolicyDb(str(tmp_path / "db.jsonl"))):
        back = next(r.record for r in handle.query_partial() if r.id == rid)
        walls = [m.wall_ms for m in back.series]
        assert len(walls) == 20
        if stable:
            assert walls == [0.0] * 20 and back.wall_ms_total == 0.0
        else:
            assert walls == [m.wall_ms for m in rec.series] and all(w > 0.0 for w in walls)
            assert back.wall_ms_total == rec.wall_ms_total > 0.0


def test_thinned_put_keeps_wall_times_aligned(tmp_path):
    rec = train(quad1d(), Fix(k=0.1), budget_iters=600, eval_every=1, optimizer="sgd")
    key = DbKey(dataset_id=rec.task_id, model_id=rec.model_id, optimizer_id="sgd")
    db = PolicyDb(str(tmp_path / "db.jsonl"))
    db.put(key, rec)
    back = PolicyDb(str(tmp_path / "db.jsonl")).query(key)[0].record
    assert len(rec.series) > SERIES_CAP >= len(back.series)
    live = {m.iteration: m.wall_ms for m in rec.series}
    assert [m.wall_ms for m in back.series] == [live[m.iteration] for m in back.series]
    assert all(m.wall_ms > 0.0 for m in back.series)
    assert back.wall_ms_total == rec.wall_ms_total > 0.0


def test_thinned_series_keeps_the_first_crossing_of_every_target(tmp_path):
    rec = train(moons2(), Fix(k=0.05), budget_iters=1200, seed=3, eval_every=1)
    key = DbKey(dataset_id=rec.task_id, model_id=rec.model_id, optimizer_id=rec.optimizer)
    PolicyDb(str(tmp_path / "db.jsonl")).put(key, rec)
    reopened = PolicyDb(str(tmp_path / "db.jsonl"))
    back = reopened.query(key)[0].record
    assert len(rec.series) > SERIES_CAP >= len(back.series)
    for target in np.linspace(0.5, 0.995, 100):
        assert iterations_to_target(back, target) == iterations_to_target(rec, target)
    live = iterations_to_target(rec, 0.85)
    assert reopened.top_n(key, 1, metric="iters_to_target", target_top1=0.85) == \
        [(Fix(k=0.05), float(live))]


# ---------------------------------------------------------------------------
# export / import

def test_export_import_roundtrip_preserves_payloads(tmp_path):
    db = seeded_db(tmp_path / "a.jsonl")
    db.put(OTHER, make_record(Cyclic(kind="SIN", k0=0.01, k1=0.1, l=5),
                              accs=[(10, 0.7)], task_id="blobs", model_id="mlp"))
    out = tmp_path / "dump.jsonl"
    assert db.export(str(out)) == 4

    target = PolicyDb(str(tmp_path / "b.jsonl"))
    target.put(KEY, make_record(Fix(k=0.9), accs=[(10, 0.4)], task_id="blobs",
                                model_id="logreg"))
    assert target.import_(str(out)) == 4
    assert len(target) == 5
    # Imported rows get fresh ids after the existing ones.
    assert [r.id for r in target.query_partial()] == [1, 2, 3, 4, 5]
    # Every key's query now matches the source store, payload for payload.
    for key in (KEY, OTHER):
        source = [(r.record.policy, r.record.peak_top1, r.record.seed,
                   r.inserted_at) for r in db.query(key)]
        imported = [(r.record.policy, r.record.peak_top1, r.record.seed,
                     r.inserted_at) for r in target.query(key)[-len(source):]]
        assert imported == source


def test_export_rejects_store_path(tmp_path):
    store = tmp_path / "a.jsonl"
    db = PolicyDb(str(store))
    # A record another handle appends after this one opened is not in its rows,
    # so exporting over the store under any name would drop it.
    seeded_db(store, peaks=(0.9,))
    before = store.read_bytes()
    os.symlink(store, tmp_path / "sym.jsonl")
    os.link(store, tmp_path / "hard.jsonl")
    for name in ("a.jsonl", "sym.jsonl", "hard.jsonl"):
        with pytest.raises(DbError, match="must differ"):
            db.export(str(tmp_path / name))
        assert store.read_bytes() == before


def test_import_rejects_the_store_file_under_any_name(tmp_path):
    store = tmp_path / "a.jsonl"
    db = seeded_db(store, peaks=(0.9, 0.95))
    before = store.read_bytes()
    os.symlink(store, tmp_path / "sym.jsonl")
    for name in ("a.jsonl", "sym.jsonl"):
        with pytest.raises(DbError, match="must differ"):
            db.import_(str(tmp_path / name))
        assert store.read_bytes() == before
        assert len(db) == 2


def test_import_corrupt_line_aborts_atomically(tmp_path):
    db = seeded_db(tmp_path / "a.jsonl")
    out = tmp_path / "dump.jsonl"
    db.export(str(out))
    lines = out.read_text().splitlines()
    lines[2] = lines[2][:-20]  # mangle the second record
    out.write_text("\n".join(lines) + "\n")

    target_path = tmp_path / "b.jsonl"
    target = PolicyDb(str(target_path))
    target.put(KEY, make_record(Fix(k=0.9), accs=[(10, 0.4)], task_id="blobs",
                                model_id="logreg"))
    before = target_path.read_bytes()
    with pytest.raises(DbError, match="line 3"):
        target.import_(str(out))
    assert len(target) == 1
    assert target_path.read_bytes() == before
    assert target.put(KEY, make_record(Fix(k=0.8), accs=[(10, 0.4)], task_id="blobs",
                                       model_id="logreg")) == 2


def test_import_header_only_file_adds_nothing(tmp_path):
    empty = PolicyDb(str(tmp_path / "empty.jsonl"))
    out = tmp_path / "dump.jsonl"
    assert empty.export(str(out)) == 0
    target = seeded_db(tmp_path / "b.jsonl")
    assert target.import_(str(out)) == 0
    assert len(target) == 3


def test_import_rejects_blank_or_headerless_files(tmp_path):
    blank = tmp_path / "blank.jsonl"
    blank.write_text("")
    db = PolicyDb(str(tmp_path / "db.jsonl"))
    with pytest.raises(DbError, match="empty"):
        db.import_(str(blank))
    headerless = tmp_path / "headerless.jsonl"
    headerless.write_text('{"kind": "record"}\n')
    with pytest.raises(DbError, match="header"):
        db.import_(str(headerless))
    futuristic = tmp_path / "future.jsonl"
    futuristic.write_text(json.dumps({"kind": "header", "schema_version": 7}) + "\n")
    with pytest.raises(DbError, match="schema_version 7"):
        db.import_(str(futuristic))
    unterminated = tmp_path / "unterminated.jsonl"
    seeded_db(tmp_path / "c.jsonl").export(str(unterminated))
    unterminated.write_bytes(unterminated.read_bytes()[:-1])  # the last line loses its newline
    with pytest.raises(DbError, match="line 4: unterminated final line"):
        db.import_(str(unterminated))
    assert len(db) == 0 and len(PolicyDb(str(tmp_path / "db.jsonl"))) == 0


def test_exported_file_opens_as_a_store(tmp_path):
    # An export is itself a valid store file: header plus record lines.
    db = seeded_db(tmp_path / "a.jsonl")
    out = tmp_path / "dump.jsonl"
    db.export(str(out))
    clone = PolicyDb(str(out))
    assert [(r.id, r.record.policy) for r in clone.query(KEY)] == \
        [(r.id, r.record.policy) for r in db.query(KEY)]


# ---------------------------------------------------------------------------
# lazily decoded payloads

def test_open_queries_and_summary_ranking_decode_no_payload(tmp_path, monkeypatch):
    path = tmp_path / "db.jsonl"
    seeded_db(path).put(OTHER, make_record(Fix(k=0.5), seed=9, accs=[(10, 0.7)],
                                           task_id="blobs", model_id="mlp"))
    decode = policydb.record_from_doc
    decoded = []

    def counting(doc):
        decoded.append(doc["seed"])
        return decode(doc)

    monkeypatch.setattr(policydb, "record_from_doc", counting)
    db = PolicyDb(str(path))
    assert len(db) == 4 and len(db.query(KEY)) == 3 and len(db.query_partial()) == 4
    assert db.top_n(KEY, 2) == [(Fix(k=0.2), 0.95), (Fix(k=0.1), 0.9)]
    assert db.top_n(KEY, 1, metric="final_loss")[0][1] == 1.0
    assert [r.summary.seed for r in db.query(KEY)] == [0, 1, 2]
    assert decoded == []
    db.top_n(KEY, 3, metric="iters_to_target", target_top1=0.5)
    assert sorted(decoded) == [0, 1, 2]  # only the rows ranked, not OTHER's
    assert db.query(KEY)[0].record.seed == 0
    assert sorted(decoded) == [0, 1, 2]  # decoded once, then kept


def test_payload_corruption_fails_the_crc_on_open(tmp_path):
    path = tmp_path / "db.jsonl"
    seeded_db(path)
    lines = path.read_bytes().splitlines()
    head, payload = split_line(lines[2])
    corrupted = payload.replace(b'"loss":1.0', b'"loss":2.0')
    assert corrupted != payload
    lines[2] = join_line(head, corrupted)
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(DbError, match="line 3: payload fails its CRC"):
        PolicyDb(str(path))


def test_import_decodes_every_payload_not_just_the_crc(tmp_path):
    out = tmp_path / "dump.jsonl"
    seeded_db(tmp_path / "a.jsonl").export(str(out))
    lines = out.read_bytes().splitlines()
    head, _ = split_line(lines[2])
    payload = json.dumps({"series": [{"iteration": 10, "loss": 1.0, "top1": 0.1}],
                          "lr_trace": []}).encode()  # no longer attains the stored peak
    head["crc"] = zlib.crc32(payload)
    lines[2] = join_line(head, payload)
    out.write_bytes(b"\n".join(lines) + b"\n")
    assert len(PolicyDb(str(out))) == 3  # opening checks the CRC only
    target_path = tmp_path / "b.jsonl"
    target = PolicyDb(str(target_path))
    with pytest.raises(DbError, match="line 3: malformed payload"):
        target.import_(str(out))
    assert len(target) == 0
    assert not target_path.exists()


@pytest.mark.parametrize("accs,claim,problem", [
    ([(10, None)], {"peak_top1": 0.5, "iter_at_peak": 10},
     "record claims a peak but its series has no accuracy"),
    ([(10, 0.5), (20, 0.4)], {"iter_at_peak": 20},
     "record iter_at_peak=20 does not attain the peak"),
], ids=["no-accuracy", "peak-not-attained"])
def test_a_peak_the_series_does_not_bear_is_refused_by_put_and_by_import(tmp_path, accs, claim,
                                                                          problem):
    path = tmp_path / "db.jsonl"
    db = PolicyDb(path)
    with pytest.raises(DbError) as refused:
        db.put(KEY, dataclasses.replace(make_record(Fix(k=0.1), accs=accs), **claim))
    assert str(refused.value) == problem
    assert not path.exists() and len(db) == 0
    # The same claim, edited into an exported head, is refused by the import that decodes it.
    source = PolicyDb(tmp_path / "source.jsonl")
    source.put(KEY, make_record(Fix(k=0.1), accs=accs))
    out = tmp_path / "dump.jsonl"
    source.export(out)
    header, line = out.read_bytes().splitlines()
    head, payload = split_line(line)
    head["summary"].update(claim)
    out.write_bytes(header + b"\n" + join_line(head, payload) + b"\n")
    with pytest.raises(DbError) as refused:
        db.import_(out)
    assert str(refused.value) == f"{out} line 2: malformed payload: {problem}"
    assert not path.exists() and len(db) == 0


def test_version_1_store_is_refused(tmp_path):
    old = tmp_path / "v1.jsonl"
    old.write_text(json.dumps({"kind": "header", "schema_version": 1}) + "\n")
    with pytest.raises(DbError, match="schema_version 1 unsupported"):
        PolicyDb(str(old))


def test_version_2_store_is_refused(tmp_path):
    old = tmp_path / "v2.jsonl"
    old.write_text(json.dumps({"kind": "header", "schema_version": 2}) + "\n")
    before = old.read_bytes()
    with pytest.raises(DbError, match=r"line 1: schema_version 2 unsupported \(want 3\)"):
        PolicyDb(str(old))
    target = PolicyDb(str(tmp_path / "db.jsonl"))
    with pytest.raises(DbError, match="schema_version 2 unsupported"):
        target.import_(str(old))
    assert old.read_bytes() == before and len(target) == 0


def test_a_line_without_a_tab_is_refused_naming_its_line(tmp_path):
    path = tmp_path / "db.jsonl"
    seeded_db(path)
    lines = path.read_bytes().splitlines()
    lines[3] = lines[3].replace(b"\t", b" ", 1)
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(DbError, match="line 4: no tab between the head and the payload"):
        PolicyDb(str(path))
    out = tmp_path / "dump.jsonl"
    out.write_bytes(path.read_bytes())
    target = PolicyDb(str(tmp_path / "b.jsonl"))
    with pytest.raises(DbError, match="line 4: no tab"):
        target.import_(str(out))
    assert len(target) == 0


def test_a_writer_refuses_to_append_after_a_malformed_last_line(tmp_path):
    path = tmp_path / "db.jsonl"
    db = seeded_db(path)
    lines = path.read_bytes().splitlines()
    lines[-1] = lines[-1][:-2] + b"]}"  # the payload no longer matches its CRC
    assert lines[-1] != path.read_bytes().splitlines()[-1]
    path.write_bytes(b"\n".join(lines) + b"\n")
    before = path.read_bytes()
    with pytest.raises(DbError, match="last complete line is malformed, refusing to append: "
                                      "payload fails its CRC check"):
        db.put(KEY, make_record(Fix(k=0.7), accs=[(10, 0.6)], task_id="blobs",
                                model_id="logreg"))
    assert path.read_bytes() == before and len(db) == 3


def test_tabs_newlines_and_non_ascii_text_round_trip(tmp_path):
    key = DbKey(dataset_id="blobs\tç\n", model_id="mlp\n\t", optimizer_id="sgd-β\t")
    task_id = "t\tâche\n«données»\t"
    db = PolicyDb(str(tmp_path / "a.jsonl"))
    records = [make_record(Fix(k=k), seed=i, accs=[(10, 0.5 + k)], task_id=task_id,
                           model_id=key.model_id)
               for i, k in enumerate((0.1, 0.2))]
    ids = [db.put(key, rec, stable=True) for rec in records]
    raw = (tmp_path / "a.jsonl").read_bytes()
    assert raw.isascii() and raw.count(b"\n") == 3 and raw.count(b"\t") == 2
    out = tmp_path / "dump.jsonl"
    assert db.export(str(out)) == 2
    assert out.read_bytes() == raw
    target = PolicyDb(str(tmp_path / "b.jsonl"))
    assert target.import_(str(out)) == 2
    for handle in (db, PolicyDb(str(tmp_path / "a.jsonl")), target,
                   PolicyDb(str(tmp_path / "b.jsonl"))):
        rows = handle.query(key)
        assert [r.id for r in rows] == ids
        assert [r.summary.task_id for r in rows] == [task_id, task_id]
        assert [r.record for r in rows] == records
    assert (tmp_path / "b.jsonl").read_bytes() == raw


# ---------------------------------------------------------------------------
# several handles, torn appends, reopen

def test_handles_on_one_file_allocate_unique_ids(tmp_path):
    path = str(tmp_path / "db.jsonl")
    first, second = PolicyDb(path), PolicyDb(path)
    ids = []
    for seed in range(6):
        db = first if seed % 2 == 0 else second
        ids.append(db.put(KEY, make_record(Fix(k=0.1), seed=seed, accs=[(10, 0.5)],
                                           task_id="blobs", model_id="logreg")))
    assert ids == [1, 2, 3, 4, 5, 6]
    reopened = PolicyDb(path)
    assert [(r.id, r.record.seed) for r in reopened.query(KEY)] == list(zip(ids, range(6)))


def test_reader_leaves_a_torn_append_untouched_and_the_next_put_repairs_it(tmp_path):
    path = tmp_path / "db.jsonl"
    seeded_db(path)
    whole = path.read_bytes()
    last_line = whole.splitlines(keepends=True)[-1]
    path.write_bytes(whole + last_line[: len(last_line) // 2])  # an append cut short
    torn = path.read_bytes()
    with pytest.warns(UserWarning, match="truncated final line 5"):
        reader = PolicyDb(str(path))
    assert len(reader) == 3
    assert path.read_bytes() == torn
    with pytest.warns(UserWarning, match="truncated final line 5"):
        writer = PolicyDb(str(path))
    assert writer.put(KEY, make_record(Fix(k=0.7), accs=[(10, 0.6)], task_id="blobs",
                                       model_id="logreg")) == 4
    repaired = path.read_bytes()
    assert repaired.startswith(whole) and repaired.count(b"\n") == 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [r.id for r in PolicyDb(str(path)).query(KEY)] == [1, 2, 3, 4]


def test_empty_file_is_not_written_by_a_reader(tmp_path):
    path = tmp_path / "db.jsonl"
    path.write_bytes(b"")
    db = PolicyDb(str(path))
    assert len(db) == 0 and path.read_bytes() == b""
    assert db.put(KEY, make_record(Fix(k=0.1), accs=[(10, 0.5)])) == 1
    assert len(PolicyDb(str(path))) == 1


# ---------------------------------------------------------------------------
# open decodes each distinct key and policy once and builds summaries on first read

FIX_DOC = {"type": "FIX", "k": 0.1}
COMPOSITE_DOC = {"type": "COMPOSITE", "segments": [
    {"start": 0, "end": 5, "policy": FIX_DOC},
    {"start": 5, "end": 10, "policy": {"type": "POLY", "k": 0.1, "p": 2}}]}
HEADER_LINE = json.dumps({"kind": "header", "schema_version": SCHEMA_VERSION}).encode() + b"\n"


def trial_line(row_id, key_doc=None, policy_doc=FIX_DOC, final_loss=1.0, drop=(), accs=None):
    """A stored line of a small trial whose summary holds ``policy_doc`` and
    ``final_loss``, without the summary fields named in ``drop``."""
    doc = record_to_doc(make_record(Fix(k=0.1), seed=row_id, accs=accs or [(10, 0.5)]))
    body = {name: doc.pop(name) for name in ("series", "lr_trace", "meta")}
    payload = json.dumps(body, separators=(",", ":")).encode()
    doc.update(policy=policy_doc, final_loss=final_loss)
    head = {"kind": "record", "id": row_id, "inserted_at": float(row_id),
            "key": KEY.to_doc() if key_doc is None else key_doc,
            "summary": {k: v for k, v in doc.items() if k not in drop},
            "crc": zlib.crc32(payload)}
    return join_line(head, payload) + b"\n"


def decoded_row_by_row(line):
    """What one row reads back as, decoded from its line alone."""
    head, payload = split_line(line)
    record = record_from_doc({**head["summary"], **json.loads(payload)})
    return [head["id"], DbKey.from_doc(head["key"]), float(head["inserted_at"]),
            TrialSummary.to_doc(TrialSummary.from_doc(head["summary"])),
            record_to_doc(record, stable=True)]


policy_docs = st.one_of(
    st.sampled_from([1, 2, 0.5, 1.0, 0.0, -0.0]).map(lambda k: {"type": "FIX", "k": k}),
    st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True).map(
        lambda b: {"type": "NSTEP", "k": 0.1, "gamma": 0.5, "boundaries": sorted(b)}),
    st.sampled_from([{"type": "TRI", "k0": 0.01, "k1": 0.1, "l": 10},
                     {"type": "TRIEXP", "k0": 0.01, "k1": 0.1, "l": 10, "gamma": 0.99},
                     COMPOSITE_DOC]))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from([KEY.to_doc(), OTHER.to_doc()]), policy_docs,
                               st.sampled_from([1.0, 1, -0.0, "nan", "inf"])),
                     min_size=1, max_size=12))
@example(rows=[(KEY.to_doc(), {"type": "FIX", "k": k}, 1.0) for k in (0.0, -0.0, 1, 1.0)])
def test_open_reads_every_row_as_its_line_decoded_alone(rows):
    lines = [trial_line(i, *row) for i, row in enumerate(rows, start=1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db.jsonl")
        with open(path, "wb") as f:
            f.write(HEADER_LINE + b"".join(lines))
        got = [[r.id, r.key, r.inserted_at, TrialSummary.to_doc(r.summary),
                record_to_doc(r.record, stable=True)] for r in PolicyDb(path).query_partial()]
    # repr tells 1 from 1.0 and -0.0 from 0.0, which == does not.
    assert repr(got) == repr([decoded_row_by_row(line) for line in lines])


def test_rows_with_equal_documents_share_a_key_and_policy_but_not_a_nan_policy(tmp_path):
    nan_fix = {"type": "FIX", "k": math.nan}
    path = tmp_path / "db.jsonl"
    path.write_bytes(HEADER_LINE + b"".join([
        trial_line(1, policy_doc=COMPOSITE_DOC), trial_line(2, OTHER.to_doc()),
        trial_line(3, policy_doc=COMPOSITE_DOC), trial_line(4),
        trial_line(5, policy_doc=nan_fix), trial_line(6, policy_doc=nan_fix)]))
    rows = PolicyDb(str(path)).query_partial()
    assert not any("summary" in vars(r) for r in rows)  # built on first read
    assert rows[0].policy is rows[2].policy and rows[1].policy is rows[3].policy == Fix(k=0.1)
    assert rows[0].key is rows[2].key is rows[3].key == KEY and rows[1].key == OTHER
    assert rows[4].policy is not rows[5].policy  # as two decodes of one document are
    assert all(r.summary.policy is r.policy for r in rows)


def _edited(edit):
    """Line 2 of a store with its head bytes passed through ``edit``."""
    head, _, payload = trial_line(1).partition(b"\t")
    return edit(head) + b"\t" + payload


# name: (line 2 of a store, the message open refuses it with, None if it opens, or
# LOADS if json.loads of the head bytes refuses it and gives the message)
LOADS = object()
MALFORMED_HEADS = {
    "spaces around the head": (_edited(lambda h: b"  " + h + b" "), None),
    "a UTF-8 byte order mark": (_edited(lambda h: b"\xef\xbb\xbf" + h), None),
    "extra data": (_edited(lambda h: h + b" {}"), LOADS),
    "a NUL byte first": (_edited(lambda h: b"\x00" + h), LOADS),
    "a non-object": (_edited(lambda h: b"[1, 2]"), "expected a record line"),
    "invalid UTF-8": (_edited(lambda h: h.replace(b'"toy"', b'"to\xffy"')), LOADS),
    "a bad policy": (trial_line(1, policy_doc={"type": "NOPE"}),
                     "malformed record: PolicyFormatError(\"unknown policy type 'NOPE'\")"),
    "a nested composite": (
        trial_line(1, policy_doc={"type": "COMPOSITE", "segments": [
            {"start": 0, "end": 5, "policy": COMPOSITE_DOC}]}),
        "malformed record: PolicyFormatError('COMPOSITE segment 0 must not nest another "
        "composite')"),
    "a missing summary field": (trial_line(1, drop=("seed",)), "malformed record: KeyError('seed')"),
    "a missing field before a bad policy": (
        trial_line(1, policy_doc={"type": "NOPE"}, drop=("eval_every",)),
        "malformed record: KeyError('eval_every')"),
    "a non-numeric final_loss": (
        trial_line(1, final_loss="abc"),
        "malformed record: ValueError(\"could not convert string to float: 'abc'\")"),
    "a null final_loss": (
        trial_line(1, final_loss=None),
        "malformed record: TypeError(\"float() argument must be a string or a real number, "
        "not 'NoneType'\")"),
    "a bad policy before a bad final_loss": (
        trial_line(1, policy_doc={"type": "FIX"}, final_loss="abc"),
        "malformed record: PolicyFormatError(\"FIX is missing field 'k'\")"),
    "a bad key": (trial_line(1, key_doc={"dataset_id": ""}),
                  "malformed key document: {'dataset_id': ''}"),
}


@pytest.mark.parametrize("name", MALFORMED_HEADS)
def test_a_malformed_head_is_refused_with_its_message(tmp_path, name):
    line, message = MALFORMED_HEADS[name]
    if message is LOADS:
        with pytest.raises(ValueError) as refused:
            json.loads(line.partition(b"\t")[0])
        message = f"malformed record: {refused.value!r}"
    path = tmp_path / "db.jsonl"
    path.write_bytes(HEADER_LINE + line)
    if message is None:
        assert repr([r.summary for r in PolicyDb(str(path)).query(KEY)]) == \
            repr([TrialSummary.from_doc(split_line(trial_line(1))[0]["summary"])])
        return
    with pytest.raises(DbError) as refused:
        PolicyDb(str(path))
    assert str(refused.value) == f"{path} line 2: {message}"


metric_points = st.lists(
    st.tuples(st.floats(0.0, 10.0) | st.just(float("inf")),
              st.none() | st.floats(0.0, 1.0)),
    min_size=1, max_size=1500)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trials=st.lists(st.tuples(metric_points, st.integers(0, 1500), st.booleans()),
                       min_size=1, max_size=3))
def test_reopen_reads_what_the_live_handle_read(trials):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db.jsonl")
        live = PolicyDb(path)
        for (points, lr_len, stable) in trials:
            series = [Metrics(iteration=i + 1, loss=loss, top1=top1, wall_ms=float(i))
                      for i, (loss, top1) in enumerate(points)]
            tops = [(m.top1, m.iteration) for m in series if m.top1 is not None]
            peak = max((v for v, _ in tops), default=None)
            at = min((i for v, i in tops if v == peak), default=None)
            policy = Fix(k=0.05)
            live.put(KEY, TrialRecord(
                task_id="t", model_id="m", policy=policy, optimizer="sgd", seed=lr_len,
                budget_iters=len(series), eval_every=1, series=series,
                lr_trace=ScheduleSeries(tuple(range(lr_len)),
                                        tuple(0.05 / (1 + t) for t in range(lr_len))),
                diverged=False, peak_top1=peak, iter_at_peak=at, final_loss=series[-1].loss),
                stable=stable)
        rows = live.query_partial()
        fresh = PolicyDb(path).query_partial()
        assert fresh == rows
        assert [r.record for r in fresh] == [r.record for r in rows]
        assert all(len(r.record.series) <= SERIES_CAP for r in rows)


# Workers of the two-process test; module level so ``spawn`` can import them.

def _put_many(path, count, results):
    db = PolicyDb(path)
    ids = [db.put(KEY, long_record(600, peak_iter=300, lr_len=600)) for _ in range(count)]
    results.put(("writer", ids))


def _read_until_done(path, done, results):
    """Open the store repeatedly while writers append; report each view's ids."""
    views = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # appends in flight read as torn final lines
        while not done.is_set() or not views:
            with open(path, "rb") as f:
                before = f.read()
            ids = [r.id for r in PolicyDb(path).query_partial()]
            with open(path, "rb") as f:
                after = f.read()
            complete = before[: before.rfind(b"\n") + 1]
            if not after.startswith(complete):
                results.put(("reader", None))
                return
            views.append(ids)
    results.put(("reader", views))


def test_two_writers_and_a_reader_in_separate_processes(tmp_path):
    path = str(tmp_path / "db.jsonl")
    with open(path, "wb") as f:
        f.write(HEADER_LINE)
    ctx = multiprocessing.get_context("spawn")
    results, done = ctx.Queue(), ctx.Event()
    writers = [ctx.Process(target=_put_many, args=(path, 40, results)) for _ in range(2)]
    reader = ctx.Process(target=_read_until_done, args=(path, done, results))
    procs = writers + [reader]
    try:
        for proc in procs:
            proc.start()
        got = [results.get(timeout=120) for _ in writers]
        done.set()
        got.append(results.get(timeout=60))
        for proc in procs:
            proc.join(timeout=30)
            assert not proc.is_alive()
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)
        results.close()
        results.join_thread()
    written = sorted(i for kind, ids in got if kind == "writer" for i in ids)
    views = next(ids for kind, ids in got if kind == "reader")
    assert views is not None, "a reader open changed bytes already written"
    assert written == list(range(1, 81))
    lines = read_lines(path)
    assert lines[0] == ({"kind": "header", "schema_version": SCHEMA_VERSION}, None)
    final_ids = [head["id"] for head, _ in lines[1:]]
    assert final_ids == written
    assert all(view == final_ids[:len(view)] for view in views)
    assert [r.id for r in PolicyDb(path).query_partial()] == final_ids


# ---------------------------------------------------------------------------
# payloads stay on disk: a handle holds heads and one descriptor

BIG = 1 << 20


def big_store(path, count):
    """A store of ``count`` thinned 600-point trials, about 15 KB a line, and their records."""
    db = PolicyDb(str(path))
    records = [long_record(600, peak_iter=300 + i, lr_len=600) for i in range(count)]
    for rec in records:
        db.put(KEY, rec, stable=True)
    return db, [r.record for r in db.query(KEY)]


def line_starts(path):
    """The file offset of each line of ``path``, the header's first."""
    lines = path.read_bytes().splitlines(keepends=True)
    return [sum(map(len, lines[:i])) for i in range(len(lines))]


def test_an_open_handle_holds_its_heads_not_its_file(tmp_path):
    path = tmp_path / "db.jsonl"
    big_store(path, 40)
    size = path.stat().st_size
    heads = sum(len(line.partition(b"\t")[0]) for line in path.read_bytes().splitlines())
    assert size >= 8 * heads
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        db = PolicyDb(str(path))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(db) == 40
    assert held < size / 4, (held, size)


@pytest.mark.skipif(os.name != "posix", reason="an open file is unlinked or replaced on POSIX")
@pytest.mark.parametrize("swap", ["unlink", "replace"])
def test_a_handle_reads_every_payload_after_its_file_is_unlinked_or_replaced(tmp_path, swap):
    path = tmp_path / "db.jsonl"
    records = [make_record(Fix(k=k), seed=i, accs=[(10, 0.5 + k)], task_id="blobs",
                           model_id="logreg") for i, k in enumerate((0.1, 0.2, 0.3))]
    writer = PolicyDb(str(path))
    for rec in records[:2]:
        writer.put(KEY, rec, stable=True)
    reader = PolicyDb(str(path))
    writer.put(KEY, records[2], stable=True)  # a row put, beside rows opened
    before = path.read_bytes()
    if swap == "unlink":
        path.unlink()
    else:
        seeded_db(tmp_path / "other.jsonl", peaks=(0.5,))
        os.replace(tmp_path / "other.jsonl", path)
    assert [r.record for r in writer.query(KEY)] == records
    assert [r.record for r in reader.query(KEY)] == records[:2]
    writer.export(str(tmp_path / "dump.jsonl"))
    assert (tmp_path / "dump.jsonl").read_bytes() == before


def test_a_payload_changed_after_open_is_refused_on_read(tmp_path):
    path = tmp_path / "db.jsonl"
    seeded_db(path)
    db = PolicyDb(str(path))
    rows = db.query(KEY)
    line = path.read_bytes().splitlines()[2]
    at = line_starts(path)[2] + line.index(b'"loss":1.0') + len(b'"loss":')
    with open(path, "r+b") as f:  # in place: the handle's file, not a new one
        f.seek(at)
        f.write(b"2")
    message = f"{path}: record 2: payload fails its CRC check"
    with pytest.raises(DbError) as refused:
        rows[1].record
    assert str(refused.value) == message
    with pytest.raises(DbError, match="record 2: payload fails its CRC check"):
        db.export(str(tmp_path / "dump.jsonl"))
    assert rows[0].record.seed == 0 and rows[2].record.seed == 2
    with pytest.raises(DbError, match="line 3: payload fails its CRC check"):
        PolicyDb(str(path))


def test_a_line_longer_than_the_read_buffer_is_read(tmp_path):
    path = tmp_path / "db.jsonl"
    long_id = "t" * (BIG + 17)
    records = [make_record(Fix(k=0.1), seed=i, accs=[(10, 0.5)], task_id=task_id)
               for i, task_id in enumerate(("blobs", long_id, "moons"))]
    db = PolicyDb(str(path))
    for rec in records:
        db.put(KEY, rec, stable=True)
    assert max(map(len, path.read_bytes().splitlines())) > BIG
    for handle in (db, PolicyDb(str(path))):
        assert [r.record for r in handle.query(KEY)] == records
        assert [r.summary.task_id for r in handle.query(KEY)] == ["blobs", long_id, "moons"]


@pytest.mark.parametrize("where", ["across", "past"])
def test_a_corrupt_line_past_the_first_read_is_named_by_its_line(tmp_path, where):
    path = tmp_path / "db.jsonl"
    big_store(path, 100)
    starts = line_starts(path)
    assert path.stat().st_size > 1.2 * BIG
    # the line that holds the buffer's last byte, or the first line wholly after it
    index = max(i for i, s in enumerate(starts) if s < BIG) + (where == "past")
    assert (starts[index] < BIG) == (where == "across")
    lines = path.read_bytes().splitlines()
    lines[index] = lines[index].replace(b'"loss":1.0', b'"loss":2.0', 1)
    path.write_bytes(b"\n".join(lines) + b"\n")
    for opening in (lambda: PolicyDb(str(path)),
                    lambda: PolicyDb(str(tmp_path / "b.jsonl")).import_(str(path))):
        with pytest.raises(DbError) as refused:
            opening()
        assert str(refused.value) == f"{path} line {index + 1}: payload fails its CRC check"


def test_a_torn_last_line_past_the_first_read_keeps_its_warning(tmp_path):
    path = tmp_path / "db.jsonl"
    _, records = big_store(path, 100)
    whole = path.read_bytes()
    last = whole.splitlines(keepends=True)[-1]
    path.write_bytes(whole + last[: len(last) // 2])
    with pytest.warns(UserWarning, match="truncated final line 102"):
        db = PolicyDb(str(path))
    assert [r.record for r in db.query(KEY)] == records


def opened(path):
    """(id, key, inserted_at, summary document, payload) of each row an open of ``path``
    reads, and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = [(r.id, r.key, r.inserted_at, TrialSummary.to_doc(r.summary), r.payload)
                for r in PolicyDb(path).query_partial()]
    return rows, [str(w.message) for w in caught]


def imported(path, into):
    """(key, inserted_at, summary document, payload) of each row an import of ``path``
    into an empty store at ``into`` appends, read back by an open, or the import's refusal."""
    with open(into, "wb") as f:
        f.write(HEADER_LINE)
    try:
        PolicyDb(into).import_(path)
        return [(r.key, r.inserted_at, TrialSummary.to_doc(r.summary), r.payload)
                for r in PolicyDb(into).query_partial()]
    except DbError as exc:
        return str(exc)
    finally:
        os.remove(into)


@settings(max_examples=40, deadline=None)
@given(points=st.lists(st.integers(0, 40), max_size=8), tear=st.none() | st.integers(1, 4000))
@example(points=[], tear=None)
@example(points=[0, 40], tear=1)
def test_open_and_import_read_the_same_rows_at_every_read_buffer_boundary(points, tear):
    # A 64-byte read buffer puts its boundaries at every place in lines of about 500
    # to 2200 bytes (the header's 40 are under it); a torn tail is cut from one more
    # line, short of its newline.
    def line(row_id, n):
        return trial_line(row_id, accs=[(i, None) for i in range(n)] + [(n + 10, 0.5)])

    lines = [line(i, n) for i, n in enumerate(points, start=1)]
    tail = b""
    if tear is not None:
        extra = line(len(points) + 1, tear % 41)
        tail = extra[:min(tear, len(extra) - 1)]
    with tempfile.TemporaryDirectory() as tmp:
        path, into = os.path.join(tmp, "db.jsonl"), os.path.join(tmp, "into.jsonl")
        with open(path, "wb") as f:
            f.write(HEADER_LINE + b"".join(lines) + tail)
        read, imports = opened(path), imported(path, into)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(policydb, "_SCAN_BLOCK", 64)
            assert opened(path) == read
            assert imported(path, into) == imports
    rows, caught = read
    assert [row[0] for row in rows] == list(range(1, len(lines) + 1))
    assert [row[4] for row in rows] == [split_line(x)[1] for x in lines]
    if tail:
        torn = len(lines) + 2
        assert caught == [f"{path}: skipping truncated final line {torn}"]
        assert imports == f"{path} line {torn}: unterminated final line"
    else:
        assert caught == []
        assert imports == [row[1:] for row in rows]


def test_appends_find_the_last_line_across_tail_blocks(tmp_path):
    # With 64-byte tail blocks, each line of about 500 bytes spans several of them, and
    # a torn fragment longer than one block leaves the file's last block without a newline.
    path = tmp_path / "db.jsonl"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(policydb, "_TAIL_BLOCK", 64)
        db = seeded_db(path)
        whole = path.read_bytes()
        last_line = whole.splitlines(keepends=True)[-1]
        fragment = last_line[:len(last_line) // 2]
        assert len(last_line) > 2 * 64 and len(fragment) > 64
        path.write_bytes(whole + fragment)
        assert db.put(KEY, make_record(Fix(k=0.7), accs=[(10, 0.6)], task_id="blobs",
                                       model_id="logreg")) == 4
        assert db.put(KEY, make_record(Fix(k=0.8), accs=[(10, 0.7)], task_id="blobs",
                                       model_id="logreg")) == 5
    repaired = path.read_bytes()
    assert repaired.startswith(whole) and repaired.count(b"\n") == 6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [r.id for r in PolicyDb(path).query(KEY)] == [1, 2, 3, 4, 5]
    assert [r.id for r in db.query(KEY)] == [1, 2, 3, 4, 5]


@pytest.mark.skipif(os.name != "posix", reason="an open file is replaced on POSIX")
def test_a_put_after_the_path_names_a_new_file_reads_back_from_that_file(tmp_path):
    path = tmp_path / "db.jsonl"
    db = seeded_db(path)
    old = [r.record for r in PolicyDb(str(path)).query(KEY)]
    seeded_db(tmp_path / "other.jsonl", peaks=(0.5,))
    os.replace(tmp_path / "other.jsonl", path)
    rec = make_record(Fix(k=0.7), seed=7, accs=[(10, 0.6)], task_id="blobs", model_id="logreg")
    assert db.put(KEY, rec) == 2  # numbered on from the new file's last line
    rows = db.query(KEY)
    assert [r.record for r in rows] == old + [rec]
    fresh = PolicyDb(str(path)).query(KEY)
    assert [r.id for r in fresh] == [1, 2] and fresh[1] == rows[-1]
    assert fresh[1].payload == rows[-1].payload
    assert db.put(KEY, rec) == 3 and db.query(KEY)[-1].record == rec
    if fcntl is not None:  # the write lock went with the write, though the handle reads on
        with open(path, "rb") as f:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc")
def test_handles_and_rows_close_their_descriptor_once_dropped(tmp_path):
    path = tmp_path / "db.jsonl"
    seeded_db(path)

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    for i in range(200):
        db = PolicyDb(str(path))
        rows = db.query(KEY)
        assert rows[i % 3].record.seed == i % 3
        if i % 50 == 0:
            db.put(KEY, make_record(Fix(k=0.9), seed=i, accs=[(10, 0.4)], task_id="blobs",
                                    model_id="logreg"))
        del db, rows
    assert open_fds() == before
    row = PolicyDb(str(path)).query(KEY)[0]
    assert open_fds() == before + 1  # a row alone keeps its file open
    assert row.record.seed == 0
    del row
    assert open_fds() == before


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs a character device")
def test_a_file_that_is_not_regular_is_refused_before_it_is_read(tmp_path):
    # Payloads are read again by offset, which a device or a pipe cannot serve.
    db = seeded_db(tmp_path / "db.jsonl")
    with pytest.raises(DbError) as refused:
        db.import_(os.devnull)
    assert str(refused.value) == f"cannot read import file {os.devnull!r}: not a regular file"
    with pytest.raises(DbError, match=r"^cannot read store at '/dev/null': not a regular file$"):
        PolicyDb(os.devnull)
    assert len(db) == 3


def test_ranking_a_store_serializes_each_distinct_policy_once(tmp_path, monkeypatch):
    path = tmp_path / "db.jsonl"
    policies = [Fix(k=0.1), Fix(k=0.2), Cyclic(kind="SIN", k0=0.01, k1=0.1, l=5)]
    db = PolicyDb(str(path))
    for seed in range(4):
        for i, policy in enumerate(policies):
            db.put(KEY, make_record(policy, seed=seed, accs=[(10, 0.5 + 0.1 * i)],
                                    task_id="blobs", model_id="logreg"))
    expected = db.top_n(KEY, 12)
    fresh = PolicyDb(str(path))
    serialized = []
    real = tuning.serialize_policy
    monkeypatch.setattr(tuning, "serialize_policy", lambda p: serialized.append(p) or real(p))
    assert fresh.top_n(KEY, 12) == expected
    assert sorted(map(real, serialized)) == sorted(map(real, policies))
