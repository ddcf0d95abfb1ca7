"""Tests for the JSON-lines policy store."""
import json
import multiprocessing
import os
import tempfile
import warnings
import zlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lrkit import policydb
from lrkit import (Cyclic, DbError, DbKey, Fix, Metrics, PolicyDb, SCHEMA_VERSION,
                   ScheduleSeries, TrialRecord, quad1d, train)
from lrkit.policydb import SERIES_CAP

from _factories import make_record

KEY = DbKey(dataset_id="blobs", model_id="logreg", optimizer_id="sgd")
OTHER = DbKey(dataset_id="blobs", model_id="mlp", optimizer_id="sgd")


def seeded_db(path, peaks=(0.9, 0.95, 0.8)):
    db = PolicyDb(str(path))
    for i, (k, peak) in enumerate(zip((0.1, 0.2, 0.3), peaks)):
        db.put(KEY, make_record(Fix(k=k), seed=i, accs=[(10, peak)],
                                task_id="blobs", model_id="logreg"))
    return db


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
                        lr_trace=ScheduleSeries(policy=Fix(k=0.1), points=()),
                        diverged=False, peak_top1=0.9, iter_at_peak=10, final_loss=1.0)
    with pytest.raises(DbError, match="series max"):
        db.put(KEY, lying)
    assert len(db) == 0


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


# ---------------------------------------------------------------------------
# series thinning

def long_record(n_points, peak_iter, lr_len=0):
    series = [Metrics(iteration=i + 1, loss=1.0, top1=0.99 if i + 1 == peak_iter else 0.1)
              for i in range(n_points)]
    lr_points = tuple((t, 0.01) for t in range(lr_len))
    return TrialRecord(task_id="t", model_id="m", policy=Fix(k=0.1), optimizer="sgd",
                       seed=0, budget_iters=n_points, eval_every=1, series=series,
                       lr_trace=ScheduleSeries(policy=Fix(k=0.1), points=lr_points),
                       diverged=False, peak_top1=0.99, iter_at_peak=peak_iter,
                       final_loss=1.0)


def stored_doc(db, record_id):
    """The trial document stored on disk under ``record_id``: summary and payload joined."""
    for line in read_lines(db.path)[1:]:
        if line["id"] == record_id:
            return {**line["summary"], **json.loads(line["payload"])}
    raise AssertionError(f"no stored line with id {record_id}")


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


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
    db = seeded_db(tmp_path / "a.jsonl")
    with pytest.raises(DbError, match="must differ"):
        db.export(str(tmp_path / "a.jsonl"))


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
    lines = path.read_text().splitlines()
    doc = json.loads(lines[2])
    doc["payload"] = doc["payload"].replace('"loss":1.0', '"loss":2.0')
    lines[2] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DbError, match="line 3: payload fails its CRC"):
        PolicyDb(str(path))


def test_import_decodes_every_payload_not_just_the_crc(tmp_path):
    out = tmp_path / "dump.jsonl"
    seeded_db(tmp_path / "a.jsonl").export(str(out))
    lines = out.read_text().splitlines()
    doc = json.loads(lines[2])
    doc["payload"] = json.dumps({"series": [{"iteration": 10, "loss": 1.0, "top1": 0.1}],
                                 "lr_trace": []})  # no longer attains the stored peak
    doc["crc"] = zlib.crc32(doc["payload"].encode())
    lines[2] = json.dumps(doc)
    out.write_text("\n".join(lines) + "\n")
    assert len(PolicyDb(str(out))) == 3  # opening checks the CRC only
    target_path = tmp_path / "b.jsonl"
    target = PolicyDb(str(target_path))
    before = target_path.read_bytes()
    with pytest.raises(DbError, match="line 3: malformed payload"):
        target.import_(str(out))
    assert len(target) == 0
    assert target_path.read_bytes() == before


def test_version_1_store_is_refused(tmp_path):
    old = tmp_path / "v1.jsonl"
    old.write_text(json.dumps({"kind": "header", "schema_version": 1}) + "\n")
    with pytest.raises(DbError, match="schema_version 1 unsupported"):
        PolicyDb(str(old))


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
                lr_trace=ScheduleSeries(policy=policy,
                                        points=tuple((t, 0.05 / (1 + t)) for t in range(lr_len))),
                diverged=False, peak_top1=peak, iter_at_peak=at, final_loss=series[-1].loss),
                stable=stable)
        rows = live.query_partial()
        fresh = PolicyDb(path).query_partial()
        assert fresh == rows
        assert [r.record for r in fresh] == [r.record for r in rows]
        assert all(len(r.record.series) <= SERIES_CAP for r in rows)


# Workers of the two-process test; module level so ``spawn`` can import them.

def _put_many(path, first_seed, count, results):
    db = PolicyDb(path)
    ids = [db.put(KEY, long_record(600, peak_iter=300, lr_len=600), inserted_at=float(seed))
           for seed in range(first_seed, first_seed + count)]
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
    PolicyDb(path)
    ctx = multiprocessing.get_context("spawn")
    results, done = ctx.Queue(), ctx.Event()
    writers = [ctx.Process(target=_put_many, args=(path, first, 40, results))
               for first in (0, 1000)]
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
    assert lines[0]["kind"] == "header"
    final_ids = [line["id"] for line in lines[1:]]
    assert final_ids == written
    assert all(view == final_ids[:len(view)] for view in views)
    assert [r.id for r in PolicyDb(path).query_partial()] == final_ids
