"""One rule for sequence arguments at every library entry point (``lrkit.errors.check_items``).

A sequence argument (trials, candidates, seeds, ladder rungs, budgets, records,
stages) is any iterable but a str, bytes or dict, read once into a list.  Each
entry point refuses any other value, and an empty one where it needs an item,
with its own module's ``LrKitError`` subclass before it trains or writes to the
store; a generator is taken as its list is.
"""
import os

import numpy as np
import pytest

from lrkit import (DbError, DbKey, Fix, PolicyDb, PolicyLadderController, ScheduleError, TaskError,
                   TunerError, VerifyError, change_lr_on_plateau, check_policy_ordering,
                   compose_staged_policy, grid_search, load_task, lr_range_test,
                   mean_peak_by_policy, plateau_search, quad1d, random_search, rank_policies,
                   record_to_doc, train_population, verify_policy)
from lrkit.cli import main
from lrkit.errors import check_items

from _factories import make_record

BLOBS = load_task("blobs2(n=40)")
KEY = DbKey(BLOBS.task_id, BLOBS.model_id, "momentum")
LADDER = [Fix(0.1), Fix(0.01)]
RECORDS = [make_record(Fix(0.1), accs=[(5, 0.9)]), make_record(Fix(0.2), accs=[(5, 0.8)])]

# Each entry point: (call(db, value), error class, name in the message, least, a valid value).
_ENTRY_POINTS = {
    "train_population": (lambda db, v: train_population(BLOBS, v, budget_iters=3),
                         TaskError, "trials", 1, [(Fix(0.1), 0), (Fix(0.05), 1)]),
    "grid_search.candidates": (lambda db, v: grid_search(BLOBS, v, budget_iters=3),
                               TunerError, "candidates", 1, LADDER),
    "grid_search.seeds": (lambda db, v: grid_search(BLOBS, LADDER, budget_iters=3, seeds=v),
                          TunerError, "seeds", 1, [0, 1]),
    "random_search.seeds": (lambda db, v: random_search(BLOBS, (0.01, 0.1), 2, budget_iters=3,
                                                        seeds=v),
                            TunerError, "seeds", 1, [0, 1]),
    "plateau_search.seeds": (lambda db, v: plateau_search(BLOBS, LADDER, 0, budget_iters=5,
                                                          seeds=v),
                             TunerError, "seeds", 1, [0, 1]),
    "plateau_search.policies": (lambda db, v: plateau_search(BLOBS, v, 0, budget_iters=5),
                                TunerError, "policy ladder", 1, LADDER),
    "change_lr_on_plateau": (lambda db, v: change_lr_on_plateau(BLOBS, v, 0, budget_iters=5),
                             TunerError, "policy ladder", 1, LADDER),
    "PolicyLadderController": (lambda db, v: PolicyLadderController(v, 0, 5),
                               TunerError, "policy ladder", 1, LADDER),
    "check_policy_ordering": (lambda db, v: check_policy_ordering(v, 5),
                              TunerError, "policies", 0, LADDER),
    "lr_range_test": (lambda db, v: lr_range_test(BLOBS, 0.01, 1.0, 4, v),
                      TunerError, "budgets_epochs", 1, [2, 1]),
    "rank_policies": (lambda db, v: rank_policies(v), TunerError, "records", 1, RECORDS),
    "mean_peak_by_policy": (lambda db, v: mean_peak_by_policy(v),
                            TunerError, "records", 0, RECORDS),
    "compose_staged_policy": (lambda db, v: compose_staged_policy(v),
                              TunerError, "stages", 1, [(0, 3, Fix(0.1)), (3, 6, Fix(0.05))]),
    "verify_policy": (lambda db, v: verify_policy(Fix(0.1), BLOBS, 1.0, budget_iters=6, db=db,
                                                  seeds=v),
                      VerifyError, "seeds", 1, [0, 1]),
}

# What is not a sequence: an int, None, a policy, a 0-d array, a str, bytes and a dict.
_NOT_SEQUENCES = [5, None, Fix(0.1), np.array(3), "ab", b"ab", {0: "a"}]


@pytest.fixture
def db(tmp_path):
    db = PolicyDb(str(tmp_path / "store.jsonl"))
    for policy, peak in ((Fix(0.05), 0.9), (Fix(0.2), 0.8)):
        db.put(KEY, make_record(policy, accs=[(5, peak)], task_id=KEY.dataset_id,
                                model_id=KEY.model_id, optimizer="momentum"), stable=True)
    return db


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


@pytest.mark.parametrize("value", _NOT_SEQUENCES, ids=repr)
@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_what_is_not_a_sequence_is_refused_with_one_error_before_any_write(db, name, value):
    call, error, arg, _, _ = _ENTRY_POINTS[name]
    before = _read(db.path)
    with pytest.raises(error) as info:
        call(db, value)
    assert type(info.value) is error
    assert str(info.value) == f"{arg} must be a list or other non-string iterable, got {value!r}"
    assert _read(db.path) == before


@pytest.mark.parametrize("name", sorted(n for n, entry in _ENTRY_POINTS.items() if entry[3]))
def test_an_empty_sequence_is_refused_where_an_item_is_needed(db, name):
    call, error, arg, _, _ = _ENTRY_POINTS[name]
    before = _read(db.path)
    with pytest.raises(error) as info:
        call(db, [])
    assert str(info.value) == f"{arg} must not be empty"
    assert _read(db.path) == before


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_a_generator_is_taken_as_its_list(db, name):
    call, _, _, _, valid = _ENTRY_POINTS[name]
    call(db, (item for item in valid))


def _stable_docs(records):
    return [record_to_doc(rec, stable=True) for rec in records]


def test_a_generator_gives_the_records_its_list_gives():
    task = quad1d()
    candidates = [Fix(0.1), Fix(0.3)]
    assert _stable_docs(grid_search(task, iter(candidates), budget_iters=8, seeds=iter([0, 2]))) \
        == _stable_docs(grid_search(task, candidates, budget_iters=8, seeds=[0, 2]))
    assert _stable_docs(plateau_search(task, iter(LADDER), 0, budget_iters=8,
                                       seeds=iter([0, 1]))) \
        == _stable_docs(plateau_search(task, LADDER, 0, budget_iters=8, seeds=[0, 1]))


def test_check_policy_ordering_reads_a_generator():
    check_policy_ordering((p for p in LADDER), 5)
    with pytest.raises(ScheduleError, match="policy ladder is not ordered"):
        check_policy_ordering((p for p in reversed(LADDER)), 5)


def test_an_error_inside_a_callers_generator_surfaces_as_itself():
    def rungs():
        yield Fix(0.1)
        raise TypeError("the caller's own error")

    with pytest.raises(TypeError, match="the caller's own error"):
        check_items(TunerError, "policies", rungs())


@pytest.mark.parametrize("command", ["tune", "verify"])
def test_cli_refuses_seeds_that_name_no_seed(tmp_path, command, capsys):
    task = ["--task", BLOBS.task_id, "--budget", "3", "--seeds", ","]
    extra = (["--strategy", "grid", "--lr-min", "0.01", "--lr-max", "0.1"] if command == "tune"
             else ["--policy", '{"type": "FIX", "k": 0.1}', "--target", "0.5"])
    path = str(tmp_path / "store.jsonl")
    assert main(["--db", path, command] + task + extra) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("config ")] == \
        ["error: --seeds must not be empty"]
    assert not PolicyDb(path).query_partial()


# ---------------------------------------------------------------------------
# export and import paths

_TRANSFERS = pytest.mark.parametrize("method,action", [("export", "export"),
                                                      ("import_", "import")])


@pytest.mark.parametrize("value", [None, b"x.jsonl"], ids=repr)
@_TRANSFERS
def test_export_and_import_refuse_a_path_that_is_not_a_str(db, tmp_path, method, action, value):
    before = _read(db.path)
    with pytest.raises(DbError) as info:
        getattr(db, method)(value)
    assert str(info.value) == f"{action} path must be a str or an os.PathLike of one, got {value!r}"
    assert _read(db.path) == before
    assert os.listdir(tmp_path) == ["store.jsonl"]


@_TRANSFERS
def test_export_and_import_never_read_an_int_as_an_open_descriptor(db, tmp_path, method, action):
    other = tmp_path / "other.jsonl"
    other.write_bytes(_read(db.path))
    fd = os.open(other, os.O_RDWR)
    try:
        with pytest.raises(DbError) as info:
            getattr(db, method)(fd)
        assert str(info.value) == \
            f"{action} path must be a str or an os.PathLike of one, got {fd}"
        os.fstat(fd)  # still open
        assert os.lseek(fd, 0, os.SEEK_CUR) == 0
    finally:
        os.close(fd)
    assert _read(str(other)) == _read(db.path)


def test_export_and_import_take_a_pathlib_path(db, tmp_path):
    target = tmp_path / "exported.jsonl"
    assert db.export(target) == 2
    fresh = PolicyDb(tmp_path / "fresh.jsonl")
    assert fresh.import_(target) == 2
    assert [row.policy for row in fresh.query_partial()] == [Fix(0.05), Fix(0.2)]
