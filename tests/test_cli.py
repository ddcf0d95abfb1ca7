"""End-to-end tests for the command-line front end, run in process.

Covers the exit-code convention (0 success, 1 domain error, 2 usage
error), the stdout/stderr split (artifacts vs. config echo and status),
golden help texts, and byte-reproducibility under --stable-output.
"""
import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from lrkit import (DbKey, Fix, PlateauConfig, PolicyDb, change_lr_on_plateau, grid_search,
                   load_task, lr_range_test, mean_peak_by_policy, policy_to_doc, quad1d,
                   record_to_doc)
from lrkit.cli import main

from _factories import make_record

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

FIX_001 = '{"type": "FIX", "k": 0.01}'
FIX_01 = '{"type": "FIX", "k": 0.1}'
BLOBS = "blobs2(n=160,seed=5)"


def run_cli(argv, capsys):
    """Invoke the CLI in process; returns (exit_code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse --help and usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# help texts and usage errors

@pytest.mark.parametrize("name,prefix", [
    ("lrkit", []),
    ("eval", ["eval"]),
    ("train", ["train"]),
    ("range-test", ["range-test"]),
    ("tune", ["tune"]),
    ("verify", ["verify"]),
    ("lr-estimate", ["lr-estimate"]),
    ("db", ["db"]),
])
def test_help_matches_golden(name, prefix, capsys):
    code, out, err = run_cli(prefix + ["--help"], capsys)
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, f"help_{name}.txt"), encoding="utf-8") as f:
        assert out == f.read()


@pytest.mark.parametrize("argv", [
    [],                                                        # no command
    ["frobnicate"],                                            # unknown command
    ["eval", "--policy", FIX_001],                             # missing --iters
    ["eval", "--iters", "three", "--policy", FIX_001],         # non-integer
    ["train", "--task", "quad1d", "--policy", FIX_001,
     "--iters", "5", "--optimizer", "nadam"],                  # bad choice
    ["db", "frobnicate"],                                      # bad action
])
def test_usage_errors_exit_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert "usage:" in err


def test_domain_errors_exit_1(tmp_path, capsys):
    db = str(tmp_path / "store.jsonl")
    cases = [
        ["eval", "--policy", '{"type": "NOPE", "k": 1.0}', "--iters", "3"],
        ["eval", "--policy", str(tmp_path / "missing.json"), "--iters", "3"],
        ["train", "--task", "nosuch", "--policy", FIX_001, "--iters", "3"],
        ["range-test", "--task", "quad1d", "--points", "4"],   # no accuracy metric
        ["--db", db, "tune", "--task", "quad1d", "--strategy", "plateau",
         "--budget", "10"],                                    # no --candidates
        ["--db", db, "db", "top"],                             # missing filters
        ["--db", db, "db", "export"],                          # missing --file
    ]
    for argv in cases:
        code, out, err = run_cli(argv, capsys)
        assert code == 1, argv
        assert "error:" in err, argv


def test_config_echo_goes_to_stderr(capsys):
    code, out, err = run_cli(["eval", "--policy", FIX_001, "--iters", "2"], capsys)
    assert code == 0
    first = err.splitlines()[0]
    assert first.startswith("config ")
    cfg = json.loads(first[len("config "):])
    assert cfg["command"] == "eval"
    assert cfg["seed"] == 0 and "workers" not in cfg
    assert cfg["stable_output"] is False
    assert "func" not in cfg


# ---------------------------------------------------------------------------
# eval

def test_eval_writes_csv_to_stdout(capsys):
    code, out, err = run_cli(["eval", "--policy", FIX_001, "--iters", "3"], capsys)
    assert code == 0
    assert out == "t,lr\n0,0.01\n1,0.01\n2,0.01\n"


def test_eval_honours_stride(capsys):
    argv = ["eval", "--policy", '{"type": "EXP", "k": 1.0, "gamma": 0.5}',
            "--iters", "9", "--stride", "4"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert out == "t,lr\n0,1.0\n4,0.0625\n8,0.00390625\n"


def test_eval_reads_policy_from_file(tmp_path, capsys):
    path = tmp_path / "policy.json"
    path.write_text(FIX_001, encoding="utf-8")
    code, out, err = run_cli(["eval", "--policy", str(path), "--iters", "2"], capsys)
    assert code == 0
    assert out == "t,lr\n0,0.01\n1,0.01\n"


@pytest.mark.parametrize("policy", [
    '{"type": "FIX", "k": -1.0}',
    '{"type": "POLY", "k": 0.1, "p": 1.0, "max_iter": 1}',
    '{"type": "POLY", "k": 0.1, "p": 1.0, "max_iter": 2}',  # its rate reaches 0 at t=2
])
def test_eval_rejects_invalid_policy_before_writing(tmp_path, policy, capsys):
    prefix = str(tmp_path / "out" / "sched")
    for argv in (["eval", "--policy", policy, "--iters", "3"],
                 ["--out", prefix, "eval", "--policy", policy, "--iters", "3"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert "error: invalid policy:" in err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("policy,iters,message", [
    ('{"type": "STEP", "k": 0.1, "gamma": 0.5, "l": 1000000000000000000000000000000}', "10",
     "error: invalid policy: l must be below 2**53, got 1000000000000000000000000000000"),
    ('{"type": "INV", "k": 0.1, "gamma": 0.5, "p": 2.0}', "1000000000000000000000000000000",
     "error: total_iters must be below 2**53, got 1000000000000000000000000000000"),
], ids=["field", "horizon"])
def test_eval_reports_integers_past_2_53_as_one_error_line(policy, iters, message, capsys):
    code, out, err = run_cli(["eval", "--policy", policy, "--iters", iters], capsys)
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("config ")] == [message]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["eval", "--policy", FIX_001, "--iters", str(2**52)],
    ["train", "--task", "quad1d", "--policy", FIX_001, "--iters", str(2**52)],
], ids=["eval", "train"])
def test_a_horizon_too_large_to_allocate_is_one_error_line(argv, capsys):
    # 2**52 eight-byte entries is 32 PiB, past any address space.
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if not line.startswith("config ")]
    assert len(errors) == 1 and errors[0].startswith("error: "), errors
    assert "Traceback" not in err


@pytest.mark.parametrize("points", [2**53, 2**64])
def test_a_range_test_grid_too_large_to_allocate_is_one_error_line(points, capsys):
    code, out, err = run_cli(["range-test", "--task", "blobs2(n=40)", "--points", str(points)],
                             capsys)
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("config ")] == \
        [f"error: points is too large to allocate, got {points}"]


SIN_5 = '{"type": "SIN", "k0": 0.01, "k1": 0.2, "l": 5}'


@pytest.mark.parametrize("argv,message", [
    (["train", "--task", BLOBS, "--policy", FIX_001, "--iters", str(2**53)],
     "error: total_iters must be below 2**53, got 9007199254740992"),
    (["range-test", "--task", BLOBS, "--budgets", str(2**53)],
     "error: total_iters must be below 2**53, got 36028797018963968"),   # 4 steps an epoch
    (["tune", "--task", BLOBS, "--strategy", "grid", "--budget", "0", "--lr-min", "0.01",
      "--lr-max", "0.5"], "error: budget_iters must be >= 1, got 0"),
    (["tune", "--task", BLOBS, "--strategy", "random", "--budget", "0", "--lr-min", "0.01",
      "--lr-max", "0.5"], "error: budget_iters must be >= 1, got 0"),
], ids=["train-2**53", "range-test-2**53", "tune-grid-0", "tune-random-0"])
def test_sizes_out_of_range_are_one_error_line_before_any_allocation(tmp_path, argv, message,
                                                                    capsys):
    code, out, err = run_cli(["--db", str(tmp_path / "store.jsonl")] + argv, capsys)
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("config ")] == [message]


def test_eval_stride_past_int64_samples_t0_alone(capsys):
    code, out, err = run_cli(["eval", "--policy", SIN_5, "--iters", "3",
                              "--stride", str(2**64)], capsys)
    assert code == 0
    assert out == "t,lr\n0,0.01\n"


@pytest.mark.parametrize("argv,message", [
    (["--seed", "-1", "train", "--task", "quad1d", "--policy", FIX_01, "--iters", "10"],
     "error: trial seeds must be non-negative integers, got -1"),
    (["tune", "--task", "quad1d", "--strategy", "grid", "--budget", "10", "--lr-min", "0.01",
      "--lr-max", "0.1", "--seeds=-2"],
     "error: trial seeds must be non-negative integers, got -2"),
    (["--seed", "-1", "tune", "--task", BLOBS, "--strategy", "random", "--budget", "10",
      "--lr-min", "0.01", "--lr-max", "0.1", "--seeds", "0"],
     "error: sample_seed must be a non-negative integer, got -1"),
], ids=["train", "tune-seeds", "tune-sample-seed"])
def test_negative_seeds_are_one_error_line(tmp_path, argv, message, capsys):
    code, out, err = run_cli(["--db", str(tmp_path / "store.jsonl")] + argv, capsys)
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("config ")] == [message]


def test_eval_out_prefix_writes_file_not_stdout(tmp_path, capsys):
    prefix = str(tmp_path / "nested" / "dir" / "sched")
    argv = ["--out", prefix, "eval", "--policy", FIX_001, "--iters", "2"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert out == ""
    assert f"wrote {prefix}.csv" in err
    with open(prefix + ".csv", encoding="utf-8") as f:
        assert f.read() == "t,lr\n0,0.01\n1,0.01\n"


@pytest.mark.parametrize("command,suffix", [
    (["eval", "--policy", FIX_01, "--iters", "3"], ".csv"),
    (["tune", "--task", BLOBS, "--strategy", "grid", "--budget", "20",
      "--lr-min", "0.01", "--lr-max", "0.5"], ".json"),
])
def test_an_unwritable_out_is_one_error_line(tmp_path, command, suffix, capsys):
    # The --out prefix sits under a regular file, so its directory cannot be made.
    (tmp_path / "afile").write_text("")
    db, path = str(tmp_path / "store.jsonl"), str(tmp_path / "afile" / "x") + suffix
    code, out, err = run_cli(["--db", db, "--out", path[: -len(suffix)]] + command, capsys)
    assert code == 1 and out == ""
    errors = [line for line in err.splitlines() if not line.startswith("config ")]
    assert len(errors) == 1 and errors[0].startswith(f"error: cannot write {path!r}: ")
    assert "Traceback" not in err
    # A tune stores its trials before it writes its report, and keeps them.
    assert len(PolicyDb(db).query_partial()) == (9 if command[0] == "tune" else 0)


# ---------------------------------------------------------------------------
# train

def test_train_emits_record_and_artifacts(tmp_path, capsys):
    prefix = str(tmp_path / "trial")
    argv = ["--out", prefix, "train", "--task", "quad1d", "--policy", FIX_01,
            "--iters", "10", "--optimizer", "sgd"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    with open(prefix + ".json", encoding="utf-8") as f:
        doc = json.load(f)
    assert doc["task_id"] == "quad1d(lam=2)"
    assert doc["optimizer"] == "sgd"
    assert doc["diverged"] is False
    assert doc["final_loss"] < 1.0  # started at loss 1.0, decays monotonically
    with open(prefix + ".csv", encoding="utf-8") as f:
        lines = f.read().splitlines()
    assert lines[0] == "iter,loss,top1,lr"
    assert "train ok: final_loss=" in err


def test_train_divergence_exits_1(capsys):
    argv = ["train", "--task", "quad1d", "--policy", '{"type": "FIX", "k": 200.0}',
            "--iters", "40", "--optimizer", "sgd"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert json.loads(out)["diverged"] is True
    assert "train diverged" in err


def test_train_stable_output_is_byte_identical(capsys):
    argv = ["--stable-output", "train", "--task", BLOBS, "--policy", FIX_01,
            "--iters", "25"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "meta" not in json.loads(out1)


def test_train_default_output_carries_wall_times(capsys):
    argv = ["train", "--task", "quad1d", "--policy", FIX_01, "--iters", "5",
            "--optimizer", "sgd"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert "meta" in json.loads(out)


# ---------------------------------------------------------------------------
# range-test

def test_range_test_reports_grid_and_recommendation(tmp_path, capsys):
    prefix = str(tmp_path / "range")
    argv = ["--seed", "1", "--out", prefix, "range-test", "--task", BLOBS,
            "--lr-min", "0.001", "--lr-max", "1.0", "--points", "4",
            "--budgets", "1,2"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    with open(prefix + ".json", encoding="utf-8") as f:
        doc = json.load(f)
    assert len(doc["lr_grid"]) == 4
    assert len(doc["top1"]) == 2 and all(len(row) == 4 for row in doc["top1"])
    assert doc["recommended"]["lr_min"] <= doc["recommended"]["lr_max"]
    with open(prefix + ".csv", encoding="utf-8") as f:
        lines = f.read().splitlines()
    assert lines[0] == "lr,budget_epochs,top1,diverged"
    assert len(lines) == 1 + 2 * 4
    assert "recommended lr range: [" in err


# ---------------------------------------------------------------------------
# tune

def test_tune_grid_stores_trials_and_ranks(tmp_path, capsys):
    db = str(tmp_path / "store.jsonl")
    argv = ["--db", db, "tune", "--task", BLOBS, "--strategy", "grid",
            "--budget", "40", "--lr-min", "0.01", "--lr-max", "0.5", "--top", "2"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["strategy"] == "grid"
    assert report["lr_range"] == {"lr_min": 0.01, "lr_max": 0.5}
    assert len(report["records"]) == 9  # 3 FIX + 3 decaying + 3 cyclic, one seed
    assert len(report["ranking"]) == 2
    assert "recommended" in report
    peaks = [row["mean_peak_top1"] for row in report["ranking"]]
    assert peaks == sorted(peaks, reverse=True)
    assert len(PolicyDb(db).query_partial()) == 9


def test_tune_random_uses_sample_count(tmp_path, capsys):
    db = str(tmp_path / "store.jsonl")
    argv = ["--db", db, "tune", "--task", BLOBS, "--strategy", "random",
            "--budget", "30", "--samples", "3", "--lr-min", "0.01", "--lr-max", "0.5"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["records"]) == 3
    assert len(PolicyDb(db).query_partial()) == 3


@pytest.mark.parametrize("given", [{"lr_min": 0.3}, {"lr_max": 0.5}])
def test_tune_takes_only_a_missing_range_end_from_the_range_test(tmp_path, given, capsys):
    found = lr_range_test(load_task(BLOBS), 1e-4, 1.0, 6, [1], seed=0,
                          optimizer="momentum").recommended
    ends = [f"--{name.replace('_', '-')}={value}" for name, value in given.items()]
    argv = ["--db", str(tmp_path / "store.jsonl"), "tune", "--task", BLOBS, "--strategy",
            "grid", "--budget", "20", "--points", "1"] + ends
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["lr_range"] == {"lr_min": found[0], "lr_max": found[1], **given}


@pytest.mark.parametrize("top", ["0", "-1"])
def test_tune_refuses_top_below_1(tmp_path, top, capsys):
    db = tmp_path / "store.jsonl"
    argv = ["--db", str(db), "tune", "--task", BLOBS, "--strategy", "grid", "--budget", "20",
            "--lr-min", "0.01", "--lr-max", "0.5", f"--top={top}"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("config ")] == \
        [f"error: --top must be >= 1, got {top}"]
    assert not db.exists()  # refused before any trial


def test_tune_exits_1_when_every_trial_diverged(tmp_path, capsys):
    db = tmp_path / "store.jsonl"
    argv = ["--stable-output", "--db", str(db), "tune", "--task", "blobs2(n=40)",
            "--strategy", "grid", "--budget", "20", "--lr-min", "1e8", "--lr-max", "1e9",
            "--optimizer", "sgd", "--points", "1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    report = json.loads(out)
    assert report["records"] and all(r["diverged"] for r in report["records"])
    assert [line for line in err.splitlines() if not line.startswith("config ")] == \
        ["tune: every trial diverged"]
    assert len(PolicyDb(str(db))) == len(report["records"])  # stored all the same


@pytest.mark.parametrize("content,message", [
    (None, "error: cannot read candidates file {path!r}: [Errno 2] No such file or "
           "directory: {path!r}"),
    ("[{", "error: candidates file {path!r} is not valid JSON: Expecting property name "
           "enclosed in double quotes: line 1 column 3 (char 2)"),
    ("[]", "error: candidates file {path!r} must hold a non-empty JSON array"),
    ('{"type": "FIX", "k": 0.1}',
     "error: candidates file {path!r} must hold a non-empty JSON array"),
], ids=["missing", "invalid-json", "empty-array", "not-an-array"])
def test_tune_refuses_a_candidates_file_it_cannot_read_as_a_ladder(tmp_path, content, message,
                                                                   capsys):
    path = str(tmp_path / "ladder.json")
    if content is not None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
    db = tmp_path / "store.jsonl"
    code, out, err = run_cli(["--db", str(db), "tune", "--task", "quad1d", "--strategy",
                              "plateau", "--budget", "10", "--candidates", path], capsys)
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("config ")] == \
        [message.format(path=path)]
    assert not db.exists()


def test_range_test_refuses_a_budget_list_it_cannot_parse(capsys):
    code, out, err = run_cli(["range-test", "--task", BLOBS, "--budgets", "1,x"], capsys)
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("config ")] == [
        "error: cannot parse --budgets '1,x': invalid literal for int() with base 10: 'x'"]


def test_tune_plateau_matches_library_run(tmp_path, capsys):
    db = str(tmp_path / "store.jsonl")
    ladder_docs = [{"type": "FIX", "k": 0.25}, {"type": "FIX", "k": 0.05},
                   {"type": "FIX", "k": 0.01}]
    candidates = tmp_path / "ladder.json"
    candidates.write_text(json.dumps(ladder_docs), encoding="utf-8")
    argv = ["--db", db, "--stable-output", "tune", "--task", BLOBS,
            "--strategy", "plateau", "--budget", "120",
            "--candidates", str(candidates), "--start-index", "1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0

    direct = change_lr_on_plateau(load_task(BLOBS), [Fix(0.25), Fix(0.05), Fix(0.01)], 1,
                                  budget_iters=120, seed=0, optimizer="momentum",
                                  cfg=PlateauConfig(), eval_every=None)
    report = json.loads(out)
    assert report["records"] == [record_to_doc(direct, stable=True, series_cap=128)]
    assert report["recommended"] == policy_to_doc(direct.policy)
    assert report["ranking"][0]["mean_peak_top1"] == direct.peak_top1
    assert len(PolicyDb(db).query_partial()) == 1


def test_tune_plateau_seeds_match_lone_library_runs(tmp_path, capsys):
    db = str(tmp_path / "store.jsonl")
    candidates = tmp_path / "ladder.json"
    candidates.write_text(json.dumps([{"type": "FIX", "k": 0.25}, {"type": "FIX", "k": 0.05},
                                      {"type": "FIX", "k": 0.01}]), encoding="utf-8")
    argv = ["--db", db, "--stable-output", "tune", "--task", BLOBS, "--strategy", "plateau",
            "--budget", "120", "--candidates", str(candidates), "--start-index", "1",
            "--optimizer", "adam", "--seeds", "2,0,1", "--top", "2"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0

    task = load_task(BLOBS)
    direct = [change_lr_on_plateau(task, [Fix(0.25), Fix(0.05), Fix(0.01)], 1,
                                   budget_iters=120, seed=s, optimizer="adam")
              for s in (2, 0, 1)]
    scored = mean_peak_by_policy(direct)
    report = json.loads(out)
    assert report["seeds"] == [2, 0, 1]
    assert report["records"] == [record_to_doc(r, stable=True, series_cap=128) for r in direct]
    assert report["ranking"] == [{"policy": policy_to_doc(p), "mean_peak_top1": v}
                                 for p, v in scored[:2]]
    assert report["recommended"] == policy_to_doc(scored[0][0])
    expected = PolicyDb(str(tmp_path / "direct.jsonl"))
    key = DbKey(dataset_id=task.task_id, model_id=task.model_id, optimizer_id="adam")
    for rec in direct:
        expected.put(key, rec, stable=True)
    with open(db, "rb") as got, open(expected.path, "rb") as want:
        assert got.read() == want.read()


# ---------------------------------------------------------------------------
# verify

def test_verify_met_target_exits_0(tmp_path, capsys):
    db = str(tmp_path / "store.jsonl")
    argv = ["--db", db, "verify", "--task", BLOBS, "--policy", FIX_01,
            "--target", "0.5", "--budget", "60"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["phase_reached"] == 1
    assert "verify: phase=1 verified=True" in err


def test_verify_unmet_target_exits_1(tmp_path, capsys):
    db = str(tmp_path / "store.jsonl")
    argv = ["--db", db, "verify", "--task", "moons2(n=120,seed=3)", "--policy", FIX_001,
            "--target", "0.999", "--budget", "12"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["verified"] is False
    assert doc["phase_reached"] == 3
    assert "verified=False" in err


@pytest.mark.parametrize("target", ["nan", "2", "-1"])
def test_verify_refuses_a_target_outside_zero_one_and_stores_nothing(tmp_path, capsys, target):
    db = str(tmp_path / "store.jsonl")
    argv = ["--stable-output", "--db", db, "verify", "--task", BLOBS, "--policy", FIX_01,
            "--target", target, "--budget", "20"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: target_top1 must be in [0, 1], got {float(target)!r}"]
    assert len(PolicyDb(db)) == 0


@pytest.mark.parametrize("seeds", ["", ","])
@pytest.mark.parametrize("command", [
    ["tune", "--strategy", "grid", "--lr-min", "0.01", "--lr-max", "0.5"],
    ["verify", "--policy", FIX_01, "--target", "0.5"],
], ids=["tune", "verify"])
def test_an_empty_seeds_list_is_one_error_line_and_stores_nothing(tmp_path, command, seeds,
                                                                   capsys):
    # An empty --seeds is refused, not read as "no --seeds" and run on the --seed default.
    db = tmp_path / "store.jsonl"
    argv = ["--db", str(db), *command, "--task", BLOBS, "--budget", "20", "--seeds", seeds]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert [line for line in err.splitlines() if not line.startswith("config ")] == \
        ["error: --seeds must not be empty"]
    assert not db.exists()


# ---------------------------------------------------------------------------
# lr-estimate

def test_lr_estimate_recovers_quadratic_curvature(capsys):
    argv = ["lr-estimate", "--task", "quad1d", "--policy", FIX_01, "--iters", "8"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,applied_lr,lr_opt,singular"
    assert len(lines) == 1 + 7  # estimates at t = 1 .. 7
    for line in lines[1:]:
        t, applied, opt, singular = line.split(",")
        assert float(applied) == 0.1
        assert float(opt) == pytest.approx(0.5, rel=1e-10)  # 1/lam with lam = 2
        assert singular == "0"


# ---------------------------------------------------------------------------
# db

def seeded_store(path):
    store = PolicyDb(path)
    key = DbKey(dataset_id="toy", model_id="m", optimizer_id="sgd")
    for k, peak in zip((0.1, 0.2, 0.3), (0.9, 0.95, 0.8)):
        store.put(key, make_record(Fix(k), accs=[(10, peak)]))
    other = DbKey(dataset_id="other", model_id="m", optimizer_id="sgd")
    store.put(other, make_record(Fix(0.4), accs=[(10, 0.5)], task_id="other"))
    return store


def _write(path, data):
    with open(path, "wb") as f:
        f.write(data)


_HEADER = b'{"kind": "header", "schema_version": 3}\n'
# name: what makes the path a store that cannot be opened
CORRUPT_STORES = {
    "a directory": os.mkdir,
    "a malformed line": lambda path: _write(path, _HEADER + b"definitely not json\n"),
    "schema 2": lambda path: _write(path, b'{"kind": "header", "schema_version": 2}\n'),
}


@pytest.mark.parametrize("corrupt", CORRUPT_STORES)
@pytest.mark.parametrize("argv,message", [
    (["db", "top"], "db top needs --dataset, --model, --optimizer"),
    (["db", "top", "--dataset", "toy", "--model", "m"], "db top needs --optimizer"),
    (["db", "top", "--model", "m", "--optimizer", "sgd"], "db top needs --dataset"),
    (["db", "export"], "db export needs --file PATH"),
    (["db", "import", "--dataset", "toy"], "db import needs --file PATH"),
])
def test_db_checks_its_arguments_before_it_opens_the_store(tmp_path, corrupt, argv, message,
                                                           capsys):
    db = str(tmp_path / "store.jsonl")
    CORRUPT_STORES[corrupt](db)
    code, out, err = run_cli(["--db", db, *argv], capsys)
    assert (code, out) == (1, "")
    assert [line for line in err.splitlines() if not line.startswith("config ")] == \
        [f"error: {message}"]


@pytest.mark.parametrize("corrupt", CORRUPT_STORES)
@pytest.mark.parametrize("strategy", ["grid", "random", "plateau"])
def test_tune_opens_its_store_before_it_trains(tmp_path, corrupt, strategy, monkeypatch, capsys):
    db = str(tmp_path / "store.jsonl")
    CORRUPT_STORES[corrupt](db)
    ladder = tmp_path / "ladder.json"
    ladder.write_text(f"[{FIX_01}, {FIX_001}]")

    def trained(*args, **kwargs):
        raise AssertionError("trained before the store was opened")

    for name in ("probe_lr_range", "grid_search", "random_search", "plateau_search"):
        monkeypatch.setattr(f"lrkit.cli.{name}", trained)
    argv = ["--db", db, "tune", "--task", BLOBS, "--strategy", strategy, "--budget", "20",
            "--candidates", str(ladder)]  # no range: grid and random would run a range test
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    [line] = [line for line in err.splitlines() if not line.startswith("config ")]
    assert line.startswith("error: ") and db in line


def test_db_list_prints_rows_and_filters(tmp_path, capsys):
    db = str(tmp_path / "store.jsonl")
    seeded_store(db)
    code, out, err = run_cli(["--db", db, "db", "list"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all("inserted_at=" in line for line in lines)
    assert "4 records" in err

    code, out, err = run_cli(["--db", db, "db", "list", "--dataset", "toy"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all("dataset=toy" in line and "policy={" in line for line in lines)
    assert "3 records" in err


def test_db_list_stable_output_hides_timestamps(tmp_path, capsys):
    db = str(tmp_path / "store.jsonl")
    seeded_store(db)
    code, out, err = run_cli(["--db", db, "--stable-output", "db", "list"], capsys)
    assert code == 0
    assert "inserted_at=" not in out


def test_db_top_ranks_by_peak(tmp_path, capsys):
    db = str(tmp_path / "store.jsonl")
    seeded_store(db)
    argv = ["--db", db, "db", "top", "--dataset", "toy", "--model", "m",
            "--optimizer", "sgd", "--n", "2"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    value0, doc0 = lines[0].split(" ", 1)
    value1, doc1 = lines[1].split(" ", 1)
    assert value0 == "0.95" and json.loads(doc0) == {"type": "FIX", "k": 0.2}
    assert value1 == "0.9" and json.loads(doc1) == {"type": "FIX", "k": 0.1}


def test_db_top_prints_n_a_for_trials_without_accuracy(tmp_path, capsys):
    # Surface trials have no accuracy: every peak is missing, so the rows tie
    # and rank by their serialized policies.
    task = quad1d()
    db = str(tmp_path / "store.jsonl")
    store = PolicyDb(db)
    key = DbKey(dataset_id=task.task_id, model_id=task.model_id, optimizer_id="momentum")
    for rec in grid_search(task, [Fix(0.2), Fix(0.05), Fix(0.1)], budget_iters=20):
        store.put(key, rec)
    argv = ["--db", db, "--stable-output", "db", "top", "--dataset", task.task_id,
            "--model", task.model_id, "--optimizer", "momentum"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and "error" not in err
    assert out.splitlines() == [f"n/a {json.dumps({'type': 'FIX', 'k': k})}"
                                for k in (0.05, 0.1, 0.2)]


def test_db_top_iters_metric_needs_target(tmp_path, capsys):
    db = str(tmp_path / "store.jsonl")
    seeded_store(db)
    argv = ["--db", db, "db", "top", "--dataset", "toy", "--model", "m",
            "--optimizer", "sgd", "--metric", "iters_to_target"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert "error:" in err


def test_db_export_import_roundtrip(tmp_path, capsys):
    db = str(tmp_path / "store.jsonl")
    seeded_store(db)
    dump = str(tmp_path / "dump.jsonl")
    code, out, err = run_cli(["--db", db, "db", "export", "--file", dump], capsys)
    assert code == 0
    assert f"exported 4 records to {dump}" in err

    fresh = str(tmp_path / "fresh.jsonl")
    code, out, err = run_cli(["--db", fresh, "db", "import", "--file", dump], capsys)
    assert code == 0
    assert f"imported 4 records from {dump}" in err
    code, out, err = run_cli(["--db", fresh, "db", "list"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 4


# ---------------------------------------------------------------------------
# any argv
#
# Paths start with ROOT, a fresh directory per example.  Sizes stay small,
# or at or past 2**53 where they are refused before anything is allocated.

def _mostly(good, bad):
    """Values from ``good``, three times as often as each one from ``bad``."""
    return st.sampled_from(list(good) * 3 + list(bad))


_TASKS = _mostly(["blobs2(n=40)", "moons2(n=40,hidden=2)"],
                 ["quad1d", "landscape2d", "blobs2(n=5)", "nosuch", "moons2(noise=nan)"])
_POLICIES = _mostly([FIX_01, FIX_001, SIN_5,
                     '{"type": "EXP", "k": 0.1, "gamma": 0.9}'],
                    ['{"type": "FIX", "k": -1}', '{"type": "NOPE"}', "{", "ROOT/ladder.json",
                     '{"type": "STEP", "k": 0.1, "gamma": 0.5, "l": 9007199254740992}',
                     "ROOT/missing.json"])
_COUNTS = st.one_of(st.integers(1, 50), st.integers(1, 50), st.integers(-2, 50),
                    st.integers(2**53, 2**64))
_SMALL = st.one_of(st.integers(1, 5), st.integers(-2, 5))
_FLOATS = st.one_of(st.sampled_from([1e-3, 0.05, 0.3, 0.9, 1.0]),
                    st.sampled_from([0.0, -1.0, 2.0, 1e300]),
                    st.floats(allow_nan=True, allow_infinity=True))
_OPTIMIZERS = _mostly(["sgd", "momentum", "adam"], ["nadam"])
_SEEDS = st.one_of(st.lists(st.integers(-1, 3), max_size=3).map(lambda xs: ",".join(map(str, xs))),
                   st.sampled_from(["a,b", ",", "0,,1"]))
_FILES = st.sampled_from(["ROOT/ladder.json", "ROOT/empty.json", "ROOT/junk.json",
                          "ROOT/missing.json", "ROOT/nodir/x.jsonl", "ROOT/store.jsonl"])

# Each subcommand's options: (flag, values, required).
_OPTIONS = {
    "eval": [("--policy", _POLICIES, True), ("--iters", _COUNTS, True),
             ("--stride", st.one_of(_SMALL, st.integers(2**53, 2**64)), False)],
    "train": [("--task", _TASKS, True), ("--policy", _POLICIES, True), ("--iters", _COUNTS, True),
              ("--optimizer", _OPTIMIZERS, False), ("--eval-every", _SMALL, False)],
    "range-test": [("--task", _TASKS, True), ("--lr-min", _FLOATS, False),
                   ("--lr-max", _FLOATS, False), ("--points", _SMALL, False),
                   ("--budgets", st.sampled_from(["1", "2,1", "0", "-1", "x", "", str(2**53)]),
                    False),
                   ("--optimizer", _OPTIMIZERS, False), ("--eval-every", _SMALL, False)],
    "tune": [("--task", _TASKS, True),
             ("--strategy", _mostly(["grid", "random", "plateau"], ["anneal"]), True),
             ("--budget", _COUNTS, True), ("--seeds", _SEEDS, False),
             ("--lr-min", _FLOATS, False), ("--lr-max", _FLOATS, False),
             ("--points", _SMALL, False), ("--samples", _SMALL, False),
             ("--candidates", _FILES, False), ("--start-index", _SMALL, False),
             ("--optimizer", _OPTIMIZERS, False), ("--eval-every", _SMALL, False),
             ("--top", _SMALL, False)],
    "verify": [("--task", _TASKS, True), ("--policy", _POLICIES, True),
               ("--target", _FLOATS, True), ("--budget", _COUNTS, True),
               ("--seeds", _SEEDS, False), ("--top", _SMALL, False),
               ("--optimizer", _OPTIMIZERS, False), ("--eval-every", _SMALL, False)],
    "lr-estimate": [("--task", _TASKS, True), ("--policy", _POLICIES, True),
                    ("--iters", _COUNTS, True), ("--stride", _SMALL, False),
                    ("--optimizer", _OPTIMIZERS, False)],
    "db": [("--dataset", st.sampled_from(["blobs2(n=40,noise=1,seed=7,sep=3)", "x"]), False),
           ("--model", st.sampled_from(["logreg", "x"]), False),
           ("--optimizer", _OPTIMIZERS, False),
           ("--metric", _mostly(["peak_top1", "iters_to_target", "final_loss"], ["x"]), False),
           ("--target", _FLOATS, False), ("--n", _SMALL, False), ("--file", _FILES, False)],
}


@st.composite
def _argv(draw):
    argv = ["--db", "ROOT/store.jsonl"]
    if draw(st.booleans()):
        argv.append("--stable-output")
    if draw(st.booleans()):
        argv.append("--out=ROOT/out/run")
    if draw(st.booleans()):
        argv.append(f"--seed={draw(st.integers(-1, 3))}")
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv.append(command)
    if command == "db":
        argv.append(draw(_mostly(["list", "top", "export", "import"], ["drop"])))
    for flag, values, required in _OPTIONS[command]:
        # A required option is left out now and then: that is a usage error.
        if draw(st.integers(0, 19)) > 0 if required else draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


def _run_in(root: str, argv):
    """``main(argv)`` with ROOT replaced; (exit code or SystemExit text, stdout, stderr)."""
    with open(os.path.join(root, "ladder.json"), "w", encoding="utf-8") as f:
        f.write(f"[{FIX_01}, {FIX_001}]")
    with open(os.path.join(root, "junk.json"), "w", encoding="utf-8") as f:
        f.write("{not json\n")
    open(os.path.join(root, "empty.json"), "w").close()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([a.replace("ROOT", root) for a in argv])
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
    return code, out.getvalue(), err.getvalue()


@given(_argv())
@settings(max_examples=200, deadline=None)
def test_any_argv_ends_in_an_exit_code_and_at_most_one_error_line(argv):
    with tempfile.TemporaryDirectory() as root:
        code, out, err = _run_in(root, argv)
    assert "Traceback" not in err
    # Sizes at or past 2**53 are refused before anything is allocated.
    assert "allocate" not in err and "out of memory" not in err, err
    if code == "SystemExit(2)":  # argparse's usage error
        assert "usage:" in err
        return
    assert code in (0, 1), (code, err)
    config, *rest = err.splitlines()
    assert config.startswith("config ")
    assert sum(line.startswith("error:") for line in rest) <= 1, err
