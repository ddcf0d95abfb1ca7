"""The CLI's JSON report writer: exactly ``json.dumps(doc, indent=2)``.

``lrkit.cli._dumps`` lays out only the containers-only levels in Python and
hands every container of scalars, and every list of non-empty ones, to the
C encoder. These tests hold its text to the stdlib's for any JSON-shaped
document, and every JSON report the CLI writes to its own re-serialization.
"""
import collections
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lrkit.cli as cli
from lrkit.cli import main

BLOBS = "blobs2(n=160,seed=5)"
FIX_01 = '{"type": "FIX", "k": 0.1}'

# Text that looks like the layout the writer rewrites, and text JSON must escape.
_TRICKY = st.sampled_from(["}", "],", '{"', "},\n    {", "],\n  [", '"', "\\", "\n", "\t",
                           "\x00", "\x1f", "\x7f", "é", " ", "\U0001f600", ": ", ","])
_TEXT = st.lists(st.one_of(_TRICKY, st.text(max_size=3)), max_size=4).map("".join)
_FLOAT = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf]),
                   st.floats(allow_nan=False).map(np.float64))
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(min_value=-10**300, max_value=10**300), _FLOAT, _TEXT)
# Mostly str keys; the stdlib also writes int, float, bool and None keys as strings.
_KEY = st.one_of(_TEXT, _TEXT, _TEXT, st.integers(), _FLOAT, st.booleans(), st.none())


def _containers(children):
    rows = st.one_of(st.dictionaries(_KEY, _SCALAR, min_size=1, max_size=3),
                     st.lists(_SCALAR, min_size=1, max_size=3),
                     st.lists(_SCALAR, min_size=1, max_size=3).map(tuple))
    return st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEY, children, max_size=4),
        st.dictionaries(_TEXT, children, max_size=3).map(collections.OrderedDict),
        st.lists(rows, min_size=1, max_size=4),  # series- and lr_trace-shaped lists
        st.lists(st.sampled_from([{}, [], ()]), min_size=1, max_size=3))


_DOCS = st.recursive(_SCALAR, _containers, max_leaves=24)


@given(_DOCS)
@settings(max_examples=1000, deadline=None)
def test_the_writer_is_json_dumps_indent_2(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {"a": [{"x": 1}, {"y": object()}]},
    {"a": {(1, 2): 3}},
    [{1, 2}],
    {"a": [np.int64(1)]},
])
def test_what_json_refuses_the_writer_refuses_alike(doc):
    with pytest.raises(TypeError) as expected:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as got:
        cli._dumps(doc)
    assert str(got.value) == str(expected.value)


def test_a_report_shaped_document_never_reaches_the_stdlib_encoder(monkeypatch):
    series = [{"iteration": i, "loss": 1.0 / (i + 1), "top1": None if i % 3 else 0.5}
              for i in range(50)]
    doc = {"task_id": "moons2", "seeds": [0, 1], "lr_range": {"lr_min": 0.01, "lr_max": 0.5},
           "records": [{"policy": {"type": "FIX", "k": 0.1}, "series": series,
                        "lr_trace": [[t, 0.1] for t in range(50)], "diverged": False,
                        "meta": {"wall_ms_total": 1.5, "wall_ms": [0.1] * 50}}],
           "ranking": [], "recommended": {}}
    expected = json.dumps(doc, indent=2)

    def refuse(*args, **kwargs):
        raise AssertionError("the report fell back to json.dumps")

    monkeypatch.setattr(cli.json, "dumps", refuse)
    assert cli._dumps(doc) == expected


# ---------------------------------------------------------------------------
# every JSON report the CLI writes

def _ladder(tmp_path):
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps([{"type": "FIX", "k": 0.25}, {"type": "FIX", "k": 0.05},
                                {"type": "FIX", "k": 0.01}]), encoding="utf-8")
    return str(path)


_COMMANDS = {
    "tune-grid": lambda tmp: ["tune", "--task", BLOBS, "--strategy", "grid", "--budget", "40",
                              "--lr-min", "0.01", "--lr-max", "0.5", "--seeds", "0,1"],
    "tune-random": lambda tmp: ["tune", "--task", BLOBS, "--strategy", "random",
                                "--budget", "30", "--samples", "3", "--lr-min", "0.01",
                                "--lr-max", "0.5"],
    "tune-plateau": lambda tmp: ["tune", "--task", BLOBS, "--strategy", "plateau",
                                 "--budget", "120", "--candidates", _ladder(tmp),
                                 "--start-index", "1"],
    "verify-phase-1": lambda tmp: ["verify", "--task", BLOBS, "--policy", FIX_01,
                                   "--target", "0.5", "--budget", "60"],
    "verify-phase-3": lambda tmp: ["verify", "--task", "moons2(n=120,seed=3)",
                                   "--policy", '{"type": "FIX", "k": 0.01}',
                                   "--target", "0.999", "--budget", "12"],
    "range-test": lambda tmp: ["range-test", "--task", BLOBS, "--lr-min", "0.001",
                               "--lr-max", "1.0", "--points", "4", "--budgets", "1,2"],
    "train": lambda tmp: ["train", "--task", BLOBS, "--policy", FIX_01, "--iters", "300"],
    "train-diverged": lambda tmp: ["train", "--task", "quad1d", "--optimizer", "sgd",
                                   "--policy", '{"type": "FIX", "k": 200.0}', "--iters", "40"],
}


@pytest.mark.parametrize("stable", [False, True], ids=["timed", "stable"])
@pytest.mark.parametrize("name", sorted(_COMMANDS))
def test_every_json_report_is_its_own_stdlib_reserialization(tmp_path, capsys, name, stable):
    argv = ["--db", str(tmp_path / "store.jsonl")] + ["--stable-output"] * stable
    code = main(argv + _COMMANDS[name](tmp_path))
    out, _ = capsys.readouterr()
    assert code in (0, 1) and out
    if name.startswith("verify-phase-"):
        assert json.loads(out)["phase_reached"] == int(name[-1])
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_a_report_written_under_out_is_its_own_stdlib_reserialization(tmp_path, capsys):
    prefix = str(tmp_path / "reports" / "tune")
    argv = ["--db", str(tmp_path / "store.jsonl"), "--out", prefix]
    assert main(argv + _COMMANDS["tune-grid"](tmp_path)) == 0
    assert capsys.readouterr().out == ""
    with open(prefix + ".json", encoding="utf-8") as f:
        text = f.read()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
