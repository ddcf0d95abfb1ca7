"""The four benchmark workloads: sweep, ladder, store and tabulate.

Each workload drives lrkit through ``lrkit.cli.main(argv)`` and the
library API, in one process, as a single client in a closed loop: the
next operation starts when the previous one has returned.  A workload has

* ``setup()``: builds its inputs from the workload seed (trial seeds,
  policy order, store contents); timed as ``setup_s``, ``setup_repeats``
  times before the first cycle and ``setups_per_cycle`` times after each,
  each time building the same inputs;
* ``cycle(log)``: one fixed round of operations, each timed through
  ``log.run`` and checked right after, outside its timing;
* ``finish(log)``: clean-up after the last cycle.

The program only ever sees the generated inputs.  ``size="tiny"``
shrinks every input for the benchmark's own tests; ``tamper=True``
corrupts one output before it is checked, so the check must fail.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import os
import shutil
import traceback
from collections import Counter, defaultdict
from statistics import median

import numpy as np

from speed import Timed

MOONS = "moons2(n=3000,noise=0.3,seed=7,batch=4)"

# Input sizes.  "full" is the benchmark; "tiny" runs in about a second
# per workload for the self-tests.
SIZES = {
    "full": {
        "moons": MOONS, "sweep_budget": 800,
        "blobs": "blobs2", "ladder_budget": 3000, "estimate_iters": 3000,
        "store_records": 2000, "long_budget": 800, "short_budget": 300,
        "eval_iters": 70_000,
    },
    "tiny": {
        "moons": "moons2(n=200,noise=0.3,seed=7,batch=4)", "sweep_budget": 40,
        "blobs": "blobs2(n=200)", "ladder_budget": 200, "estimate_iters": 60,
        "store_records": 40, "long_budget": 600, "short_budget": 40,
        "eval_iters": 3000,
    },
}


class Op:
    """One timed operation; ``fail`` marks it failed once, whatever the number of reasons.

    ``scaled`` is ``seconds`` at the reference speed (see ``speed.py``).
    """

    __slots__ = ("kind", "arg", "seconds", "scaled", "timed", "failed", "reasons")

    def __init__(self, kind: str, arg, seconds: float, scaled: float, timed: bool):
        self.kind, self.arg, self.seconds, self.scaled = kind, arg, seconds, scaled
        self.timed = timed
        self.failed = False
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed = True
        self.reasons.append(reason)

    def check(self, ok: bool, reason: str) -> bool:
        if not ok:
            self.fail(reason)
        return ok


class OpLog:
    """Timed operations of one measurement window."""

    def __init__(self, tracer=None):
        self.ops: list[Op] = []
        self.work = 0.0
        self.cycles = 0
        self.tracer = tracer

    @property
    def timed_s(self) -> float:
        return sum(op.seconds for op in self.ops if op.timed)

    def run(self, kind: str, arg, work: float, fn, *args, timed: bool = True):
        """Time ``fn(*args)`` as one operation; returns (op, result or None if it raised).

        ``timed=False`` marks an operation of the final checks: it counts
        as attempted but not towards the measured time and work.
        """
        traced = self.tracer is not None and timed
        if traced:
            self.tracer.op += 1
            self.tracer.enabled = True
        error = None
        with Timed() as timer:
            try:
                result = fn(*args)
            except Exception as exc:  # an operation that raises is a failed op, not a crash
                result, error = None, exc
        if traced:
            self.tracer.enabled = False
        op = Op(kind, arg, timer.seconds, timer.scaled, timed)
        if error is not None:
            op.fail(f"raised {type(error).__name__}: {error}")
            traceback.print_exception(error)
        self.ops.append(op)
        if timed:
            self.work += work
        return op, result

    def groups(self, scaled: bool) -> dict:
        """Latencies in seconds per (kind, argument) of the timed operations."""
        out = defaultdict(list)
        for op in self.ops:
            if op.timed:
                out[(op.kind, op.arg)].append(op.scaled if scaled else op.seconds)
        return out

    def latency_ms(self, kind: str, scaled: bool = False) -> tuple[float, int]:
        """Mean over the arguments of ``kind`` of their median latency; (ms, samples)."""
        groups = [v for (k, _), v in self.groups(scaled).items() if k == kind]
        if not groups:
            return float("nan"), 0
        return 1e3 * sum(median(v) for v in groups) / len(groups), sum(map(len, groups))

    def cycle_s(self) -> float:
        """A cycle's time at the reference speed, from the median of each of its operations."""
        return sum(median(v) * len(v) for v in self.groups(scaled=True).values()) / self.cycles

    def pooled_ms(self, kind: str, q: float) -> tuple[float, int]:
        """Quantile ``q`` of every latency of ``kind`` pooled; (ms, sample count)."""
        values = [op.seconds for op in self.ops if op.kind == kind]
        if not values:
            return float("nan"), 0
        return 1e3 * float(np.quantile(values, q)), len(values)

    def failures(self) -> Counter:
        return Counter(r.split(":")[0] for op in self.ops for r in op.reasons)


class Context:
    """What every workload needs: paths, seed, sizes and the CLI runner."""

    def __init__(self, root: str, workdir: str, seed: int, size: str, tamper: bool):
        self.root, self.workdir, self.seed = root, workdir, seed
        self.size = SIZES[size]
        self.tamper = tamper
        self.tracer = None
        self.reset_rng()

    def reset_rng(self) -> None:
        """Restart the input generator, so every set-up builds the same inputs."""
        self.rng = np.random.default_rng(self.seed)

    def trial_seeds(self, n: int) -> list[int]:
        return [int(s) for s in self.rng.choice(10_000, size=n, replace=False)]

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """Run ``lrkit.cli.main(argv)`` in process; returns (exit code, stdout)."""
        import lrkit.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lrkit.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        text = out.getvalue()
        if self.tracer is not None:
            self.tracer.count("cli.output_bytes", len(text.encode()))
        return code, text

    def load_test_module(self, name: str):
        """Import ``tests/<name>.py`` of the checkout without touching ``sys.path``."""
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", os.path.join(self.root, "tests", f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _tampered(text: str, where: int) -> str:
    """``text`` with the character at ``where`` changed."""
    c = "0" if text[where] != "0" else "1"
    return text[:where] + c + text[where + 1:]


# ---------------------------------------------------------------------------

class Sweep:
    """Repeated ``tune --strategy grid`` on the pinned moons config, fresh store each time."""

    name = "sweep"
    headline = "tune"
    setup_repeats = 5
    setups_per_cycle = 5
    min_cycles = 2  # the byte-identity check needs a repeat

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.reference = None

    def setup(self) -> None:
        from lrkit import load_task

        ctx, size = self.ctx, self.ctx.size
        task = load_task(size["moons"])
        seeds = ctx.trial_seeds(2)
        self.db = ctx.path("sweep.jsonl")
        self.argv = ["--stable-output", "--seed", str(seeds[0]), "--db", self.db, "tune",
                     "--task", size["moons"], "--strategy", "grid",
                     "--budget", str(size["sweep_budget"]), "--optimizer", "momentum",
                     "--seeds", ",".join(map(str, seeds))]
        # 6 one-epoch range-test probes, then 9 candidates x 2 seeds.
        self.n_trials = 9 * len(seeds)
        self.iters = 6 * task.steps_per_epoch + self.n_trials * size["sweep_budget"]

    def cycle(self, log: OpLog) -> None:
        from lrkit import PolicyDb

        _remove(self.db)
        op, result = log.run("tune", 0, self.iters, self.ctx.cli, self.argv)
        if result is None:
            return
        code, report = result
        op.check(code == 0, f"exit {code}")
        if self.reference is None:
            self.reference = report
        elif self.ctx.tamper:
            report = _tampered(report, len(report) // 2)
        op.check(report == self.reference, "report bytes differ across repeats")
        try:
            doc = json.loads(report)
        except json.JSONDecodeError:
            op.fail("report is not JSON")
            return
        op.check(bool(doc.get("ranking")) and "recommended" in doc, "no ranking or recommendation")
        op.check(len(doc.get("records", ())) == self.n_trials, "report record count")
        try:
            stored = len(PolicyDb(self.db))
        except ValueError as exc:  # lrkit's errors derive from ValueError
            stored = f"unreadable ({exc})"
        op.check(stored == self.n_trials, f"stored record count {stored}")

    def finish(self, log: OpLog) -> None:
        _remove(self.db)


class Ladder:
    """Repeated plateau-ladder ``tune`` on blobs2 (adam), interleaved with ``lr-estimate``."""

    name = "ladder"
    headline = "tune"
    setup_repeats = 5
    setups_per_cycle = 3
    min_cycles = 1
    LADDER = [{"type": "FIX", "k": 0.05}, {"type": "FIX", "k": 0.01}, {"type": "FIX", "k": 0.002}]
    ESTIMATE_POLICY = {"type": "NSTEP", "k": 1.0, "gamma": 0.25, "boundaries": [70, 110]}

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.tampered = False

    def setup(self) -> None:
        from lrkit import load_task

        ctx, size = self.ctx, self.ctx.size
        load_task(size["blobs"])
        load_task("landscape2d")
        seeds = ctx.trial_seeds(2)
        self.db = ctx.path("ladder.jsonl")
        ladder_file = ctx.path("ladder.json")
        with open(ladder_file, "w", encoding="utf-8") as f:
            json.dump(self.LADDER, f)
        self.budget = size["ladder_budget"]
        self.n_seeds = len(seeds)
        self.tune_argv = ["--stable-output", "--seed", str(seeds[0]), "--db", self.db, "tune",
                          "--task", size["blobs"], "--strategy", "plateau",
                          "--candidates", ladder_file, "--start-index", "1",
                          "--budget", str(self.budget), "--optimizer", "adam",
                          "--seeds", ",".join(map(str, seeds))]
        self.est_iters = size["estimate_iters"]
        self.est_argv = ["--seed", str(seeds[0]), "lr-estimate", "--task", "landscape2d",
                         "--policy", json.dumps(self.ESTIMATE_POLICY),
                         "--iters", str(self.est_iters), "--stride", "1", "--optimizer", "sgd"]

    def cycle(self, log: OpLog) -> None:
        _remove(self.db)
        op, result = log.run("tune", 0, self.n_seeds * self.budget, self.ctx.cli, self.tune_argv)
        if result is not None:
            self._check_tune(op, *result)
        op, result = log.run("lr-estimate", 0, self.est_iters, self.ctx.cli, self.est_argv)
        if result is not None:
            self._check_estimate(op, *result)

    def _check_tune(self, op: Op, code: int, report: str) -> None:
        from lrkit import policy_from_doc, schedule_series

        op.check(code == 0, f"exit {code}")
        try:
            records = json.loads(report)["records"]
        except (json.JSONDecodeError, KeyError):
            op.fail("report is not JSON with records")
            return
        op.check(len(records) == self.n_seeds, "report record count")
        for rec in records:
            try:
                policy = policy_from_doc(rec["policy"])
                realized = dict(schedule_series(policy, rec["budget_iters"]).points)
                same = all(realized.get(t) == lr for t, lr in rec["lr_trace"])
            except (KeyError, TypeError, ValueError):
                same = False
            op.check(same, "lr trace differs from its realized composite")

    def _check_estimate(self, op: Op, code: int, csv: str) -> None:
        op.check(code == 0, f"exit {code}")
        lines = csv.splitlines()
        if self.ctx.tamper and not self.tampered and len(lines) > 1:
            self.tampered = True
            t, applied, _, _ = lines[1].split(",")
            lines[1] = f"{t},{applied},nan,0"
        op.check(lines[:1] == ["t,applied_lr,lr_opt,singular"], "csv header")
        rows = lines[1:]
        # Snapshots at 0..iters give iters - 1 consecutive triples.
        op.check(len(rows) == self.est_iters - 1, "csv row count")
        for row in rows:
            if not _estimate_row_ok(row):
                op.fail(f"bad estimate row {row!r}")
                break

    def finish(self, log: OpLog) -> None:
        _remove(self.db)


def _estimate_row_ok(row: str) -> bool:
    parts = row.split(",")
    if len(parts) != 4 or parts[3] not in ("0", "1"):
        return False
    try:
        int(parts[0])
        if not math.isfinite(float(parts[1])):
            return False
        if parts[3] == "1":
            return parts[2] == ""
        return math.isfinite(float(parts[2]))
    except ValueError:
        return False


class Store:
    """Puts on one held handle beside ``db top``, ``verify`` and a reopen, over 2000 records."""

    name = "store"
    headline = "open"
    setup_repeats = 3
    setups_per_cycle = 0  # a set-up builds a new store, so none between cycles
    min_cycles = 1
    VERIFY_POLICY = {"type": "FIX", "k": 0.1}
    VERIFY_TARGET = 0.8
    TOP_N = 3
    PUT_ROUNDS = 3  # puts of each pool record per cycle, so puts far outnumber reads

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.db = None
        self.generation = 0
        self.tampered = False
        self.tampered_reopen = False
        self.reopen_checked = 0
        self.reopen_mismatches = 0

    def _pool(self):
        """(key, record) pairs: moons trials longer than SERIES_CAP, short blobs trials."""
        from lrkit import Cyclic, DbKey, Exp, Fix, load_task, train

        size = self.ctx.size
        moons, blobs = load_task(size["moons"]), load_task(size["blobs"])
        long_b, short_b = size["long_budget"], size["short_budget"]
        seeds = self.ctx.trial_seeds(10)
        plan = [
            (moons, "momentum", Fix(0.05), long_b),
            (moons, "momentum", Fix(0.2), long_b),
            (moons, "momentum", Cyclic("COS", 0.01, 0.4, long_b // 4), long_b),
            (moons, "momentum", Exp(0.4, 0.25 ** (1.0 / long_b)), long_b),
            (blobs, "sgd", Fix(0.1), short_b),
            (blobs, "sgd", Fix(0.5), short_b),
            (blobs, "momentum", Fix(0.01), short_b),
            (blobs, "momentum", Fix(0.05), short_b),
            (blobs, "adam", Fix(0.01), short_b),
            (blobs, "adam", Fix(0.003), short_b),
        ]
        return [(DbKey(task.task_id, task.model_id, opt),
                 train(task, policy, budget_iters=budget, seed=seed, optimizer=opt))
                for (task, opt, policy, budget), seed in zip(plan, seeds)]

    def setup(self) -> None:
        from lrkit import PolicyDb

        ctx, size = self.ctx, self.ctx.size
        self.db = None
        self.generation += 1
        self.path = ctx.path(f"store{self.generation}.jsonl")
        _remove(ctx.path(f"store{self.generation - 1}.jsonl"))
        self.pool = self._pool()
        self.order = [int(i) for i in ctx.rng.permutation(len(self.pool))]
        db = PolicyDb(self.path)
        n = size["store_records"]
        for i in range(n):
            key, rec = self.pool[self.order[i % len(self.pool)]]
            db.put(key, rec)
        self.db = db
        self.expected_records = n
        self.puts: list[tuple[Op, int]] = []
        self.moons_key = self.pool[0][0]
        self.verify_argv = ["--db", self.path, "--seed", str(ctx.trial_seeds(1)[0]), "verify",
                            "--task", size["moons"], "--policy", json.dumps(self.VERIFY_POLICY),
                            "--target", str(self.VERIFY_TARGET),
                            "--budget", str(size["long_budget"]), "--optimizer", "momentum",
                            "--top", "3"]
        key = self.moons_key
        self.top_argv = ["--db", self.path, "db", "top", "--dataset", key.dataset_id,
                         "--model", key.model_id, "--optimizer", key.optimizer_id]

    def cycle(self, log: OpLog) -> None:
        from lrkit import PolicyDb

        for i in self.order * self.PUT_ROUNDS:
            key, rec = self.pool[i]
            op, store_id = log.run("put", i, 1, self.db.put, key, rec)
            if store_id is not None:
                self.puts.append((op, store_id))
                self.expected_records += 1
        argv = self.top_argv + ["--n", str(self.TOP_N)]
        op, result = log.run("db top", 0, 1, self.ctx.cli, argv)
        if result is not None:
            self._check_top(op, *result)
        op, result = log.run("verify", 0, 1, self.ctx.cli, self.verify_argv)
        self.expected_records += 1
        if result is not None:
            self._check_verify(op, *result)
        # The store has one writer at a time (policydb's module docstring):
        # verify appended through its own handle, so the held one is replaced.
        live = self._live_reads()
        self.db = None
        op, fresh = log.run("open", 0, 1, PolicyDb, self.path)
        if fresh is not None:
            self._check_reopen(op, fresh, live)
            self.db = fresh
        self.puts = []

    def _live_reads(self) -> dict:
        """{id: (key, inserted_at, stable document)} of this cycle's puts, via the held handle."""
        from lrkit import record_to_doc

        if self.db is None:  # the previous open failed
            return {}
        ids = {store_id for _, store_id in self.puts}
        return {r.id: (r.key, r.inserted_at, record_to_doc(r.record, stable=True))
                for r in self.db.query_partial() if r.id in ids}

    def _check_verify(self, op: Op, code: int, out: str) -> None:
        op.check(code == 0, f"exit {code}")
        try:
            verdict = json.loads(out)
        except json.JSONDecodeError:
            op.fail("verdict is not JSON")
            return
        op.check(verdict.get("phase_reached") == 1 and verdict.get("verified") is True,
                 f"verify phase {verdict.get('phase_reached')} verified={verdict.get('verified')}")
        # The consulted policies were stored under verify's optimizer, so
        # only the candidate is trained.
        op.check(len(verdict.get("evidence", ())) == 1, "verify trained more than the candidate")

    def _check_top(self, op: Op, code: int, out: str) -> None:
        code_next, out_next = self.ctx.cli(self.top_argv + ["--n", str(self.TOP_N + 1)])
        if self.ctx.tamper and not self.tampered:
            self.tampered = True
            out = _tampered(out, 0)
        rows, rows_next = out.splitlines(), out_next.splitlines()
        op.check(code == 0 and code_next == 0, f"exit {code}/{code_next}")
        op.check(len(rows) == self.TOP_N and rows_next[:self.TOP_N] == rows,
                 f"top {self.TOP_N} is not a prefix of top {self.TOP_N + 1}")

    def _check_reopen(self, op: Op, fresh, live: dict) -> None:
        """Compare every put of the cycle as the held handle and a fresh open read it.

        A failed check fails the operation: the record count, unique ids,
        and the store's documented promise that a reopened record keeps
        its fields exactly and its series and lr trace as a thinned subset
        of what was put.  Full equality of the two reads (ROADMAP item 4)
        does not hold yet for traces longer than ``SERIES_CAP``; each put
        where it fails is counted in ``reopen_mismatches``.
        """
        from lrkit import record_to_doc

        op.check(len(fresh) == self.expected_records,
                 f"record count {len(fresh)} != puts made {self.expected_records}")
        rows = fresh.query_partial()
        id_counts = Counter(r.id for r in rows)
        op.check(len(id_counts) == len(rows), "duplicate ids after a reopen")
        reread = {r.id: r for r in rows}
        for put_op, store_id in self.puts:
            put_op.check(id_counts[store_id] == 1, f"duplicate id: {store_id}")
            again = reread.get(store_id)
            if store_id not in live or again is None:
                put_op.fail(f"id {store_id} missing from a read")
                continue
            key, inserted_at, doc = live[store_id]
            stored = record_to_doc(again.record, stable=True)
            if self.ctx.tamper and not self.tampered_reopen:
                self.tampered_reopen = True
                stored["lr_trace"][-1][1] += 1.0
            put_op.check(again.key == key and again.inserted_at == inserted_at
                         and _kept_on_reopen(doc, stored),
                         "reopen lost data: fields differ or a series is not a thinned subset")
            self.reopen_checked += 1
            if stored != doc:
                self.reopen_mismatches += 1
                if self.ctx.tracer is not None:
                    self.ctx.tracer.add("policydb.reopen_mismatches", 1)

    def finish(self, log: OpLog) -> None:
        self.db = None
        self.puts = []
        _remove(self.path)


def _kept_on_reopen(live: dict, stored: dict) -> bool:
    """Every field equal, except series and lr trace, which may be thinned.

    A thinned list is an ordered subset of the live one that keeps its
    last point.
    """
    thinned = ("series", "lr_trace")
    if {k: v for k, v in live.items() if k not in thinned} != \
            {k: v for k, v in stored.items() if k not in thinned}:
        return False
    for name in thinned:
        full, kept = live[name], stored[name]
        if kept == full:
            continue
        if not kept or kept[-1] != full[-1]:
            return False
        rest = iter(full)
        if not all(any(point == p for p in rest) for point in kept):
            return False
    return True


class Tabulate:
    """``lrkit eval --iters 70000`` over the reference grids and one COMPOSITE, CSV to files."""

    name = "tabulate"
    headline = "eval"
    setup_repeats = 5
    setups_per_cycle = 10
    min_cycles = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.tampered = False

    def setup(self) -> None:
        ctx = self.ctx
        refs = ctx.load_test_module("reference_policies")
        oracle = ctx.load_test_module("sched_oracle")
        self.rel_err, self.tol = oracle.rel_err, oracle.REL_TOL
        iters = self.iters = ctx.size["eval_iters"]
        docs = [row["doc"] for row in refs.GRID_70K + refs.GRID_EXTRA]
        cut1, cut2 = iters // 7, iters * 4 // 7
        segments = [(0, cut1, docs[9]), (cut1, cut2, docs[5]), (cut2, iters, docs[8])]
        docs.append({"type": "COMPOSITE", "segments": [
            {"start": a, "end": b, "policy": d} for a, b, d in segments]})
        self.policies = []
        for i, doc in enumerate(docs):
            if doc["type"] == "COMPOSITE":
                probes = sorted({a + t for a, b, d in segments
                                 for t in refs.probe_iterations(d, b - a) + [0]}
                                | {a - 1 for a, _, _ in segments[1:]})
            else:
                probes = refs.probe_iterations(doc, iters)
            expected = {t: oracle.ref_lr(doc, t, iters) for t in probes}
            prefix = ctx.path("tab", f"p{i}")
            argv = ["--out", prefix, "eval", "--policy", json.dumps(doc), "--iters", str(iters)]
            self.policies.append((i, argv, prefix + ".csv", expected))
        self.order = [int(i) for i in ctx.rng.permutation(len(self.policies))]

    def cycle(self, log: OpLog) -> None:
        for j in self.order:
            i, argv, csv_path, expected = self.policies[j]
            _remove(csv_path)
            op, result = log.run("eval", i, self.iters, self.ctx.cli, argv)
            if result is not None:
                self._check(op, result[0], csv_path, expected)

    def _check(self, op: Op, code: int, csv_path: str, expected: dict) -> None:
        op.check(code == 0, f"exit {code}")
        try:
            with open(csv_path, encoding="utf-8") as f:
                text = f.read()
        except OSError:
            op.fail("csv file missing")
            return
        if self.ctx.tracer is not None:
            self.ctx.tracer.add("cli.output_bytes", len(text))
        lines = text.splitlines()
        t_probe = min(expected)
        if self.ctx.tamper and not self.tampered:
            self.tampered = True
            lines[1 + t_probe] = _tampered(lines[1 + t_probe], len(lines[1 + t_probe]) - 2)
        op.check(lines[:1] == ["t,lr"] and len(lines) == self.iters + 1, "csv row count")
        for t, ref in expected.items():
            if t + 1 >= len(lines):
                continue
            t_text, _, lr_text = lines[t + 1].partition(",")
            try:
                ok = t_text == str(t) and self.rel_err(float(lr_text), ref) <= self.tol
            except ValueError:
                ok = False
            op.check(ok, f"row t={t} {lr_text} differs from the oracle")

    def finish(self, log: OpLog) -> None:
        shutil.rmtree(self.ctx.path("tab"), ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sweep, Ladder, Store, Tabulate)}
