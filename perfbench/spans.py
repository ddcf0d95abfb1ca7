"""In-memory span recorder that wraps lrkit's public entry points.

Spans have the shape the package's own trace will emit: name, id,
parent id, op id, start and end.  They are kept in flat arrays while the
benchmark runs and written out as gzip-compressed JSON lines when it
ends.  Wrappers are installed by rebinding module attributes where each
entry point is bound, so the program itself is not modified; an entry
point that no longer exists is listed as absent instead of failing the
run.

Self time is a span's duration minus the time its direct children cover.
Calls are single-threaded (one client, default ``--workers``), so
children nest strictly inside their parent.
"""
from __future__ import annotations

import dataclasses
import gzip
import importlib
import json
import os
from array import array
from time import perf_counter

import numpy as np

# Layer spans: (span name, module, attribute).  The same function is
# wrapped in every module that binds it, because each binding is looked
# up separately at call time.
FUNCTION_SPANS = [
    ("cli.main", "lrkit.cli", "main"),
    ("tasks.load", "lrkit.cli", "load_task"),
    ("optim.step", "lrkit.training", "apply_step"),
    ("schedules.eval_lr", "lrkit.schedules", "eval_lr"),
    ("schedules.eval_lr", "lrkit.tuning", "eval_lr"),
    ("schedules.validate", "lrkit.training", "validate_policy"),
    ("schedules.validate", "lrkit.tuning", "validate_policy"),
    ("schedules.series", "lrkit.cli", "schedule_series"),
    ("schedules.series", "lrkit.cli", "series_to_csv"),
    ("schedules.doc", "lrkit.schedules", "policy_to_doc"),
    ("schedules.doc", "lrkit.cli", "policy_to_doc"),
    ("schedules.doc", "lrkit.cli", "policy_from_doc"),
    ("schedules.doc", "lrkit.cli", "parse_policy"),
    ("schedules.doc", "lrkit.training", "policy_to_doc"),
    ("schedules.doc", "lrkit.training", "policy_from_doc"),
    ("schedules.doc", "lrkit.tuning", "serialize_policy"),
    ("schedules.doc", "lrkit.verify", "serialize_policy"),
    ("training.train", "lrkit.cli", "train"),
    ("training.train", "lrkit.tuning", "train"),
    ("training.train", "lrkit.verify", "train"),
    ("training.record_doc", "lrkit.training", "record_to_doc"),
    ("training.record_doc", "lrkit.cli", "record_to_doc"),
    ("training.record_doc", "lrkit.policydb", "record_to_doc"),
    ("training.record_doc", "lrkit.policydb", "record_from_doc"),
    ("tuning.range_test", "lrkit.cli", "lr_range_test"),
    ("tuning.range_test", "lrkit.verify", "lr_range_test"),
    ("tuning.search", "lrkit.cli", "grid_search"),
    ("tuning.search", "lrkit.cli", "random_search"),
    ("tuning.search", "lrkit.tuning", "grid_search"),
    ("tuning.search", "lrkit.verify", "grid_search"),
    ("tuning.rank", "lrkit.cli", "mean_peak_by_policy"),
    ("tuning.rank", "lrkit.verify", "mean_peak_by_policy"),
    ("tuning.rank", "lrkit.policydb", "rank_policies"),
    ("tuning.check_ordering", "lrkit.tuning", "check_policy_ordering"),
    ("verify.verify_policy", "lrkit.cli", "verify_policy"),
    ("verify.estimate", "lrkit.cli", "optimal_lr_trace"),
]

# Method spans: (span name, module, class, method).
METHOD_SPANS = [
    ("tuning.controller", "lrkit.tuning", "PolicyLadderController", "lr_for_step"),
    ("tuning.controller", "lrkit.tuning", "PolicyLadderController", "observe_train"),
    ("tuning.controller", "lrkit.tuning", "PolicyLadderController", "observe_val"),
    ("tuning.controller", "lrkit.tuning", "PolicyLadderController", "realized_policy"),
    ("policydb.open", "lrkit.policydb", "PolicyDb", "__init__"),
    ("policydb.put", "lrkit.policydb", "PolicyDb", "put"),
    ("policydb.query", "lrkit.policydb", "PolicyDb", "query"),
    ("policydb.query", "lrkit.policydb", "PolicyDb", "query_partial"),
    ("policydb.query", "lrkit.policydb", "PolicyDb", "top_n"),
]

# Spans not recorded inside another: ``schedule_series`` evaluates every
# iteration through ``eval_lr``, and a span per value would swamp the
# trace; their time stays in the ``schedules.series`` span.
SKIP_INSIDE = {"schedules.eval_lr": ("schedules.series",)}

# Task callables, wrapped per loaded task with dataclasses.replace.
TASK_SPANS = [("tasks.loss_and_grad", "loss_and_grad"), ("tasks.eval", "eval_loss_top1")]

# Every per-layer metric the benchmark reports, with its unit.
LAYER_METRICS = {
    "tasks.loss_and_grad.calls": "count",
    "tasks.loss_and_grad.self_s": "s",
    "tasks.loss_and_grad.us_per_call": "us",
    "tasks.eval.calls": "count",
    "tasks.eval.self_s": "s",
    "tasks.load.self_s": "s",
    "optim.step.calls": "count",
    "optim.step.self_s": "s",
    "optim.step.us_per_call": "us",
    "schedules.eval_lr.calls": "count",
    "schedules.eval_lr.self_s": "s",
    "schedules.validate.self_s": "s",
    "schedules.series.self_s": "s",
    "schedules.doc.self_s": "s",
    "training.train.calls": "count",
    "training.train.self_s": "s",
    "training.diverged_ratio": "ratio",
    "training.record_doc.self_s": "s",
    "tuning.range_test.self_s": "s",
    "tuning.search.self_s": "s",
    "tuning.rank.self_s": "s",
    "tuning.controller.calls": "count",
    "tuning.controller.self_s": "s",
    "tuning.ladder.switches": "count",
    "tuning.check_ordering.self_s": "s",
    "verify.verify_policy.self_s": "s",
    "verify.trials": "count",
    "verify.phase_reached.1": "count",
    "verify.phase_reached.2": "count",
    "verify.phase_reached.3": "count",
    "verify.estimate.self_s": "s",
    "policydb.open.calls": "count",
    "policydb.open.self_s": "s",
    "policydb.open.ms_per_record": "ms",
    "policydb.put.calls": "count",
    "policydb.put.self_s": "s",
    "policydb.put.bytes": "bytes",
    "policydb.query.self_s": "s",
    "policydb.file_bytes": "bytes",
    "policydb.reopen_mismatches": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
}


class Tracer:
    """Span recorder; records only while ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.op = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self.t0 = perf_counter()

    # -- recording ------------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.add(name, value)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a ``name`` span per call; ``after(result, args)`` runs on return."""
        nid = self._nid(name)
        skip = {self._nid(outer) for outer in SKIP_INSIDE.get(name, ())}
        stack, start, end, name_id = self._stack, self.start, self.end, self.name_id

        def traced(*args, **kwargs):
            if not self.enabled or (skip and stack and name_id[stack[-1]] in skip):
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def in_span(self, name: str) -> bool:
        nid = self._name_ids.get(name)
        return nid is not None and any(self.name_id[i] == nid for i in self._stack)

    # -- installation ---------------------------------------------------------

    def _rebind(self, owner, attr: str, name: str, after=None, replace=None) -> None:
        """Wrap ``owner.attr`` (or ``replace``, standing in for it) in a ``name`` span."""
        if not hasattr(owner, attr):
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, self.wrap(name, replace or getattr(owner, attr), after))

    def install(self) -> None:
        """Wrap every entry point listed above; missing ones become ``absent``."""
        afters = {"training.train": self._after_train,
                  "verify.verify_policy": self._after_verify}
        for name, mod, attr in FUNCTION_SPANS:
            module = importlib.import_module(mod)
            if attr == "load_task" and hasattr(module, attr):
                loader = module.load_task
                self._rebind(module, attr, name,
                             replace=lambda spec, _load=loader: self.wrap_task(_load(spec)))
            else:
                self._rebind(module, attr, name, afters.get(name))
        for name, mod, cls_name, attr in METHOD_SPANS:
            cls = getattr(importlib.import_module(mod), cls_name, None)
            if cls is None or attr not in cls.__dict__:
                self.absent.append(f"{mod}.{cls_name}.{attr}")
                continue
            if attr == "put":
                self._rebind(cls, attr, name, replace=self._sized_put(cls.put))
            else:
                after = {"realized_policy": self._after_realized,
                         "__init__": self._after_open}.get(attr)
                self._rebind(cls, attr, name, after)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def wrap_task(self, task):
        """The task with its callables wrapped, or the task itself if they moved."""
        changes = {}
        for name, field in TASK_SPANS:
            fn = getattr(task, field, None)
            if fn is None:
                if f"Task.{field}" not in self.absent:
                    self.absent.append(f"Task.{field}")
                continue
            changes[field] = self.wrap(name, fn)
        try:
            return dataclasses.replace(task, **changes)
        except (TypeError, ValueError):
            self.absent.append("Task(dataclasses.replace)")
            return task

    # -- result hooks -----------------------------------------------------------

    def _after_train(self, record, args) -> None:
        self.count("training.trials")
        if getattr(record, "diverged", False):
            self.count("training.diverged")
        if self.in_span("verify.verify_policy"):
            self.count("verify.trials")

    def _after_verify(self, verdict, args) -> None:
        self.count(f"verify.phase_reached.{getattr(verdict, 'phase_reached', '?')}")

    def _after_realized(self, policy, args) -> None:
        switches = getattr(args[0], "switches", None)
        if switches is not None:
            self.count("tuning.ladder.switches", len(switches) - 1)

    def _after_open(self, result, args) -> None:
        db = args[0]
        self.count("policydb.open.records", len(db))
        self._file_size(db)

    def _sized_put(self, put):
        def sized_put(db, *args, **kwargs):
            before = self._file_size(db)
            result = put(db, *args, **kwargs)
            self.count("policydb.put.bytes", self._file_size(db) - before)
            return result
        return sized_put

    def _file_size(self, db) -> int:
        try:
            size = os.path.getsize(db.path)
        except (OSError, AttributeError):
            return 0
        if self.enabled:
            self.counts["policydb.file_bytes"] = max(self.counts.get("policydb.file_bytes", 0), size)
        return size

    # -- aggregation ----------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) per span, in seconds."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return dur, dur - covered

    def layer_metrics(self, min_op: int = 1) -> dict[str, float]:
        """Per-layer metrics over spans of ops numbered ``min_op`` and above."""
        dur, self_s = self.self_times()
        names = np.frombuffer(self.name_id, dtype=np.int32)
        keep = np.frombuffer(self.op_id, dtype=np.int64) >= min_op
        calls: dict[str, int] = {}
        selfs: dict[str, float] = {}
        totals: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            mask = keep & (names == nid)
            calls[name] = int(mask.sum())
            selfs[name] = float(self_s[mask].sum())
            totals[name] = float(dur[mask].sum())

        c = self.counts
        out = {}
        for metric in LAYER_METRICS:
            layer, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls.get(layer, 0)
            elif stat == "self_s":
                out[metric] = selfs.get(layer, 0.0)
            elif stat == "us_per_call":
                n = calls.get(layer, 0)
                out[metric] = selfs.get(layer, 0.0) / n * 1e6 if n else 0.0
            else:
                out[metric] = c.get(metric, 0)
        trials = c.get("training.trials", 0)
        out["training.diverged_ratio"] = c.get("training.diverged", 0) / trials if trials else 0.0
        # Whole open time (record decoding included) per record loaded.
        records = c.get("policydb.open.records", 0)
        out["policydb.open.ms_per_record"] = (totals.get("policydb.open", 0.0) * 1e3 / records
                                              if records else 0.0)
        return out

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed (times in s from tracer start)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            for i in range(len(self.start)):
                parent = self.parent[i]
                f.write(json.dumps({
                    "kind": "span", "name": self.names[self.name_id[i]], "id": i,
                    "parent": parent if parent >= 0 else None, "op": self.op_id[i],
                    "start_s": round(self.start[i] - self.t0, 7),
                    "end_s": round(self.end[i] - self.t0, 7),
                }, separators=(",", ":")) + "\n")
