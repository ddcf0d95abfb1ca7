"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error (invalid policy, diverged
or unverified results, store problems), 2 on a usage error.  Every run
echoes its resolved configuration to stderr; artifacts (JSON/CSV) go to
files under the ``--out`` prefix, or to stdout when ``--out`` is absent.
``--stable-output`` strips wall-clock fields so outputs are
byte-reproducible for a fixed seed.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from .errors import LrKitError, PolicyFormatError, check_count, check_items
from .optim import OPTIMIZER_KINDS
from .policydb import DbKey, PolicyDb
from .schedules import (parse_policy, policy_from_doc, policy_to_doc, schedule_series,
                        serialize_policy, series_to_csv)
from .tasks import load_task
from .training import record_to_csv, record_to_doc, train
from .tuning import (RANK_METRICS, PlateauConfig, grid_search, lr_range_test,
                     mean_peak_by_policy, plateau_search, probe_lr_range, random_search,
                     range_result_to_doc, standard_candidates)
from .verify import optimal_lr_trace, verdict_to_doc, verify_policy

__all__ = ["build_parser", "main", "entrypoint"]


def _formatter(prog: str) -> argparse.HelpFormatter:
    # Fixed width keeps help text independent of the terminal.
    return argparse.HelpFormatter(prog, width=96)


def _g(x: float) -> str:
    return repr(float(x))


# Options several subcommands take, each declared once and added where each takes it.

def _policy_option(p: argparse.ArgumentParser, what: str = "policy document") -> None:
    p.add_argument("--policy", required=True, metavar="JSON|FILE",
                   help=f"{what}, inline JSON or a file path")


def _seeds_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seeds", metavar="S1,S2,...", help="trial seeds (default: the global --seed)")


def _optimizer_options(p: argparse.ArgumentParser, default="momentum", cadence=True) -> None:
    p.add_argument("--optimizer", default=default, choices=OPTIMIZER_KINDS,
                   help=f"update rule (default {default})")
    if cadence:
        p.add_argument("--eval-every", type=int, help="evaluation cadence (default budget/100)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrkit", formatter_class=_formatter,
        description="Learning-rate policy engine: evaluate, train, tune, verify, store.")
    parser.add_argument("--seed", type=int, default=0, help="base seed for trials (default 0)")
    parser.add_argument("--db", default="policies.jsonl", metavar="PATH",
                        help="policy store file (default policies.jsonl)")
    parser.add_argument("--out", default=None, metavar="PREFIX",
                        help="output path prefix; artifacts go to stdout when omitted")
    parser.add_argument("--stable-output", action="store_true",
                        help="strip wall-clock fields for byte-reproducible outputs")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("eval", formatter_class=_formatter,
                       help="evaluate a policy's schedule to CSV",
                       description="Evaluate a policy over iterations and emit t,lr CSV.")
    _policy_option(p)
    p.add_argument("--iters", type=int, required=True, help="total iterations")
    p.add_argument("--stride", type=int, default=1, help="sampling stride (default 1)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("train", formatter_class=_formatter,
                       help="train one trial of a policy on a task",
                       description="Train a task under a policy; emits the trial record.")
    p.add_argument("--task", required=True, help="task spec, e.g. blobs2(seed=7,n=2000)")
    _policy_option(p)
    p.add_argument("--iters", type=int, required=True, help="training budget in iterations")
    _optimizer_options(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("range-test", formatter_class=_formatter,
                       help="bracket the useful lr interval",
                       description="Probe a log grid of fixed rates and recommend an interval.")
    p.add_argument("--task", required=True, help="task spec")
    p.add_argument("--lr-min", type=float, default=1e-4, help="grid lower end (default 1e-4)")
    p.add_argument("--lr-max", type=float, default=1.0, help="grid upper end (default 1)")
    p.add_argument("--points", type=int, default=6, help="grid points (default 6)")
    p.add_argument("--budgets", default="1", metavar="E1,E2,...",
                   help="epoch budgets, comma-separated (default 1)")
    _optimizer_options(p)
    p.set_defaults(func=cmd_range_test)

    p = sub.add_parser("tune", formatter_class=_formatter,
                       help="search policies and rank the results",
                       description="Search candidate policies on a task, rank them, and "
                                   "store every trial in the policy store.")
    p.add_argument("--task", required=True, help="task spec")
    p.add_argument("--strategy", required=True, choices=["grid", "random", "plateau"],
                   help="search strategy")
    p.add_argument("--budget", type=int, required=True, help="per-trial iterations")
    _seeds_option(p)
    p.add_argument("--lr-min", type=float, default=None,
                   help="search range lower end (default: from a range test)")
    p.add_argument("--lr-max", type=float, default=None,
                   help="search range upper end (default: from a range test)")
    p.add_argument("--points", type=int, default=3,
                   help="fixed-rate candidates per family for grid (default 3)")
    p.add_argument("--samples", type=int, default=8, help="random-search samples (default 8)")
    p.add_argument("--candidates", default=None, metavar="FILE",
                   help="JSON array of policy documents (plateau ladder, largest first)")
    p.add_argument("--start-index", type=int, default=0,
                   help="initial ladder rung for plateau, 0-based (default 0)")
    _optimizer_options(p)
    p.add_argument("--top", type=int, default=3, help="ranking rows to report (default 3)")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("verify", formatter_class=_formatter,
                       help="three-phase verification of a policy",
                       description="Verify a candidate against a target accuracy; consult "
                                   "the store and search for a replacement if it misses.")
    p.add_argument("--task", required=True, help="task spec")
    _policy_option(p, "candidate policy")
    p.add_argument("--target", type=float, required=True, help="target top-1 accuracy in [0,1]")
    p.add_argument("--budget", type=int, required=True, help="per-trial iterations")
    _seeds_option(p)
    p.add_argument("--top", type=int, default=3, help="stored policies to consult (default 3)")
    _optimizer_options(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lr-estimate", formatter_class=_formatter,
                       help="estimate optimal lr from snapshot triples",
                       description="Train with parameter snapshots and estimate the locally "
                                   "optimal rate at each snapshot triple.")
    p.add_argument("--task", required=True, help="task spec")
    _policy_option(p)
    p.add_argument("--iters", type=int, required=True, help="training budget in iterations")
    p.add_argument("--stride", type=int, default=1, help="snapshot stride (default 1)")
    _optimizer_options(p, "sgd", cadence=False)
    p.set_defaults(func=cmd_lr_estimate)

    p = sub.add_parser("db", formatter_class=_formatter,
                       help="inspect, export, or import the policy store",
                       description="Operate on the policy store named by --db.")
    p.add_argument("action", choices=["list", "top", "export", "import"],
                   help="store operation")
    p.add_argument("--dataset", default=None, help="filter: dataset id")
    p.add_argument("--model", default=None, help="filter: model id")
    p.add_argument("--optimizer", default=None, help="filter: optimizer id")
    p.add_argument("--metric", default="peak_top1", choices=RANK_METRICS,
                   help="ranking metric for top (default peak_top1)")
    p.add_argument("--target", type=float, default=None,
                   help="target accuracy for iters_to_target")
    p.add_argument("--n", type=int, default=3, help="rows for top (default 3)")
    p.add_argument("--file", default=None, metavar="PATH", help="file for export/import")
    p.set_defaults(func=cmd_db)
    return parser


# ---------------------------------------------------------------------------
# helpers

def _echo_config(args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    print("config " + json.dumps(cfg, sort_keys=True), file=sys.stderr)


def _read_policy(text: str):
    s = text.strip()
    if s.startswith("{"):
        return parse_policy(s)
    try:
        with open(s, "r", encoding="utf-8") as f:
            return parse_policy(f.read())
    except OSError as exc:
        raise PolicyFormatError(f"cannot read policy file {s!r}: {exc}") from exc


def _read_policy_list(path: str) -> list:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise PolicyFormatError(f"cannot read candidates file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PolicyFormatError(f"candidates file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, list) or not doc:
        raise PolicyFormatError(f"candidates file {path!r} must hold a non-empty JSON array")
    return [policy_from_doc(d) for d in doc]


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise LrKitError(f"cannot parse {what} {text!r}: {exc}") from exc


def _seeds(args: argparse.Namespace) -> list[int]:
    if args.seeds is None:
        return [args.seed]
    return check_items(LrKitError, "--seeds", _parse_int_list(args.seeds, "--seeds"))


def _write_text(args: argparse.Namespace, suffix: str, text: str) -> None:
    if args.out:
        path = args.out + suffix
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as exc:
            raise LrKitError(f"cannot write {path!r}: {exc}") from exc
        print(f"wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


# Exact types: a subclass (np.float64, an IntEnum) is encoded one value at a time.
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _c_encoder(depth: int):
    """The C encoder whose items start lines at ``depth``; without a default, non-JSON raises."""
    return json.encoder.c_make_encoder(None, None, json.encoder.encode_basestring_ascii, None,
                                       ": ", ",\n" + "  " * depth, False, False, True)


def _flat(values) -> bool:
    return _SCALARS.issuperset(map(type, values))


def _indented(obj, depth: int) -> str:
    """``json.dumps(obj, indent=2)`` of ``obj`` at ``depth``.  A container of scalars, or a
    list of non-empty ones, is one C call; only the lines around it are laid out here."""
    if not isinstance(obj, (dict, list, tuple)):
        return "".join(_c_encoder(0)(obj, 0))
    opening, closing = "{}" if isinstance(obj, dict) else "[]"
    if not obj:
        return opening + closing
    end, inner, inner2 = ("\n" + "  " * d for d in (depth, depth + 1, depth + 2))
    if _flat(obj.values() if isinstance(obj, dict) else obj):
        return opening + inner + "".join(_c_encoder(depth + 1)(obj, 0))[1:-1] + end + closing
    if isinstance(obj, dict):
        return opening + inner + ("," + inner).join(
            json.encoder.encode_basestring_ascii(k) + ": " + _indented(v, depth + 1)
            for k, v in obj.items()) + end + closing
    kinds = set(map(type, obj))
    o, c = "{}" if kinds == {dict} else "[]"
    values = itertools.chain.from_iterable(map(dict.values, obj) if o == "{" else obj)
    if (o == "{" or kinds <= {list, tuple}) and all(obj) and _flat(values):
        # Encoded strings hold no raw newline, so each "},\n<pad>{" is an item boundary.
        text = "".join(_c_encoder(depth + 2)(obj, 0))[2:-2]
        text = text.replace(c + "," + inner2 + o, inner + c + "," + inner + o + inner2)
        return "[" + inner + o + inner2 + text + inner + c + end + "]"
    return "[" + inner + ("," + inner).join(_indented(v, depth + 1) for v in obj) + end + "]"


def _dumps(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2)``, mostly from the C encoder; a document off that
    path (a non-str key in a laid-out dict, a value that is not JSON) goes to the stdlib whole."""
    try:
        return _indented(doc, 0)
    except TypeError:
        return json.dumps(doc, indent=2)


def _write_json(args: argparse.Namespace, doc, suffix: str = ".json") -> None:
    _write_text(args, suffix, _dumps(doc) + "\n")


# ---------------------------------------------------------------------------
# commands

def cmd_eval(args: argparse.Namespace) -> int:
    policy = _read_policy(args.policy)
    series = schedule_series(policy, args.iters, args.stride)
    _write_text(args, ".csv", series_to_csv(series))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    task = load_task(args.task)
    policy = _read_policy(args.policy)
    record = train(task, policy, budget_iters=args.iters, seed=args.seed,
                   optimizer=args.optimizer, eval_every=args.eval_every)
    _write_json(args, record_to_doc(record, stable=args.stable_output))
    if args.out:
        _write_text(args, ".csv", record_to_csv(record))
    status = "diverged" if record.diverged else "ok"
    peak = "n/a" if record.peak_top1 is None else _g(record.peak_top1)
    print(f"train {status}: final_loss={_g(record.final_loss)} peak_top1={peak}",
          file=sys.stderr)
    return 1 if record.diverged else 0


def cmd_range_test(args: argparse.Namespace) -> int:
    task = load_task(args.task)
    budgets = _parse_int_list(args.budgets, "--budgets")
    result = lr_range_test(task, args.lr_min, args.lr_max, args.points, budgets,
                           seed=args.seed, optimizer=args.optimizer,
                           eval_every=args.eval_every)
    _write_json(args, range_result_to_doc(result))
    lines = ["lr,budget_epochs,top1,diverged"]
    for bi, epochs in enumerate(result.budgets_epochs):
        for gi, lr in enumerate(result.lr_grid):
            lines.append(f"{_g(lr)},{epochs},{_g(result.top1[bi][gi])},"
                         f"{int(result.diverged[bi][gi])}")
    if args.out:
        _write_text(args, ".csv", "\n".join(lines) + "\n")
    print(f"recommended lr range: [{_g(result.recommended[0])}, {_g(result.recommended[1])}]",
          file=sys.stderr)
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    check_count(LrKitError, "--top", args.top)
    task = load_task(args.task)
    seeds = _seeds(args)
    if args.strategy == "plateau":
        if not args.candidates:
            raise LrKitError("--strategy plateau needs --candidates FILE")
        ladder = _read_policy_list(args.candidates)
    store = PolicyDb(args.db)  # before any trial: a store it cannot read costs no training
    lr_range = None
    report: dict = {"task_id": task.task_id, "model_id": task.model_id,
                    "strategy": args.strategy, "optimizer": args.optimizer,
                    "budget_iters": args.budget, "seeds": seeds}
    if args.strategy in ("grid", "random"):
        lr_range = (args.lr_min, args.lr_max)
        if None in lr_range:  # each missing end comes from a range test
            probe = probe_lr_range(task, seed=seeds[0], optimizer=args.optimizer)
            lr_range = tuple(given if given is not None else found
                             for given, found in zip(lr_range, probe.recommended))
        report["lr_range"] = {"lr_min": lr_range[0], "lr_max": lr_range[1]}
    if args.strategy == "grid":
        candidates = standard_candidates(lr_range, args.budget, points=args.points)
        records = grid_search(task, candidates, budget_iters=args.budget, seeds=seeds,
                              optimizer=args.optimizer, eval_every=args.eval_every)
    elif args.strategy == "random":
        records = random_search(task, lr_range, args.samples, budget_iters=args.budget,
                                seeds=seeds, sample_seed=args.seed,
                                optimizer=args.optimizer, eval_every=args.eval_every)
    else:
        records = plateau_search(task, ladder, args.start_index, budget_iters=args.budget,
                                 seeds=seeds, optimizer=args.optimizer, cfg=PlateauConfig(),
                                 eval_every=args.eval_every)
    key = DbKey(dataset_id=task.task_id, model_id=task.model_id, optimizer_id=args.optimizer)
    for rec in records:
        store.put(key, rec, stable=args.stable_output)
    scored = mean_peak_by_policy(records)
    report["records"] = [record_to_doc(r, stable=args.stable_output, series_cap=128)
                         for r in records]
    report["ranking"] = [{"policy": policy_to_doc(p), "mean_peak_top1": v}
                         for p, v in scored[: args.top]]
    if scored:
        report["recommended"] = policy_to_doc(scored[0][0])
    _write_json(args, report)
    if all(r.diverged for r in records):
        print("tune: every trial diverged", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    task = load_task(args.task)
    policy = _read_policy(args.policy)
    store = PolicyDb(args.db)
    verdict = verify_policy(policy, task, args.target, budget_iters=args.budget,
                            db=store, n_top=args.top, seeds=_seeds(args),
                            optimizer=args.optimizer, eval_every=args.eval_every,
                            stable=args.stable_output)
    _write_json(args, verdict_to_doc(verdict, stable=args.stable_output))
    print(f"verify: phase={verdict.phase_reached} verified={verdict.verified} "
          f"candidate_top1={_g(verdict.candidate_top1)}", file=sys.stderr)
    return 0 if verdict.verified else 1


def cmd_lr_estimate(args: argparse.Namespace) -> int:
    task = load_task(args.task)
    policy = _read_policy(args.policy)
    estimates = optimal_lr_trace(task, policy, budget_iters=args.iters, stride=args.stride,
                                 seed=args.seed, optimizer=args.optimizer)
    lines = ["t,applied_lr,lr_opt,singular"]
    for est in estimates:
        opt = "" if est.lr_opt is None else _g(est.lr_opt)
        lines.append(f"{est.t},{_g(est.applied_lr)},{opt},{int(est.singular)}")
    _write_text(args, ".csv", "\n".join(lines) + "\n")
    return 0


def cmd_db(args: argparse.Namespace) -> int:
    # Arguments are checked before the store is read: a usage error costs no open.
    missing = [f"--{name}" for name in ("dataset", "model", "optimizer") if not getattr(args, name)]
    if args.action == "top" and missing:
        raise LrKitError(f"db top needs {', '.join(missing)}")
    if args.action in ("export", "import") and not args.file:
        raise LrKitError(f"db {args.action} needs --file PATH")
    store = PolicyDb(args.db)
    if args.action == "list":
        rows = store.query_partial(dataset_id=args.dataset, model_id=args.model,
                                   optimizer_id=args.optimizer)
        for r in rows:
            rec = r.summary
            peak = "n/a" if rec.peak_top1 is None else _g(rec.peak_top1)
            line = (f"id={r.id} dataset={r.key.dataset_id} model={r.key.model_id} "
                    f"optimizer={r.key.optimizer_id} seed={rec.seed} peak_top1={peak} "
                    f"policy={serialize_policy(rec.policy)}")
            if not args.stable_output:
                line += f" inserted_at={r.inserted_at}"
            print(line)
        print(f"{len(rows)} records", file=sys.stderr)
        return 0
    if args.action == "top":
        key = DbKey(dataset_id=args.dataset, model_id=args.model, optimizer_id=args.optimizer)
        for policy, value in store.top_n(key, args.n, metric=args.metric,
                                         target_top1=args.target):
            print(f"{'n/a' if value is None else _g(value)} {serialize_policy(policy)}")
        return 0
    if args.action == "export":
        count = store.export(args.file)
        print(f"exported {count} records to {args.file}", file=sys.stderr)
        return 0
    count = store.import_(args.file)
    print(f"imported {count} records from {args.file}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _echo_config(args)
    try:
        return args.func(args)
    except (LrKitError, MemoryError) as exc:  # MemoryError: a horizon too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
