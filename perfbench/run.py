"""lrkit benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run sets the workload up several times (``setup_s`` is the median;
cheap set-ups are repeated between cycles too), repeats the workload's
cycle until its operations have taken ``--seconds`` of measured time,
checks every output outside that time, and prints each metric with its
unit and sample count.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the first half of the measured time
runs untraced and the second half traced, and the metrics are the
per-layer ones plus the tracing overhead of each end-to-end metric.

The program is imported from ``src/`` of the checkout, and the schedule
oracle and reference grids from ``tests/``.  Outputs (result JSON, span
trace) go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REQUIRED = ("src/lrkit/__init__.py", "tests/reference_policies.py", "tests/sched_oracle.py")

# End-to-end metrics, reported by every workload: (name, unit, higher is better).
END_TO_END = [
    ("setup_s", "s", False),
    ("op_ms", "ms", False),
    ("work_per_s", "1/s", True),
    ("peak_rss_mb", "MB", False),
]


def environment() -> dict:
    """The machine and build a result was measured on."""
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):  # numpy < 1.25 has no dict mode
        pass
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": threads,
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout read from ``.git`` directly, or ``unavailable``."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_lines() -> dict:
    """Non-blank, non-comment lines per module of ``src/lrkit``."""
    pkg = os.path.join(ROOT, "src", "lrkit")
    out = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as f:
                out[name[:-3]] = sum(1 for line in f
                                     if line.strip() and not line.strip().startswith("#"))
    out["total"] = sum(out.values())
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, log, seconds: float, between=None) -> None:
    """Run whole cycles until the operations took ``seconds`` and enough cycles ran.

    ``between()``, if given, runs after each cycle, outside the measured time.
    """
    while log.cycles < workload.min_cycles or log.timed_s < seconds:
        workload.cycle(log)
        log.cycles += 1
        if between is not None:
            between()


def end_to_end(workload, log, setup_s: list[float], rss: float) -> dict:
    """{name: (value, unit, samples)} for the end-to-end metrics.

    Times are medians of wall times scaled to the reference host speed
    (``speed.py``), which moves far less between runs than raw medians
    on a host whose CPU speed changes.
    """
    op_ms, n_ops = log.latency_ms(workload.headline, scaled=True)
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "op_ms": (op_ms, "ms", n_ops),
        "work_per_s": (log.work / log.cycles / log.cycle_s(), "1/s",
                       sum(op.timed for op in log.ops)),
        "peak_rss_mb": (rss, "MB", 1),
    }


def details(workload, log) -> dict:
    """The workload's own named metrics, {name: (value, unit, samples)}."""
    out = {}
    per_s = log.work / log.timed_s
    if workload.name in ("sweep", "ladder"):
        out["tune_ms_p50"] = ("ms", log.latency_ms("tune"))
        out["iters_per_s"] = ("iter/s", (per_s, len(log.ops)))
    if workload.name == "ladder":
        out["lr_estimate_ms_p50"] = ("ms", log.latency_ms("lr-estimate"))
    if workload.name == "store":
        out["put_ms_p50"] = ("ms", log.pooled_ms("put", 0.5))
        out["put_ms_p90"] = ("ms", log.pooled_ms("put", 0.9))
        out["db_top_ms_p50"] = ("ms", log.latency_ms("db top"))
        out["verify_ms_p50"] = ("ms", log.latency_ms("verify"))
        out["open_ms_p50"] = ("ms", log.latency_ms("open"))
        checked = workload.reopen_checked
        out["reopen_mismatch_ratio"] = ("ratio", (workload.reopen_mismatches / checked
                                                  if checked else 0.0, checked))
    if workload.name == "tabulate":
        out["eval_ms_p50"] = ("ms", log.latency_ms("eval"))
        out["lr_evals_per_s"] = ("values/s", (per_s, len(log.ops)))
    failed = sum(op.failed for op in log.ops)
    out["failed_ops_ratio"] = ("ratio", (failed / len(log.ops), len(log.ops)))
    return {name: (value, unit, n) for name, (unit, (value, n)) in out.items()}


def run_workload(args) -> int:
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: the checkout lacks {', '.join(missing)}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from speed import Timed
    from workloads import WORKLOADS, Context, OpLog
    from spans import LAYER_METRICS, Tracer

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    try:
        ctx = Context(ROOT, workdir, args.seed, args.size, args.tamper)
        workload = WORKLOADS[args.workload](ctx)

        def timed_setup() -> float:
            """One set-up's time at the reference speed."""
            ctx.reset_rng()
            with Timed() as timer:
                workload.setup()
            return timer.scaled

        # A few set-ups first, the rest spread over the measured time, so that
        # their median does not hang on the host's speed in one instant.
        setup_s = [timed_setup() for _ in range(workload.setup_repeats)]
        seconds = args.seconds / 2 if args.trace else args.seconds
        log = OpLog()
        measure(workload, log, seconds, lambda: setup_s.extend(
            timed_setup() for _ in range(workload.setups_per_cycle)))
        workload.finish(log)
        rss = peak_rss_mb()
        e2e = end_to_end(workload, log, setup_s, rss)
        result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "size": args.size, "environment": environment(),
                  "source_lines": source_lines(),
                  "end_to_end": e2e, "details": details(workload, log)}
        logs = [log]

        if args.trace:
            tracer = Tracer()
            tracer.install()
            ctx.tracer = tracer
            tracer.enabled = True
            traced_setup = [timed_setup() for _ in range(max(1, workload.setup_repeats // 3))]
            tracer.enabled = False
            tracer.counts.clear()
            traced_log = OpLog(tracer)
            measure(workload, traced_log, seconds)
            workload.finish(traced_log)
            tracer.uninstall()
            traced = end_to_end(workload, traced_log, traced_setup, peak_rss_mb())
            layers = tracer.layer_metrics()
            metrics = {name: (layers[name], unit) for name, unit in LAYER_METRICS.items()}
            overhead = {}
            for name, _, higher in END_TO_END:
                base, now = e2e[name][0], traced[name][0]
                overhead[f"overhead.{name}"] = base / now if higher else now / base
            metrics.update((name, (value, "ratio")) for name, value in overhead.items())
            result.update(traced_end_to_end=traced, layers={**layers, **overhead},
                          absent=tracer.absent, spans=len(tracer.start))
            tracer.write_jsonl(os.path.join(OUT, f"trace-{tag}.jsonl.gz"))
            logs.append(traced_log)
        else:
            metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items()}

        ops = [op for lg in logs for op in lg.ops]
        failed = sum(op.failed for op in ops)
        failures = {}
        for lg in logs:
            for reason, n in lg.failures().items():
                failures[reason] = failures.get(reason, 0) + n
        result.update(attempted=len(ops), failed=failed, failures=failures,
                      samples_ms=[[op.kind, op.arg, round(op.seconds * 1e3, 4),
                                   round(op.scaled * 1e3, 4)] for op in ops])
        with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as f:
            json.dump(result, f, indent=1, default=str)

        print("env " + json.dumps(result["environment"], sort_keys=True))
        print("source_lines " + json.dumps(result["source_lines"]))
        for title, block in (("end-to-end", e2e), (args.workload, result["details"])):
            print(f"{title}:")
            for name, (value, unit, n) in block.items():
                print(f"  {name:<20} {value:>14.6g} {unit:<8} n={n}")
        if args.trace:
            print("per-layer (traced half):")
            for name, (value, unit) in metrics.items():
                print(f"  {name:<34} {value:>14.6g} {unit}")
            if tracer.absent:
                print("absent entry points: " + ", ".join(tracer.absent))
        if failures:
            print("failed checks: " + json.dumps(failures, sort_keys=True))
        print(json.dumps({
            "correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process, one after another; prints each report."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "ladder", "store", "tabulate", "all"])
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of the workload's operations")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: per-layer metrics from a traced second half")
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input size; tiny is for the benchmark's self-tests")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one output before checking it (self-tests)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
