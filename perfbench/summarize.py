"""Summarize result files in perfbench/out/ into one baseline document.

    python3 perfbench/summarize.py OUT.json

For each workload it gives, per end-to-end metric, the median, quartiles
and spread (IQR / median, quartiles as ``statistics.quantiles(n=4)``)
over the untraced runs; the medians of the named wall-clock metrics; the
failure share and its reasons; and the per-layer metrics of the traced
runs.
"""
import glob
import json
import os
import statistics
import sys

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def spread(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med if med else None,
            "runs": len(values)}


def main(path: str) -> None:
    by_workload: dict[str, list] = {}
    for name in sorted(glob.glob(os.path.join(OUT, "result-*.json"))):
        with open(name, encoding="utf-8") as f:
            res = json.load(f)
        by_workload.setdefault(res["workload"], []).append(res)
    summary = {}
    for workload, results in by_workload.items():
        plain = [r for r in results if not r["trace"]]
        traced = [r for r in results if r["trace"]]
        entry = {"seeds": [r["seed"] for r in plain]}
        if plain:
            entry["end_to_end"] = {m: spread([r["end_to_end"][m][0] for r in plain])
                                   for m in plain[0]["end_to_end"]}
            entry["details_median"] = {m: statistics.median(r["details"][m][0] for r in plain)
                                       for m in plain[0]["details"]}
            entry["attempted"] = sum(r["attempted"] for r in plain)
            entry["failed"] = sum(r["failed"] for r in plain)
            reasons: dict[str, int] = {}
            for r in plain:
                for reason, n in r["failures"].items():
                    reasons[reason] = reasons.get(reason, 0) + n
            entry["failures"] = reasons
        if traced:
            entry["traced_seeds"] = [r["seed"] for r in traced]
            entry["layers_median"] = {m: statistics.median(r["layers"][m] for r in traced)
                                      for m in traced[0]["layers"]}
            entry["absent"] = sorted({a for r in traced for a in r["absent"]})
        entry["environment"] = results[-1]["environment"]
        entry["source_lines"] = results[-1]["source_lines"]
        summary[workload] = entry
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
