"""Compare two sets of benchmark runs, one row per (metric, workload).

    python benchmarks/e2e/run.py --out A.json     # repeat: each run appends
    python benchmarks/e2e/run.py --out B.json
    python benchmarks/e2e/compare.py A.json B.json

Prints both medians, both inter-quartile ranges, the relative difference
of B against A (positive = B is worse), the metric's bound from
``BENCHMARK.json`` and a verdict:

* ``unresolved`` — a set's own spread (inter-quartile range, or
  max − min when it has fewer than four runs, over its median) is wider
  than the bound, so the runs cannot tell the two sets apart;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``ok`` — otherwise.

Work counters must be identical in every run of both sets (same seed,
same op counts); a mismatch is reported and makes the exit code 1, as
does any ``regressed`` row.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> float:
    """Inter-quartile range over the median (max − min under four values)."""
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        width = quartiles[2] - quartiles[0]
    else:
        width = max(values) - min(values)
    return width / statistics.median(values)


def compare(runs_a: list[dict], runs_b: list[dict]) -> tuple[list[dict], list[str]]:
    rows, mismatches = [], []
    for workload in (w["name"] for w in SPEC["workloads"]):
        sets = [
            [run["workloads"][workload] for run in runs if workload in run["workloads"]]
            for runs in (runs_a, runs_b)
        ]
        if not all(sets):
            continue
        counters = [entry["counters"] for entries in sets for entry in entries]
        if any(c != counters[0] for c in counters[1:]):
            mismatches.append(workload)
        for metric in SPEC["end_to_end"]:
            a, b = ([entry["metrics"][metric["name"]] for entry in entries] for entries in sets)
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = (median_b - median_a) / median_a
            if metric["better"] == "higher":
                worse = -worse
            widest = max(spread(a), spread(b))
            if widest > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append(
                {
                    "row": f"{workload}/{metric['name']}",
                    "unit": metric["unit"],
                    "median_a": median_a,
                    "median_b": median_b,
                    "spread_a": spread(a),
                    "spread_b": spread(b),
                    "range_a": (max(a) - min(a)) / median_a,
                    "range_b": (max(b) - min(b)) / median_b,
                    "worse": worse,
                    "bound": metric["bound"],
                    "verdict": verdict,
                }
            )
    return rows, mismatches


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs_a, runs_b = (json.loads(Path(path).read_text()) for path in argv)
    rows, mismatches = compare(runs_a, runs_b)
    shas = [runs[0]["fingerprint"]["git_sha"][:12] for runs in (runs_a, runs_b)]
    print(f"A: {len(runs_a)} runs of {shas[0]}  B: {len(runs_b)} runs of {shas[1]}")
    print(
        "| workload/metric | unit | median A | median B | spread A | spread B "
        "| max−min A | max−min B | B worse by | bound | verdict |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        print(
            f"| {r['row']} | {r['unit']} | {r['median_a']:.5g} | {r['median_b']:.5g} "
            f"| {r['spread_a']:.1%} | {r['spread_b']:.1%} | {r['range_a']:.1%} "
            f"| {r['range_b']:.1%} | {r['worse']:+.1%} | {r['bound']:.0%} | {r['verdict']} |"
        )
    same = "yes" if not mismatches else f"NO ({', '.join(mismatches)})"
    print(f"work counters identical across all runs: {same}")
    return 1 if mismatches or any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
