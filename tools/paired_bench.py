#!/usr/bin/env python3
"""Paired A/B runs of one end-to-end workload on two checkouts.

    python tools/paired_bench.py --parent DIR --workload W
        [--seed S] [--pairs N] [--out FILE]

Pair ``i`` runs ``benchmarks/e2e/run.py --workload W --seed S+i --trace
0`` for the benchmark's ``run_seconds`` once in the parent checkout
``--parent`` and once in this checkout (the tree), each in its own
directory, the parent first on even pairs and the tree first on odd
ones, so drift of the box over the study falls on both sides alike.  A
ratio of seconds moves with the box, a paired ratio much less.

For every end-to-end metric of ``BENCHMARK.json`` it prints each pair's
ratio (tree / parent), both sides' median with its quartiles, the median
ratio, and in how many pairs the tree was better.  ``--out`` writes the
runs and the summary as JSON.  Make the parent checkout with ``git
archive <sha> | tar -x -C DIR`` or ``git clone``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_metrics(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One ``run.py`` in ``tree``: its end-to-end metric values by name."""
    command = [
        sys.executable,
        "benchmarks/e2e/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=False)
    return parse_metrics(done.stdout)


def parse_metrics(stdout: str) -> dict[str, float]:
    """The metric values of a ``run.py`` output (its last line is one JSON object)."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    record = json.loads(lines[-1])
    if not record.get("correct"):
        raise ValueError(f"run.py reported failed ops: {record.get('failed')}")
    return {name: metric["value"] for name, metric in record["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive method: every quartile lies within the data."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[dict], spec: list[dict]) -> dict[str, dict]:
    """Per metric: ratios per pair, both sides' quartiles, and pairs the tree won.

    ``pairs`` holds ``{"parent": metrics, "tree": metrics}``; ``spec`` is
    ``BENCHMARK.json``'s ``end_to_end`` list (name and ``better``).
    """
    summary = {}
    for metric in spec:
        name = metric["name"]
        parent = [pair["parent"][name] for pair in pairs]
        tree = [pair["tree"][name] for pair in pairs]
        ratios = [t / p if p else float("nan") for p, t in zip(parent, tree)]
        lower = metric["better"] == "lower"
        summary[name] = {
            "ratios": ratios,
            "parent": quartiles(parent),
            "tree": quartiles(tree),
            "median_ratio": statistics.median(ratios),
            "tree_better": sum((t < p) if lower else (t > p) for p, t in zip(parent, tree)),
            "pairs": len(pairs),
        }
    return summary


def render(workload: str, summary: dict[str, dict]) -> str:
    lines = [f"{workload}: {next(iter(summary.values()))['pairs']} pairs (tree / parent)"]
    for name, row in summary.items():
        pq1, pmed, pq3 = row["parent"]
        tq1, tmed, tq3 = row["tree"]
        ratios = " ".join(f"{r:.3f}" for r in row["ratios"])
        lines.append(
            f"  {name}: parent {pmed:.4g} [{pq1:.4g}, {pq3:.4g}]  "
            f"tree {tmed:.4g} [{tq1:.4g}, {tq3:.4g}]  "
            f"ratio x{row['median_ratio']:.3f}  better {row['tree_better']}/{row['pairs']}"
        )
        lines.append(f"    ratios {ratios}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "tree") if i % 2 == 0 else ("tree", "parent")
        pair = {"seed": seed}
        for side in order:
            root = args.parent if side == "parent" else REPO
            pair[side] = run_metrics(root, args.workload, seed, spec["run_seconds"])
        pairs.append(pair)
        print(f"pair {i} (seed {seed}) done", file=sys.stderr)
    summary = summarize(pairs, spec["end_to_end"])
    print(render(args.workload, summary))
    if args.out:
        args.out.write_text(json.dumps({"pairs": pairs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
