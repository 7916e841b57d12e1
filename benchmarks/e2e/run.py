"""The repo's end-to-end benchmark: five workloads on user-visible paths.

    python benchmarks/e2e/run.py [--seed N]                 # a full run
    python benchmarks/e2e/run.py --traced                   # + per-layer pass
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

A *run* is ``P`` passes over the workload list in fixed order; every
(workload, pass) executes ``worker.py`` in a fresh subprocess under a
pinned environment and does a fixed number of ops, so each workload's
samples are spread over the whole run and every pass does identical
work.  Every op's output is checked against ground truth; a failed op
counts as failed and contributes no latency.  The process exits
non-zero if any op failed, if a pass died, or if the deterministic work
counters differ between passes.

Each metric is printed by name with its unit; the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  With ``--workload`` the metrics are the end-to-end ones
(``--trace 0``) or the per-layer ones (``--trace 1``) of that workload;
without it they are keyed ``<workload>/<metric>``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

PASSES = 5
# Measured cost of one op (one request of each client on serve_mixed) on
# the reference box.  ``--seconds`` is turned into a fixed op count per pass
# with these — a count, not a duration, so every pass and every run does
# the same work and the work counters can be compared exactly.
NOMINAL_OP_S = {
    "pipeline_conf": 0.25,
    "ti_join_conf": 0.33,
    "sampled_conf": 0.60,
    "guarantee_select": 0.60,
    "serve_mixed": 0.028,
}
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # One malloc arena: with glibc's per-thread arenas the server's peak
    # RSS depended on which of its compute threads took which request
    # (56.8–61.8 MiB over passes of identical work; 55.5–55.8 with one).
    "MALLOC_ARENA_MAX": "1",
}
SERVE_BLOCK = 20
PASS_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """A pass died or the determinism self-check failed."""


def ops_per_pass(workload: str, seconds: float, passes: int, smoke: bool) -> int:
    """Timed ops per pass (requests per client on serve_mixed)."""
    ops = 3 if smoke else max(2, round(seconds / passes / NOMINAL_OP_S[workload]))
    if workload == "serve_mixed":
        # Whole blocks of the request mix, so its composition stays exact.
        ops = SERVE_BLOCK * max(1, round(ops / SERVE_BLOCK))
    return ops


def is_timing(name: str) -> bool:
    """Whether a per-layer metric is a measurement rather than a work count.

    ``server.wire_bytes`` counts with them: every response carries the
    digits of its own ``elapsed``.
    """
    return (
        name.endswith(("_s", "_mb", "_per_s"))
        or "_s." in name
        or name in ("harness.trace_coverage", "harness.trace_overhead_share", "server.wire_bytes")
    )


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("REPRO_WORKERS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_pass(workload: str, args, ops: int, trace: bool, spans_out: Path | None) -> dict:
    command = [sys.executable, str(HERE / "worker.py")]
    command += ["--workload", workload, "--seed", str(args.seed), "--ops", str(ops)]
    command += ["--trace", str(int(trace))]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt:
        command.append("--corrupt")
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    done = subprocess.run(
        command, env=worker_env(), capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if done.returncode != 0:
        raise BenchmarkError(f"{workload}: pass exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(latencies)
    beyond = min(10, len(ordered) // 2)
    index = len(ordered) - 1 - beyond
    return 100.0 * index / max(len(ordered) - 1, 1), ordered[index]


def same_across_passes(workload: str, what: str, values: list) -> None:
    if any(value != values[0] for value in values[1:]):
        raise BenchmarkError(
            f"{workload}: {what} differs between passes of identical work: {values}"
        )


def summarize(workload: str, passes: list[dict]) -> dict:
    """End-to-end metrics of one workload from its untraced windows."""
    same_across_passes(workload, "work counters", [p["counters"] for p in passes])
    latencies = [latency for p in passes for latency in p["latencies"]]
    if not latencies:  # every op failed its check: nothing to time
        return {"metrics": None, "samples": 0, "counters": {}}
    pct, value = tail(latencies)
    return {
        "metrics": {
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "latency_p50_s": statistics.median(latencies),
            "throughput_ops_s": statistics.median(
                len(p["latencies"]) / p["wall_s"] for p in passes if p["latencies"]
            ),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        },
        "samples": len(latencies),
        "counters": passes[0]["counters"],
        "tail": {"pct": pct, "latency_s": value},
        "import_s": statistics.median(p["import_s"] for p in passes),
        "calib_s": statistics.median(p["calib_s"] for p in passes),
    }


def summarize_layers(workload: str, passes: list[dict], summary: dict) -> dict[str, float]:
    """Per-layer metrics of one workload from its traced passes."""
    layers = {}
    for name in passes[0]["layers"]:
        values = [p["layers"][name] for p in passes]
        if not is_timing(name):
            same_across_passes(workload, name, values)
        layers[name] = statistics.median(values)
    layers["harness.import_s"] = summary["import_s"]
    layers["harness.calib_p50_s"] = summary["calib_s"]
    layers["harness.latency_tail_s"] = summary["tail"]["latency_s"]
    layers["harness.latency_tail_pct"] = summary["tail"]["pct"]
    if set(layers) != set(PER_LAYER):
        raise BenchmarkError(
            f"per-layer names differ from BENCHMARK.json: "
            f"{sorted(set(layers) ^ set(PER_LAYER))}"
        )
    return layers


def fingerprint(args, passes: int, ops: dict[str, int]) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "env": PINNED_ENV | {"REPRO_WORKERS": None, "PYTHONPATH": "src"},
        "cpus_per_pass": 1,  # worker.py pins itself
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": passes,
        "ops_per_pass": ops,
        "smoke": args.smoke,
        "git_sha": sha or "unknown",
    }


def report(workload: str, summary: dict, layers: dict | None) -> None:
    print(f"{workload}  (samples={summary['samples']}, counters={summary['counters']})")
    print(f"  {workload}/ops_attempted = {summary['attempted']} count")
    print(f"  {workload}/ops_failed = {summary['failed']} count")
    if summary["metrics"] is None:
        return
    for name, value in summary["metrics"].items():
        print(f"  {workload}/{name} = {value:.6g} {END_TO_END[name]['unit']}")
    pct, value = summary["tail"]["pct"], summary["tail"]["latency_s"]
    print(f"  {workload}/harness.latency_tail_s = {value:.6g} s (p{pct:.0f})")
    for name, value in (layers or {}).items():
        print(f"  {workload}/{name} = {value:.6g} {PER_LAYER[name]['unit']}")


def as_metrics(values: dict[str, float], spec: dict, prefix: str = "") -> dict:
    return {prefix + name: {"value": values[name], "unit": spec[name]["unit"]} for name in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass")
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help="append this run's record to a JSON file")
    parser.add_argument("--out-dir", type=Path, default=HERE / "out", help="where spans go")
    args = parser.parse_args(argv)
    trace = bool(args.trace or args.traced)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else WORKLOADS
    passes = 1 if args.smoke else PASSES
    ops = {w: ops_per_pass(w, args.seconds, passes, args.smoke) for w in names}
    # One workload (the driver's way) or a smoke run: --trace 1 makes every
    # pass a traced one; a traced pass runs its ops plain and then traced
    # with replays (about twice the cost), so a third of the ops fills the
    # same time.  The full run: P plain passes, then one traced pass of
    # the same length on top of them.
    if trace and (args.workload or args.smoke):
        plain, traced = 0, passes
        traced_ops = {w: ops_per_pass(w, args.seconds / 3, passes, args.smoke) for w in names}
    else:
        plain, traced = passes, int(trace)
        traced_ops = ops
    schedule = [(w, False) for _ in range(plain) for w in names]
    schedule += [(w, True) for _ in range(traced) for w in names]
    records: dict[str, list[dict]] = {w: [] for w in names}
    traced_records: dict[str, list[dict]] = {w: [] for w in names}
    try:
        for workload, traced_pass in schedule:
            spans_out = None
            if traced_pass and not traced_records[workload]:
                args.out_dir.mkdir(parents=True, exist_ok=True)
                spans_out = args.out_dir / f"trace_{workload}.json"
            n_ops = traced_ops[workload] if traced_pass else ops[workload]
            record = run_pass(workload, args, n_ops, traced_pass, spans_out)
            (traced_records if traced_pass else records)[workload].append(record)
        result = {"fingerprint": fingerprint(args, passes, ops), "workloads": {}}
        for workload in names:
            every = records[workload] + traced_records[workload]
            summary = summarize(workload, records[workload] or traced_records[workload])
            summary["attempted"] = sum(p["attempted"] for p in every)
            summary["failed"] = sum(p["failed"] for p in every)
            layers = None
            if traced_records[workload] and summary["metrics"]:
                layers = summarize_layers(workload, traced_records[workload], summary)
            report(workload, summary, layers)
            result["workloads"][workload] = summary | {"layers": layers}
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3

    if any(s["metrics"] is None for s in result["workloads"].values()):
        print("benchmark aborted: a workload had no op pass its output check", file=sys.stderr)
        return 1
    if args.out:
        runs = json.loads(args.out.read_text()) if args.out.exists() else []
        args.out.write_text(json.dumps(runs + [result], indent=1) + "\n")

    attempted = sum(s["attempted"] for s in result["workloads"].values())
    failed = sum(s["failed"] for s in result["workloads"].values())
    if args.workload:
        summary = result["workloads"][args.workload]
        metrics = (
            as_metrics(summary["layers"], PER_LAYER)
            if trace
            else as_metrics(summary["metrics"], END_TO_END)
        )
    else:
        metrics = {}
        for workload, summary in result["workloads"].items():
            metrics |= as_metrics(summary["metrics"], END_TO_END, f"{workload}/")
            if summary["layers"]:
                metrics |= as_metrics(summary["layers"], PER_LAYER, f"{workload}/")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
