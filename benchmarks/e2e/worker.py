"""One pass of one workload, in a process of its own.

``run.py`` starts this script once per (workload, pass) with a pinned
environment, so no pass inherits another's heap, hash layout or warm
caches.  Order inside the pass: imports (timed apart) → set-up (timed:
generate inputs, connect/serve, warm-up ops) → ground truth (untimed) →
the measured ops → optionally the same ops again, traced.  The result
is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _pin_to_one_cpu() -> None:
    """Keep this process, its threads and its pool workers on one CPU.

    On a shared host a thread woken on the other, idle virtual CPU waits
    for the hypervisor to schedule that CPU; ``serve_mixed`` wakes a
    thread twice per request, and its spread over ten runs was twice as
    wide unpinned (README, *Noise*).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _calibration_spin() -> float:
    """Seconds for a fixed pure-Python loop — a machine-speed probe.

    Reported so an outlier run can be explained; never applied to any
    metric (dividing by it made the spread worse, see README).
    """
    started = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    _pin_to_one_cpu()
    import_started = time.perf_counter()
    from layers import layer_metrics
    from tracing import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - import_started
    calib_s = _calibration_spin()

    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke, corrupt=args.corrupt)
    setup_started = time.perf_counter()
    workload.generate()
    workload.open()
    workload.warm_up()
    setup_s = time.perf_counter() - setup_started
    workload.prepare_checks()

    try:
        untraced = workload.measure(args.ops)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "ops": args.ops,
            "setup_s": setup_s,
            "import_s": import_s,
            "calib_s": calib_s,
            "latencies": untraced.latencies,
            "wall_s": untraced.wall_s,
            "attempted": untraced.attempted,
            "failed": untraced.failed,
            "counters": untraced.counters,
        }
        if args.trace:
            tracer = Tracer()
            traced = workload.measure_traced(args.ops, tracer)
            record["attempted"] += traced.attempted
            record["failed"] += traced.failed
            record["layers"] = layer_metrics(tracer, untraced, traced, workload.latency_by_op)
            if args.spans_out:
                tracer.dump(args.spans_out)
    finally:
        workload.close()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
