"""Turn one traced pass (spans + counters) into the per-layer metrics.

Layer = module name under ``src/repro``.  Conventions:

* ``*_s`` — seconds per traced op spent in the spans of that name: the
  median over the ops (on ``serve_mixed`` the mean per request);
* counts — mean per traced op, except the server-wide readings
  (``server.cache_*``, ``server.peak_in_flight``, ``server.rejected``,
  ``parallel.worker_rss_mb``), which describe the whole window;
* ``*_share`` — a ratio of two counts (or, for the two ``harness``
  shares, of two times).

``BENCHMARK.json`` lists the names, units and directions; ``run.py``
refuses to report if the names computed here differ from that list.
"""

from __future__ import annotations

import statistics

__all__ = ["layer_metrics", "percentile"]

SERVER_OPS = ("query", "confidence_all", "topk", "evaluate_with_guarantee", "open_session")


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0–1) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, untraced, traced, latency_by_op=None) -> dict[str, float]:
    """Per-layer metrics of one pass.

    ``untraced`` / ``traced`` are the two :class:`workloads.Measurement`
    windows of the pass (same op indices, same process);
    ``latency_by_op`` is ``serve_mixed``'s client-side latencies per
    protocol op.
    """
    n = max(traced.attempted, 1)
    count = tracer.counters

    def span_s(name: str) -> float:
        if latency_by_op is not None:  # requests carry no op id: the mean
            return tracer.total(name) / n
        per_op_s = tracer.by_op(name)
        return statistics.median(per_op_s.get(op, 0.0) for op in range(n))

    def per_op(name: str) -> float:
        return count.get(name, 0) / n

    by_op = latency_by_op or {}
    all_requests = [latency for latencies in by_op.values() for latency in latencies]
    if latency_by_op is None:
        # Op i ran plain, then traced, then replayed, in one process: pair
        # the three per op and take medians, so that one slow op (or a
        # machine that changed speed between the windows) moves nothing.
        replayed = tracer.children_by_op("replay")
        pairs = [
            (plain, traced_op, replayed[op])
            for op, (plain, traced_op) in enumerate(zip(untraced.latencies, traced.latencies))
        ]
        covered = statistics.median(replay / plain for plain, _op, replay in pairs)
        overhead = statistics.median(op / plain for plain, op, _replay in pairs) - 1
        self_s = statistics.median(op - replay for _plain, op, replay in pairs)
    else:
        # No replay of a whole request exists; what the responses'
        # ``elapsed`` explains of the client-side latency stands in.
        covered = _ratio(count.get("server.handle_s_total", 0), sum(all_requests))
        overhead = statistics.median(traced.latencies) / statistics.median(untraced.latencies) - 1
        self_s = 0.0
    trial_seconds = tracer.total("confidence.trials")
    metrics = {
        "algebra.parse_s": span_s("algebra.parse"),
        "algebra.queries_parsed": per_op("algebra.queries_parsed"),
        "urel.eval_s": span_s("urel.eval"),
        "urel.rows_in": per_op("urel.rows_in"),
        "urel.rows_out": per_op("urel.rows_out"),
        "urel.encode_s": span_s("urel.encode"),
        "urel.decode_s": span_s("urel.decode"),
        "urel.columnar_eligible": per_op("urel.columnar_eligible"),
        "confidence.dnf_build_s": span_s("confidence.dnf_build"),
        "confidence.dnfs_built": per_op("confidence.dnfs_built"),
        "confidence.dnf_clauses": per_op("confidence.dnf_clauses"),
        "confidence.exact_s": span_s("confidence.exact"),
        "confidence.bounds_s": span_s("confidence.bounds"),
        "confidence.bounds_exact_share": _ratio(
            count.get("confidence.bounds_exact", 0), count.get("confidence.bounds_computed", 0)
        ),
        "confidence.trials_s": span_s("confidence.trials"),
        "confidence.trials": per_op("confidence.trials"),
        "confidence.trials_per_s": _ratio(count.get("confidence.trials", 0), trial_seconds),
        "engine.route.exact": per_op("engine.route.exact"),
        "engine.route.bounds": per_op("engine.route.bounds"),
        "engine.route.sampled": per_op("engine.route.sampled"),
        "engine.route_s": span_s("engine.route"),
        "engine.compute_batch_s": span_s("engine.compute_batch"),
        "engine.cache_hits": per_op("engine.cache_hits"),
        "engine.cache_misses": per_op("engine.cache_misses"),
        "engine.cache_bytes": per_op("engine.cache_bytes"),
        "engine.cache_sizing_s": span_s("engine.cache_sizing"),
        "engine.self_s": self_s,
        "core.driver_s": span_s("core.driver"),
        "core.driver_evaluations": per_op("core.driver_evaluations"),
        "core.driver_rounds": per_op("core.driver_rounds"),
        "core.sigma_trials": per_op("core.sigma_trials"),
        "core.bounds_certified_share": _ratio(
            count.get("core.bounds_certified", 0), count.get("core.candidates", 0)
        ),
        "core.topk_s": _ratio(tracer.total("core.topk"), count.get("core.topk_replays", 0)),
        "core.topk_trials": _ratio(
            count.get("core.topk_trials", 0), count.get("core.topk_replays", 0)
        ),
        "core.topk_rounds": _ratio(
            count.get("core.topk_rounds", 0), count.get("core.topk_replays", 0)
        ),
        "core.topk_bounds_decided_share": _ratio(
            count.get("core.topk_bounds_decided", 0), count.get("core.topk_candidates", 0)
        ),
        "parallel.map_s": span_s("parallel.map"),
        "parallel.map_calls": per_op("parallel.map_calls"),
        "parallel.tasks": per_op("parallel.tasks"),
        "parallel.pickle_bytes": per_op("parallel.pickle_bytes"),
        "parallel.worker_rss_mb": count.get("parallel.worker_rss_mb", 0),
        "server.latency_p99_s": percentile(all_requests, 0.99),
        "server.handle_s": _ratio(
            count.get("server.handle_s_total", 0), count.get("server.calls", 0)
        ),
        "server.wire_s": _ratio(count.get("server.wire_s_total", 0), count.get("server.calls", 0)),
        "server.wire_bytes": _ratio(
            count.get("server.wire_bytes", 0), count.get("server.calls", 0)
        ),
        "server.session_open_s": _ratio(
            sum(by_op.get("open_session", ())), len(by_op.get("open_session", ()))
        ),
        "server.cache_hit_share": _ratio(
            count.get("server.repeat_requests", 0), count.get("server.cacheable_requests", 0)
        ),
        "server.cache_evictions": count.get("server.cache_evictions", 0),
        "server.cache_bytes_evicted": count.get("server.cache_bytes_evicted", 0),
        "server.peak_in_flight": count.get("server.peak_in_flight", 0),
        "server.rejected": count.get("server.rejected", 0),
        "harness.trace_coverage": covered,
        "harness.trace_overhead_share": overhead,
    }
    for op in SERVER_OPS:
        metrics[f"server.latency_p50_s.{op}"] = percentile(by_op.get(op, ()), 0.5)
    return metrics
