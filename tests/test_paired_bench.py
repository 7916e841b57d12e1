"""``tools/paired_bench.py``'s arithmetic, on canned ``run.py`` output."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # tools/ is a repo-root package
    sys.path.insert(0, str(REPO_ROOT))

from tools.paired_bench import parse_metrics, quartiles, render, summarize  # noqa: E402

SPEC = [
    {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
]


def _stdout(latency: float, throughput: float, correct: bool = True) -> str:
    record = {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {
            "latency_p50_s": {"value": latency, "unit": "s"},
            "throughput_ops_s": {"value": throughput, "unit": "ops/s"},
        },
    }
    return "pipeline_conf  latency_p50_s  0.02 s\n" + json.dumps(record) + "\n"


def test_parse_reads_the_last_line():
    assert parse_metrics(_stdout(0.02, 40.0)) == {"latency_p50_s": 0.02, "throughput_ops_s": 40.0}
    with pytest.raises(ValueError, match="failed ops"):
        parse_metrics(_stdout(0.02, 40.0, correct=False))
    with pytest.raises(ValueError, match="printed nothing"):
        parse_metrics("")


def test_quartiles_are_inclusive():
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)


def test_summary_of_four_pairs():
    canned = [(0.020, 0.015, 40.0, 50.0), (0.024, 0.018, 38.0, 47.0),
              (0.022, 0.023, 41.0, 40.0), (0.030, 0.015, 30.0, 52.0)]
    pairs = [
        {"parent": parse_metrics(_stdout(pl, pt)), "tree": parse_metrics(_stdout(tl, tt))}
        for pl, tl, pt, tt in canned
    ]
    summary = summarize(pairs, SPEC)
    latency = summary["latency_p50_s"]
    assert latency["ratios"] == pytest.approx([0.75, 0.75, 23 / 22, 0.5])
    assert latency["median_ratio"] == pytest.approx(0.75)
    assert latency["parent"] == pytest.approx((0.0215, 0.023, 0.0255))
    assert latency["tree"] == pytest.approx((0.015, 0.0165, 0.01925))
    assert latency["tree_better"] == 3 and latency["pairs"] == 4
    throughput = summary["throughput_ops_s"]
    assert throughput["tree_better"] == 3  # higher is better here
    assert throughput["median_ratio"] == pytest.approx((47 / 38 + 50 / 40) / 2)
    text = render("pipeline_conf", summary)
    assert text.splitlines()[0] == "pipeline_conf: 4 pairs (tree / parent)"
    assert "ratio x0.750  better 3/4" in text
