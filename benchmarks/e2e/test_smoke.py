"""Smoke test of the end-to-end benchmark (tiny sizes, one pass).

Checks the harness, not the engine's speed: every promised metric is
emitted under its name, ``BENCHMARK.json`` and the run agree on those
names, the contract's limits hold, and a wrong expected value is caught.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_benchmark(*args: str, out_dir: Path) -> subprocess.CompletedProcess:
    command = [sys.executable, str(HERE / "run.py"), "--smoke", "--out-dir", str(out_dir), *args]
    return subprocess.run(command, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("spans")
    done = run_benchmark("--traced", out_dir=out_dir)
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1]), out_dir


def test_every_metric_is_emitted_for_every_workload(traced_run):
    _text, result, _out_dir = traced_run
    expected = {f"{w}/{m}" for w in WORKLOADS for m in END_TO_END + PER_LAYER}
    assert set(result["metrics"]) == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key.split("/", 1)[1]]
        assert isinstance(metric["value"], (int, float))
    for workload in WORKLOADS:
        for name in END_TO_END:
            assert result["metrics"][f"{workload}/{name}"]["value"] > 0


def test_metrics_are_printed_by_name_with_units(traced_run):
    text, _result, out_dir = traced_run
    for workload in WORKLOADS:
        assert f"{workload}/ops_failed = 0 count" in text
        for name in END_TO_END + PER_LAYER:
            assert re.search(rf"^  {re.escape(workload)}/{re.escape(name)} = \S+ \S+", text, re.M)
        spans = json.loads((out_dir / f"trace_{workload}.json").read_text())["spans"]
        assert spans and {"name", "start", "end", "parent", "op"} <= set(spans[0])


def test_traced_smoke_separates_the_workloads(traced_run):
    _text, result, _out_dir = traced_run
    value = {key: metric["value"] for key, metric in result["metrics"].items()}
    assert value["pipeline_conf/confidence.trials"] == 0
    assert value["ti_join_conf/confidence.trials"] == 0
    assert value["ti_join_conf/urel.columnar_eligible"] == 0
    assert value["pipeline_conf/urel.columnar_eligible"] == 2
    assert value["guarantee_select/core.driver_evaluations"] >= 1
    assert value["serve_mixed/server.peak_in_flight"] >= 1
    assert value["serve_mixed/server.rejected"] == 0
    for workload in WORKLOADS[:4]:
        assert value[f"{workload}/parallel.map_calls"] == 0


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"][-1] == "benchmarks/e2e/run.py"
    assert 2 <= len(WORKLOADS) <= 8 and 1 <= len(END_TO_END) <= 16 and len(PER_LAYER) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["better"] in ("higher", "lower")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_one_workload_invocation_reports_its_own_metrics(tmp_path):
    done = run_benchmark(
        "--workload", "sampled_conf", "--seed", "3", "--seconds", "1", "--trace", "0",
        out_dir=tmp_path,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(END_TO_END)


def test_a_corrupted_expected_value_is_caught(tmp_path):
    done = run_benchmark("--workload", "ti_join_conf", "--corrupt", out_dir=tmp_path)
    assert done.returncode != 0
    failed = re.search(r"ti_join_conf/ops_failed = (\d+) count", done.stdout)
    assert failed and int(failed.group(1)) > 0
