"""Tests for the determinism linter (``tools/detlint``).

Three layers:

* per-rule true-positive tests driven by the corpus in
  ``tests/detlint_corpus/`` (each snippet's header names the rule that
  must fire and the in-scope path it is analyzed at), paired with a
  clean snippet showing the sanctioned idiom passes;
* framework behavior: suppressions (honored only with a justification —
  DET000 otherwise), the stable ``detlint/v1`` JSON schema, and the
  source-hash result cache;
* the meta-test: the live tree is finding-free, and the inline
  suppression budget (<= 10, all justified) holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # tools/ is a repo-root package
    sys.path.insert(0, str(REPO_ROOT))

from tools.detlint.config import load_config, parse_toml_subset  # noqa: E402
from tools.detlint.framework import Declarations, all_rules, collect_declarations  # noqa: E402
from tools.detlint.framework import extract_comments  # noqa: E402
from tools.detlint.runner import analyze_paths, analyze_source  # noqa: E402

CORPUS_DIR = REPO_ROOT / "tests" / "detlint_corpus"
_HEADER = re.compile(r"#\s*detlint-corpus:\s*expect=(\S+)\s+target=(\S+)")

CONFIG = load_config(None, REPO_ROOT)


def corpus_cases() -> list[tuple[str, str, Path]]:
    cases = []
    for path in sorted(CORPUS_DIR.glob("*.py")):
        match = _HEADER.match(path.read_text(encoding="utf-8").splitlines()[0])
        assert match, f"{path.name}: missing detlint-corpus header"
        cases.append((match.group(1), match.group(2), path))
    return cases


def run_on(source: str, rel_path: str):
    """Analyze ``source`` as if it lived at ``rel_path`` in this repo."""
    import ast

    decls = Declarations()
    try:
        tree = ast.parse(source)
    except SyntaxError:
        tree = None
    if tree is not None:
        collect_declarations(rel_path, tree, extract_comments(source), decls)
    return analyze_source(rel_path, source, CONFIG, decls)


# --------------------------------------------------------------------------
# true positives: every corpus snippet fires its rule at its target path
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "expect,target,path",
    corpus_cases(),
    ids=[c[2].stem for c in corpus_cases()],
)
def test_corpus_snippet_fires(expect, target, path):
    findings = run_on(path.read_text(encoding="utf-8"), target)
    assert expect in {f.rule for f in findings}, (
        f"{path.name} at {target} produced {[f.render() for f in findings]}"
    )


def test_corpus_covers_every_rule():
    expected = {c[0] for c in corpus_cases()}
    assert set(all_rules()) <= expected, (
        f"rules without a corpus snippet: {sorted(set(all_rules()) - expected)}"
    )


# --------------------------------------------------------------------------
# clean passes: the sanctioned idiom for each rule produces no findings
# --------------------------------------------------------------------------

_CLEAN = {
    "DET001": (
        "src/repro/confidence/_detlint_probe.py",
        "import random\n"
        "def sample_trials(rng: random.Random, n: int) -> list[float]:\n"
        "    return [rng.random() for _ in range(n)]\n",
    ),
    "DET002": (
        "src/repro/core/_detlint_probe.py",
        "def order_variables(variables: frozenset) -> list:\n"
        "    out = []\n"
        "    for var in sorted(variables, key=repr):\n"
        "        out.append(var)\n"
        "    return out\n",
    ),
    "DET003": (
        "src/repro/core/_detlint_probe.py",
        "def _double_shard(shard):\n"
        "    return [x * 2 for x in shard]\n"
        "def double_all(executor, shards):\n"
        "    return list(executor.map(_double_shard, shards))\n",
    ),
    "DET004": (
        "src/repro/core/_detlint_probe.py",
        "import threading\n"
        "class Registry:\n"
        "    def __init__(self):\n"
        "        self._entries = {}  # detlint: guarded-by(_lock)\n"
        "        self._lock = threading.Lock()\n"
        "    def replace(self, entries) -> None:\n"
        "        with self._lock:\n"
        "            self._entries = dict(entries)\n",
    ),
    "DET005": (
        "src/repro/engine/_detlint_probe.py",
        "class CompleteEstimator:\n"
        "    def __init__(self, eps: float, trials: int):\n"
        "        self.eps = eps\n"
        "        self.trials = trials\n"
        "    def cache_token(self) -> tuple:\n"
        "        return ('complete', self.eps, self.trials)\n",
    ),
}


@pytest.mark.parametrize("rule_id", sorted(_CLEAN))
def test_clean_idiom_passes(rule_id):
    rel_path, source = _CLEAN[rule_id]
    findings = run_on(source, rel_path)
    assert not findings, [f.render() for f in findings]


@pytest.mark.parametrize(
    "call",
    [
        "executor.map_items(lambda shard: shard, items)",
        "current_scope().executor.map(lambda shard: shard, items)",
        "current_scope().executor.map_items(lambda shard: shard, items)",
        "(executor or SERIAL_EXECUTOR).map_items(lambda shard: shard, items)",
        "self._pool.submit(lambda: 1)",
    ],
)
def test_det003_sees_every_fan_out_receiver(call):
    source = f"def fan_out(self, executor, items):\n    return {call}\n"
    findings = run_on(source, "src/repro/core/_detlint_probe.py")
    assert [f.rule for f in findings] == ["DET003"], [f.render() for f in findings]


@pytest.mark.parametrize(
    "call",
    [
        "current_scope().executor.map_items(_shard, items)",
        "(executor or SERIAL_EXECUTOR).map(_shard, items)",
        "current_scope().memo.map(lambda shard: shard, items)",
        "builtins_map().map(lambda shard: shard, items)",
    ],
)
def test_det003_passes_module_level_kernels_and_other_receivers(call):
    source = (
        "def _shard(shard):\n"
        "    return shard\n"
        f"def fan_out(executor, items):\n    return {call}\n"
    )
    findings = run_on(source, "src/repro/core/_detlint_probe.py")
    assert not findings, [f.render() for f in findings]


# --------------------------------------------------------------------------
# suppressions
# --------------------------------------------------------------------------

def test_justified_suppression_is_honored():
    source = (
        "import random\n"
        "def draw():\n"
        "    # detlint: ignore[DET001] test fixture needs ambient entropy\n"
        "    return random.random()\n"
    )
    findings = run_on(source, "src/repro/confidence/_detlint_probe.py")
    assert not findings, [f.render() for f in findings]


def test_unjustified_suppression_is_itself_a_finding():
    source = (
        "import random\n"
        "def draw():\n"
        "    return random.random()  # detlint: ignore[DET001]\n"
    )
    findings = run_on(source, "src/repro/confidence/_detlint_probe.py")
    rules = {f.rule for f in findings}
    assert rules == {"DET000"}, [f.render() for f in findings]


def test_malformed_and_unknown_directives_are_findings():
    source = (
        "x = 1  # detlint: ignore DET001 forgot the brackets\n"
        "y = 2  # detlint: igonre[DET001] typo in the directive\n"
    )
    findings = run_on(source, "src/repro/core/_detlint_probe.py")
    assert [f.rule for f in findings] == ["DET000", "DET000"]


def test_suppression_only_silences_named_rule():
    source = (
        "import random\n"
        "def draw():\n"
        "    # detlint: ignore[DET002] wrong rule named\n"
        "    return random.random()\n"
    )
    findings = run_on(source, "src/repro/confidence/_detlint_probe.py")
    assert {f.rule for f in findings} == {"DET001"}


# --------------------------------------------------------------------------
# JSON report schema (consumed by CI — keep stable)
# --------------------------------------------------------------------------

def _make_tree(tmp_path: Path, rel: str, source: str) -> Path:
    root = tmp_path / "repo"
    target = root / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    shutil.copy(REPO_ROOT / "detlint.toml", root / "detlint.toml")
    return root


def test_report_schema_is_stable(tmp_path):
    expect, target, path = corpus_cases()[0]
    root = _make_tree(tmp_path, target, path.read_text(encoding="utf-8"))
    report = analyze_paths(["src"], repo_root=root)
    assert report["schema"] == "detlint/v1"
    assert set(report) == {
        "schema", "version", "files_checked", "cache_hits",
        "findings", "counts", "total",
    }
    assert report["total"] == len(report["findings"]) >= 1
    assert report["counts"].get(expect, 0) >= 1
    for finding in report["findings"]:
        assert set(finding) == {"rule", "severity", "path", "line", "col", "message"}
        assert finding["severity"] in ("warning", "error")
    assert json.dumps(report)  # JSON-serializable end to end


def test_every_corpus_snippet_fails_an_injected_tree(tmp_path):
    """The CI gate in miniature: copy each snippet to its target, expect red."""
    for expect, target, path in corpus_cases():
        root = _make_tree(tmp_path / path.stem, target, path.read_text(encoding="utf-8"))
        report = analyze_paths(["src"], repo_root=root)
        assert report["counts"].get(expect, 0) >= 1, (
            f"{path.name} injected at {target} did not trip {expect}"
        )


def test_cache_replays_identical_findings(tmp_path):
    expect, target, path = corpus_cases()[0]
    root = _make_tree(tmp_path, target, path.read_text(encoding="utf-8"))
    cache = tmp_path / "cache.json"
    first = analyze_paths(["src"], repo_root=root, cache_path=cache)
    second = analyze_paths(["src"], repo_root=root, cache_path=cache)
    assert first["cache_hits"] == 0
    assert second["cache_hits"] == second["files_checked"] == first["files_checked"]
    assert second["findings"] == first["findings"]


def test_cli_json_and_exit_codes(tmp_path):
    expect, target, path = corpus_cases()[0]
    root = _make_tree(tmp_path, target, path.read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, "-m", "tools.detlint", "--root", str(root),
         "--config", str(root / "detlint.toml"), "--format", "json", "src"],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert report["schema"] == "detlint/v1"
    assert report["counts"].get(expect, 0) >= 1


# --------------------------------------------------------------------------
# the live tree
# --------------------------------------------------------------------------

def test_live_tree_is_finding_free():
    report = analyze_paths(["src", "tools", "benchmarks"], repo_root=REPO_ROOT)
    assert report["total"] == 0, "\n".join(
        f"{f['path']}:{f['line']}: {f['rule']} {f['message']}"
        for f in report["findings"]
    )


def test_inline_suppression_budget():
    """<= 10 suppressions in src/, every one carrying a justification."""
    pattern = re.compile(r"detlint:\s*ignore\[([A-Z0-9, ]+)\]\s*[-—:]*\s*(\S?.*)")
    found = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            match = pattern.search(line)
            if match:
                found.append((path, lineno, match.group(2).strip()))
    assert len(found) <= 10, f"suppression budget exceeded: {found}"
    for path, lineno, justification in found:
        assert justification, f"{path}:{lineno}: suppression without justification"


def test_config_parses_with_fallback_parser():
    """detlint.toml stays inside the 3.10-safe TOML subset."""
    text = (REPO_ROOT / "detlint.toml").read_text(encoding="utf-8")
    data = parse_toml_subset(text)
    rules = data["detlint"]["rules"]
    assert set(rules) >= {f"DET00{i}" for i in range(1, 6)}
    try:
        import tomllib
    except ImportError:
        return
    assert tomllib.loads(text) == data, "fallback parser disagrees with tomllib"
