"""detlint — repo-specific determinism & concurrency static analysis.

Every guarantee this reproduction makes (bit-identical answers for every
worker count, backend, and hash seed) rests on code discipline that the
dynamic test suites can only check *after* the fact: seeded randomness,
order-stable iteration, picklable shard kernels, lock-protected shared
state and complete cache keys.  ``detlint`` rejects the known
violations of that discipline at lint time, from the AST alone (stdlib
``ast`` only — no new dependencies).

Usage::

    python -m tools.detlint src/ tools/ benchmarks/
    python -m tools.detlint --format json --cache .detlint-cache.json src/

Rules (see ``docs/determinism.md`` for the contract each one guards):

========  ==========================================================
DET000    malformed or unjustified ``# detlint: ignore[...]`` comment
DET001    unseeded randomness / wall-clock reads in deterministic code
DET002    set/frozenset iteration order escaping into ordered output
DET003    non-module-level callables handed to ``ShardExecutor``
DET004    writes to ``guarded-by`` fields outside their lock
DET005    token functions missing determinism-relevant ctor params
========  ==========================================================

Inline suppression (requires a one-line justification)::

    risky_line()  # detlint: ignore[DET002] order-insensitive: builds a set

Configuration lives in ``detlint.toml`` at the repo root: per-rule path
scoping, the DET005 exemption manifest, DET003 executor names, etc.
"""

from tools.detlint.framework import Finding, Rule, all_rules
from tools.detlint.runner import analyze_paths, analyze_source

__version__ = "1.0.0"

__all__ = ["Finding", "Rule", "all_rules", "analyze_paths", "analyze_source", "__version__"]
