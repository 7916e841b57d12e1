# detlint-corpus: expect=DET003 target=src/repro/core/_detlint_probe.py
"""Corpus: a lambda handed to the run scope's executor through ``map_items``."""

from repro.util.scope import current_scope


def double_all(items):
    # ``map_items`` pickles its kernel like ``map`` does, and a receiver
    # reached through a call is still an executor.
    return current_scope().executor.map_items(lambda shard: [x * 2 for x in shard], items)
