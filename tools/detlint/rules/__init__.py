"""Bundled detlint rules — importing this package registers all of them."""

from tools.detlint.rules import (  # noqa: F401  (registration side effect)
    det001_rng,
    det002_set_order,
    det003_shard_kernels,
    det004_guarded_by,
    det005_cache_tokens,
)
