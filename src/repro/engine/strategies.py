"""The strategy registry's historical address.

The strategies live in :mod:`repro.confidence.strategies` — below the
evaluators that take strategy *objects*
(:class:`~repro.urel.evaluate.UEvaluator`).  This module re-exports the
very same classes and functions:
``repro.engine.strategies.KarpLuby is repro.confidence.strategies.KarpLuby``.
"""

from repro.confidence.strategies import *  # noqa: F401,F403
from repro.confidence.strategies import __all__  # noqa: F401
