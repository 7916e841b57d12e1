"""U-relational databases: the succinct, complete representation system (Section 3)."""

from repro.urel.columnar import ColumnarContext, ColumnarURelation
from repro.urel.conditions import TOP, Condition, ConditionPool
from repro.urel.enumerate import WorldLimitError, enumerate_worlds, from_possible_worlds
from repro.urel.evaluate import UEvaluator, UResult
from repro.urel.translate import confidence_relation, translate_repair_key
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableError, VariableTable

__all__ = [
    "ColumnarContext",
    "ColumnarURelation",
    "Condition",
    "ConditionPool",
    "TOP",
    "VariableTable",
    "VariableError",
    "URelation",
    "UDatabase",
    "UEvaluator",
    "UResult",
    "enumerate_worlds",
    "from_possible_worlds",
    "WorldLimitError",
    "translate_repair_key",
    "confidence_relation",
]
