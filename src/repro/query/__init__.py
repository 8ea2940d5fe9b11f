"""Query subsystem: source/operator/combiner/output elements, the query
graph and the serial execution engine (paper Section 3.3 / Fig. 2)."""

from .cache import CacheEntry, QueryCache, DEFAULT_BUDGET_BYTES
from .combiner import Combiner
from .elements import QueryContext, QueryElement
from .engine import Query, QueryResult, resolve_cache
from .graph import QueryGraph
from .operators import (ALL_OPERATORS, ARITHMETIC, Operator, REDUCTIONS,
                        STATISTICAL, TWO_VECTOR)
from .outputs import Output
from .source import ParameterSpec, RunFilter, Source
from .vectors import ColumnInfo, DataVector

__all__ = [
    "CacheEntry", "QueryCache", "DEFAULT_BUDGET_BYTES", "resolve_cache",
    "Combiner", "QueryContext", "QueryElement", "Query", "QueryResult",
    "QueryGraph", "ALL_OPERATORS", "ARITHMETIC", "Operator", "REDUCTIONS",
    "STATISTICAL", "TWO_VECTOR", "Output", "ParameterSpec", "RunFilter",
    "Source", "ColumnInfo", "DataVector",
]
