"""SQL parsing and analysis for the supported SELECT dialect."""

from .analysis import exact_set_match, extract_link_targets
from .lexer import SqlError, SqlParseError, tokenize
from .nodes import (
    AGGREGATES,
    COMPARE_OPS,
    DERIVED_PREFIX,
    PREDICATE_OPS,
    SET_OPS,
    Agg,
    Arith,
    BoolNode,
    ColumnRef,
    DerivedTable,
    JoinPair,
    LinkTarget,
    Literal,
    OrderItem,
    Predicate,
    QueryAst,
    SetOp,
    Star,
)
from .parser import ResolutionError, parse_sql

__all__ = [
    "AGGREGATES",
    "COMPARE_OPS",
    "DERIVED_PREFIX",
    "PREDICATE_OPS",
    "SET_OPS",
    "Agg",
    "Arith",
    "BoolNode",
    "ColumnRef",
    "DerivedTable",
    "JoinPair",
    "LinkTarget",
    "Literal",
    "OrderItem",
    "Predicate",
    "QueryAst",
    "ResolutionError",
    "SetOp",
    "SqlError",
    "SqlParseError",
    "Star",
    "exact_set_match",
    "extract_link_targets",
    "parse_sql",
    "tokenize",
]
