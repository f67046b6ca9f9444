"""Immutable AST node types for the supported SQL dialect.

All nodes are frozen dataclasses with slots, so whole trees are hashable
and safe to share, and a node costs no instance dict. Identifier fields
hold catalog normal-form names after resolution; derived tables
(subqueries in FROM) get positional scope-local names of the form
``#sq0``, ``#sq1`` so structurally equal queries compare equal regardless
of the aliases the author chose.

A select item is a plain expression, like any other value position, so an
aggregate call is an ``Agg`` node wherever it is written: ``count(*)`` in
the select list and ``count(*)`` in HAVING are the same node.

Chains are flat: a ``BoolNode`` holds every operand of a run of AND or of
OR, and an ``Arith`` every operand of a run of ``+``/``-`` or of
``*``/``/``. A tree is as deep as the query's parentheses and subqueries,
not as long as its chains, so the generated ``__eq__``, ``__hash__`` and
``__repr__`` and every walker handle a sum of any length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

AGGREGATES = ("count", "sum", "avg", "min", "max")
COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")
PREDICATE_OPS = COMPARE_OPS + ("like", "not like", "in", "not in", "between", "exists")
SET_OPS = ("union", "intersect", "except")

DERIVED_PREFIX = "#sq"


@dataclass(frozen=True, slots=True)
class Star:
    """The ``*`` projection, optionally qualified (``t.*``)."""

    table: str | None = None


@dataclass(frozen=True, slots=True)
class ColumnRef:
    """A resolved column: (table normal name, column normal name)."""

    table: str
    column: str

    @property
    def is_derived(self) -> bool:
        return self.table.startswith(DERIVED_PREFIX)


@dataclass(frozen=True, slots=True)
class Literal:
    """A literal value with a canonical text form.

    An integer in SQLite's int64 range is spelled exactly, as
    ``str(int(raw))``, however many digits it has, so integers past 2**53
    that differ stay apart. Any other number, which SQLite reads as REAL,
    gets its shortest decimal spelling: an integral one below 1e15 that of
    the integer, so ``100``, ``100.0`` and ``0100`` are equal, and one
    beyond the float range ``1e999`` or ``-1e999``, which parse back.
    Strings keep their original case with the quotes stripped.
    """

    kind: str  # "num" | "str"
    text: str

    @classmethod
    def number(cls, raw: str) -> "Literal":
        # The parser passes a negative integer as "-" and its digits. An int64
        # has at most 19 digits past its leading zeros, and only those reach
        # int(), which refuses text of more than 4300 digits.
        digits = raw.removeprefix("-")
        significant = digits.lstrip("0")
        if digits.isdecimal() and len(significant) <= 19:
            value = int(significant or "0")
            if raw.startswith("-"):
                value = -value
            if -(2**63) <= value < 2**63:
                return cls("num", str(value))
        value = float(raw)
        if value.is_integer() and abs(value) < 1e15:
            return cls("num", str(int(value)))
        if math.isinf(value):
            return cls("num", "-1e999" if value < 0 else "1e999")
        return cls("num", repr(value))

    @classmethod
    def string(cls, raw: str) -> "Literal":
        return cls("str", raw)


@dataclass(frozen=True, slots=True)
class Agg:
    """An aggregate call over an expression (or ``*``)."""

    func: str
    distinct: bool
    arg: object  # Star | ColumnRef | Arith | Literal


@dataclass(frozen=True, slots=True)
class Arith:
    """A run of one precedence class of arithmetic: ``operands[0] ops[0]
    operands[1] ops[1] ...``, left to right.

    The ops are all ``+``/``-`` or all ``*``/``/``, and there is one more
    operand than op. A parenthesized first operand of the same class is
    merged, so ``(a+b)-c`` is the node of ``a+b-c``, while ``a-(b-c)`` keeps
    its inner node. A long sum is one wide node, not a deep chain.
    """

    ops: tuple[str, ...]
    operands: tuple[object, ...]


# An expression position holds one of: Star, ColumnRef, Literal, Agg, Arith.
Expr = object


@dataclass(frozen=True, slots=True)
class Predicate:
    """A comparison leaf in a WHERE/HAVING tree.

    ``rhs`` is a Literal, an expression, a nested QueryAst, a tuple of
    Literals (IN lists), or a (low, high) pair for BETWEEN. EXISTS has no
    left-hand side.
    """

    op: str
    lhs: Expr | None
    rhs: object


@dataclass(frozen=True, slots=True)
class BoolNode:
    """An AND/OR node of two or more Predicates or BoolNodes. No child has
    its parent's op: the parser merges ``(a AND b) AND c`` into one node."""

    op: str  # "and" | "or"
    children: tuple[object, ...]


@dataclass(frozen=True, slots=True)
class JoinPair:
    """An unordered equality between two columns from a JOIN ... ON clause."""

    left: ColumnRef
    right: ColumnRef

    @classmethod
    def of(cls, a: ColumnRef, b: ColumnRef) -> "JoinPair":
        first, second = sorted([a, b], key=lambda r: (r.table, r.column))
        return cls(first, second)


@dataclass(frozen=True, slots=True)
class OrderItem:
    expr: Expr
    direction: str  # "asc" | "desc"


@dataclass(frozen=True, slots=True)
class DerivedTable:
    """A subquery in FROM, known by its positional scope-local name."""

    name: str  # "#sq0", "#sq1", ...
    query: "QueryAst"


@dataclass(frozen=True, slots=True)
class SetOp:
    op: str  # "union" | "intersect" | "except"
    rhs: "QueryAst"


@dataclass(frozen=True, slots=True)
class QueryAst:
    """A fully resolved SELECT query.

    ``from_order`` lists FROM sources (table normal names and derived-table
    names) in written order; ``from_tables`` is the set view over the
    catalog tables among them. ``group_by`` keeps written order; exact set
    match treats it as a set.
    """

    select_distinct: bool
    select_items: tuple[Expr, ...]
    from_order: tuple[str, ...]
    derived: tuple[DerivedTable, ...] = ()
    join_conditions: frozenset[JoinPair] = frozenset()
    where_tree: object | None = None
    group_by: tuple[ColumnRef, ...] = ()
    having_tree: object | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    set_op: SetOp | None = None

    @property
    def from_tables(self) -> frozenset[str]:
        return frozenset(t for t in self.from_order if not t.startswith(DERIVED_PREFIX))

    def has_toplevel_order(self) -> bool:
        """Whether the query chain carries an ORDER BY at the top level."""
        if self.order_by:
            return True
        if self.set_op is not None:
            return self.set_op.rhs.has_toplevel_order()
        return False


@dataclass(frozen=True, slots=True)
class LinkTarget:
    """The tables and qualified columns a query uses."""

    tables: frozenset[str] = frozenset()
    columns: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self) -> None:
        missing = {t for t, _ in self.columns} - self.tables
        if missing:
            object.__setattr__(self, "tables", self.tables | missing)
