"""Immutable AST node types for the supported SQL dialect.

All nodes are frozen dataclasses so whole trees are hashable and safe to
share. Identifier fields hold catalog normal-form names after resolution;
derived tables (subqueries in FROM) get positional scope-local names of
the form ``#sq0``, ``#sq1`` so structurally equal queries compare equal
regardless of the aliases the author chose.

A select item is a plain expression, like any other value position, so an
aggregate call is an ``Agg`` node wherever it is written: ``count(*)`` in
the select list and ``count(*)`` in HAVING are the same node.
"""

from __future__ import annotations

from dataclasses import dataclass

AGGREGATES = ("count", "sum", "avg", "min", "max")
COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")
PREDICATE_OPS = COMPARE_OPS + ("like", "not like", "in", "not in", "between", "exists")
SET_OPS = ("union", "intersect", "except")

DERIVED_PREFIX = "#sq"


@dataclass(frozen=True)
class Star:
    """The ``*`` projection, optionally qualified (``t.*``)."""

    table: str | None = None


@dataclass(frozen=True)
class ColumnRef:
    """A resolved column: (table normal name, column normal name)."""

    table: str
    column: str

    @property
    def is_derived(self) -> bool:
        return self.table.startswith(DERIVED_PREFIX)


@dataclass(frozen=True)
class Literal:
    """A literal value with a canonical text form.

    Numbers are normalized to their shortest decimal spelling; strings keep
    their original case with the quotes stripped.
    """

    kind: str  # "num" | "str"
    text: str

    @classmethod
    def number(cls, raw: str) -> "Literal":
        value = float(raw)
        if value.is_integer() and abs(value) < 1e15:
            return cls("num", str(int(value)))
        return cls("num", repr(value))

    @classmethod
    def string(cls, raw: str) -> "Literal":
        return cls("str", raw)


@dataclass(frozen=True)
class Agg:
    """An aggregate call over an expression (or ``*``)."""

    func: str
    distinct: bool
    arg: object  # Star | ColumnRef | Arith | Literal


@dataclass(frozen=True)
class Arith:
    """A binary arithmetic expression."""

    op: str
    left: object
    right: object


# An expression position holds one of: Star, ColumnRef, Literal, Agg, Arith.
Expr = object


@dataclass(frozen=True)
class Predicate:
    """A comparison leaf in a WHERE/HAVING tree.

    ``rhs`` is a Literal, an expression, a nested QueryAst, a tuple of
    Literals (IN lists), or a (low, high) pair for BETWEEN. EXISTS has no
    left-hand side.
    """

    op: str
    lhs: Expr | None
    rhs: object


@dataclass(frozen=True)
class BoolNode:
    """An AND/OR node; children are Predicates or nested BoolNodes."""

    op: str  # "and" | "or"
    children: tuple[object, ...]


@dataclass(frozen=True)
class JoinPair:
    """An unordered equality between two columns from a JOIN ... ON clause."""

    left: ColumnRef
    right: ColumnRef

    @classmethod
    def of(cls, a: ColumnRef, b: ColumnRef) -> "JoinPair":
        first, second = sorted([a, b], key=lambda r: (r.table, r.column))
        return cls(first, second)


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    direction: str  # "asc" | "desc"


@dataclass(frozen=True)
class DerivedTable:
    """A subquery in FROM, known by its positional scope-local name."""

    name: str  # "#sq0", "#sq1", ...
    query: "QueryAst"


@dataclass(frozen=True)
class SetOp:
    op: str  # "union" | "intersect" | "except"
    rhs: "QueryAst"


@dataclass(frozen=True)
class QueryAst:
    """A fully resolved SELECT query.

    ``from_order`` lists FROM sources (table normal names and derived-table
    names) in written order; ``from_tables`` is the set view over the
    catalog tables among them. ``group_by`` keeps written order, the
    canonical component view treats it as a set.
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


@dataclass(frozen=True)
class LinkTarget:
    """The tables and qualified columns a query uses."""

    tables: frozenset[str] = frozenset()
    columns: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self) -> None:
        missing = {t for t, _ in self.columns} - self.tables
        if missing:
            object.__setattr__(self, "tables", self.tables | missing)
