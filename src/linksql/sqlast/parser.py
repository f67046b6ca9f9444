"""Recursive-descent parser and name resolution for the supported dialect.

The dialect is the SELECT-only benchmark subset: joins with ON, nested
subqueries in FROM / WHERE / HAVING, one set operator per level, the five
standard aggregates, BETWEEN / IN / LIKE / EXISTS, and arithmetic in value
positions. Parsing happens in two phases: a raw phase that keeps aliases
and unqualified names as written, and a resolution phase that substitutes
canonical table names using the catalog.

Resolution binds each FROM entry's alias (else its table name or its
positional ``#sqN`` name) to ``(name, columns)``: the canonical name and
the column names the entry exposes, the catalog's for a table and the
select list for a derived table. Each FROM clause is one dict of a
``ChainMap``, innermost first: a WHERE or HAVING subquery extends the
enclosing chain, a FROM subquery starts a new one, and a set operator's
right-hand side shares its left side's.
"""

from __future__ import annotations

from collections import ChainMap
from collections.abc import Collection
from dataclasses import dataclass, field

from ..catalog import DatabaseCatalog
from .lexer import SqlError, SqlParseError, Token, tokenize
from .nodes import (
    AGGREGATES,
    COMPARE_OPS,
    DERIVED_PREFIX,
    SET_OPS,
    Agg,
    Arith,
    BoolNode,
    ColumnRef,
    DerivedTable,
    JoinPair,
    Literal,
    OrderItem,
    Predicate,
    QueryAst,
    SetOp,
    Star,
)


class ResolutionError(SqlError):
    """An identifier in the query does not resolve against the catalog,
    or resolves to more than one FROM entry."""


@dataclass(frozen=True)
class _RawRef:
    qualifier: str | None
    name: str


@dataclass
class _RawSource:
    target: str | _RawQuery  # table name or FROM subquery
    alias: str | None
    on_tree: object | None = None  # raw bool tree from this join's ON clause


@dataclass
class _RawQuery:
    distinct: bool = False
    items: list = field(default_factory=list)
    sources: list = field(default_factory=list)
    where: object | None = None
    group: list = field(default_factory=list)
    having: object | None = None
    order: list = field(default_factory=list)
    limit: int | None = None
    set_op: tuple | None = None  # (op, _RawQuery)


class _Parser:
    """Token cursor. Each token has a tag, the keyword or operator text or
    else the kind, so one string test asks what comes next."""

    def __init__(self, tokens: list[Token]):
        # two more ENDs, so a lookahead of up to two never runs off the end
        self.tokens = tokens + tokens[-1:] * 2
        self.tags = [t.value if t.kind in ("KW", "OP") else t.kind for t in self.tokens]
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def tag(self, ahead: int = 0) -> str:
        return self.tags[self.i + ahead]

    def take(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "END":
            self.i += 1
        return tok

    def error(self, message: str) -> SqlParseError:
        return SqlParseError(message, self.peek().pos)

    def expect(self, tag: str) -> Token:
        if self.tag() != tag:
            shown = tag.upper() if tag.isalpha() else repr(tag)
            raise self.error(f"expected {shown}, found {self.peek().value!r}")
        return self.take()

    def take_ident(self, what: str) -> str:
        tok = self.take()
        if tok.kind != "IDENT":
            raise SqlParseError(f"expected {what}, found {tok.value!r}", tok.pos)
        return tok.value

    # -- query structure ---------------------------------------------------

    def parse_query(self) -> _RawQuery:
        core = self.parse_core()
        if self.tag() in SET_OPS:
            op = self.take().value
            rhs = self.parse_core()
            if self.tag() in SET_OPS:
                raise self.error("chained set operations are not supported")
            core.set_op = (op, rhs)
        return core

    def parse_core(self) -> _RawQuery:
        self.expect("select")
        q = _RawQuery()
        if self.tag() == "distinct":
            self.take()
            q.distinct = True
        q.items.append(self.parse_select_item())
        while self.tag() == ",":
            self.take()
            q.items.append(self.parse_select_item())
        self.expect("from")
        self.parse_from(q)
        if self.tag() == "where":
            self.take()
            q.where = self.parse_bool()
        if self.tag() == "group":
            self.take()
            self.expect("by")
            q.group.append(self.parse_group_ref())
            while self.tag() == ",":
                self.take()
                q.group.append(self.parse_group_ref())
        if self.tag() == "having":
            self.take()
            q.having = self.parse_bool()
        if self.tag() == "order":
            self.take()
            self.expect("by")
            q.order.append(self.parse_order_item())
            while self.tag() == ",":
                self.take()
                q.order.append(self.parse_order_item())
        if self.tag() == "limit":
            self.take()
            tok = self.take()
            if tok.kind != "NUM" or not tok.value.isdigit():
                raise SqlParseError("LIMIT expects a non-negative integer", tok.pos)
            q.limit = int(tok.value)
        return q

    def parse_from(self, q: _RawQuery) -> None:
        q.sources.append(self.parse_source())
        while True:
            if self.tag() == ",":
                self.take()
                q.sources.append(self.parse_source())
                continue
            if self.tag() == "inner":
                self.take()
                self.expect("join")
            elif self.tag() == "join":
                self.take()
            else:
                break
            src = self.parse_source()
            if self.tag() == "on":
                self.take()
                src.on_tree = self.parse_bool()
            q.sources.append(src)

    def parse_source(self) -> _RawSource:
        if self.tag() == "(":
            self.take()
            sub = self.parse_query()
            self.expect(")")
            alias = self.parse_alias()
            return _RawSource(sub, alias)
        name = self.take_ident("table name")
        alias = self.parse_alias()
        return _RawSource(name, alias)

    _JOIN_MODIFIERS = frozenset({"left", "right", "full", "outer", "cross", "natural"})

    def parse_alias(self) -> str | None:
        if self.tag() == "as":
            self.take()
            return self.take_ident("alias")
        if self.tag() == "IDENT":
            word = self.peek().value
            if word.lower() in self._JOIN_MODIFIERS and self.tag(1) == "join":
                raise self.error(f"unsupported join type {word!r}")
            return self.take().value
        return None

    # -- expressions -------------------------------------------------------

    def parse_select_item(self):
        if self.tag() == "*":
            self.take()
            return Star(None)
        if self.tag() == "IDENT" and self.tag(1) == "." and self.tag(2) == "*":
            qual = self.take().value
            self.take()
            self.take()
            return Star(qual)
        return self.parse_arith()

    def parse_arith(self):
        left = self.parse_term()
        while self.tag() in ("+", "-"):
            op = self.take().value
            left = Arith(op, left, self.parse_term())
        return left

    def parse_term(self):
        left = self.parse_atom()
        while self.tag() in ("*", "/"):
            op = self.take().value
            left = Arith(op, left, self.parse_atom())
        return left

    def parse_atom(self):
        tag = self.tag()
        if tag == "NUM":
            return Literal.number(self.take().value)
        if tag == "STR":
            return Literal.string(self.take().value)
        if tag == "-" and self.tag(1) == "NUM":
            self.take()
            num = self.take()
            return Literal.number("-" + num.value)
        if tag == "(":
            if self.tag(1) == "select":
                raise self.error("subquery not allowed in this position")
            self.take()
            inner = self.parse_arith()
            self.expect(")")
            return inner
        if (
            tag == "IDENT"
            and self.tag(1) == "("
            and self.peek().value.lower() in AGGREGATES
        ):
            func = self.take().value.lower()
            self.expect("(")
            distinct = False
            if self.tag() == "distinct":
                self.take()
                distinct = True
            if self.tag() == "*":
                self.take()
                arg: object = Star(None)
            else:
                arg = self.parse_arith()
            self.expect(")")
            return Agg(func, distinct, arg)
        if tag == "IDENT":
            name = self.take().value
            if self.tag() == ".":
                self.take()
                col = self.take_ident("column name")
                return _RawRef(name, col)
            return _RawRef(None, name)
        raise self.error(f"unexpected token {self.peek().value!r} in expression")

    def parse_group_ref(self) -> _RawRef:
        expr = self.parse_atom()
        if not isinstance(expr, _RawRef):
            raise self.error("GROUP BY supports plain column references only")
        return expr

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_arith()
        direction = "asc"
        if self.tag() in ("asc", "desc"):
            direction = self.take().value
        return OrderItem(expr, direction)

    # -- conditions --------------------------------------------------------

    def parse_bool(self):
        children = [self.parse_and_chain()]
        while self.tag() == "or":
            self.take()
            children.append(self.parse_and_chain())
        return children[0] if len(children) == 1 else BoolNode("or", tuple(children))

    def parse_and_chain(self):
        children = [self.parse_cond_unit()]
        while self.tag() == "and":
            self.take()
            children.append(self.parse_cond_unit())
        return children[0] if len(children) == 1 else BoolNode("and", tuple(children))

    def parse_cond_unit(self):
        if self.tag() == "(" and self.tag(1) != "select":
            self.take()
            inner = self.parse_bool()
            self.expect(")")
            return inner
        return self.parse_predicate()

    def parse_predicate(self) -> Predicate:
        if self.tag() == "exists":
            self.take()
            self.expect("(")
            sub = self.parse_query()
            self.expect(")")
            return Predicate("exists", None, sub)
        lhs = self.parse_arith()
        tag = self.tag()
        if tag in COMPARE_OPS:
            self.take()
            return Predicate(tag, lhs, self.parse_value())
        negated = False
        if tag == "not":
            self.take()
            negated = True
            tag = self.tag()
        if tag == "like":
            self.take()
            op = "not like" if negated else "like"
            return Predicate(op, lhs, self.parse_value())
        if tag == "in":
            self.take()
            op = "not in" if negated else "in"
            return Predicate(op, lhs, self.parse_in_rhs())
        if tag == "between" and not negated:
            self.take()
            low = self.parse_value(scalar=True)
            self.expect("and")
            high = self.parse_value(scalar=True)
            return Predicate("between", lhs, (low, high))
        raise self.error(f"expected a comparison operator, found {self.peek().value!r}")

    def parse_value(self, scalar: bool = False):
        if self.tag() == "(" and self.tag(1) == "select":
            if scalar:
                raise self.error("subquery not allowed as a BETWEEN bound")
            self.take()
            sub = self.parse_query()
            self.expect(")")
            return sub
        return self.parse_arith()

    def parse_in_rhs(self):
        self.expect("(")
        if self.tag() == "select":
            sub = self.parse_query()
            self.expect(")")
            return sub
        values = [self._in_literal()]
        while self.tag() == ",":
            self.take()
            values.append(self._in_literal())
        self.expect(")")
        return tuple(values)

    def _in_literal(self) -> Literal:
        value = self.parse_atom()
        if not isinstance(value, Literal):
            raise self.error("IN lists support literal values only")
        return value


# -- resolution ------------------------------------------------------------


class _Resolver:
    def __init__(self, catalog: DatabaseCatalog):
        self.catalog = catalog

    def resolve_query(self, raw: _RawQuery, outer: ChainMap) -> QueryAst:
        bound: dict[str, tuple[str, Collection[str]]] = {}  # alias -> (name, columns)
        scope = outer.new_child(bound)
        derived: list[DerivedTable] = []
        for src in raw.sources:
            if isinstance(src.target, str):
                name = src.target.strip().lower()
                if not self.catalog.has_table(name):
                    raise ResolutionError(
                        f"unknown table {src.target!r} in database {self.catalog.db_id!r}"
                    )
                columns = self.catalog.table(name).column_map
            else:
                # Derived tables resolve in isolation: standard SQL gives a
                # FROM subquery no access to sibling or outer names.
                sub_ast = self.resolve_query(src.target, ChainMap())
                name = f"{DERIVED_PREFIX}{len(derived)}"
                derived.append(DerivedTable(name, sub_ast))
                columns = _output_columns(sub_ast, self.catalog)
            alias = (src.alias or name).strip().lower()
            if alias in bound:
                raise ResolutionError(f"duplicate table alias {alias!r}")
            bound[alias] = (name, columns)

        join_pairs: set[JoinPair] = set()
        leftovers: list[object] = []
        for src in raw.sources:
            if src.on_tree is None:
                continue
            tree = self.resolve_tree(src.on_tree, scope)
            for part in _and_parts(tree):
                pair = _as_join_pair(part)
                if pair is not None:
                    join_pairs.add(pair)
                else:
                    leftovers.append(part)

        where = self.resolve_tree(raw.where, scope) if raw.where is not None else None
        if leftovers:
            parts = leftovers + ([where] if where is not None else [])
            where = parts[0] if len(parts) == 1 else BoolNode("and", tuple(parts))

        items = tuple(self.resolve_expr(it, scope) for it in raw.items)
        group = tuple(self.resolve_ref(r, scope) for r in raw.group)
        having = self.resolve_tree(raw.having, scope) if raw.having is not None else None
        order = tuple(
            OrderItem(self.resolve_expr(o.expr, scope), o.direction) for o in raw.order
        )
        set_op = None
        if raw.set_op is not None:
            op, rhs_raw = raw.set_op
            set_op = SetOp(op, self.resolve_query(rhs_raw, outer))

        return QueryAst(
            select_distinct=raw.distinct,
            select_items=items,
            from_order=tuple(name for name, _ in bound.values()),
            derived=tuple(derived),
            join_conditions=frozenset(join_pairs),
            where_tree=where,
            group_by=group,
            having_tree=having,
            order_by=order,
            limit=raw.limit,
            set_op=set_op,
        )

    def resolve_expr(self, expr, scope: ChainMap):
        if isinstance(expr, _RawRef):
            return self.resolve_ref(expr, scope)
        if isinstance(expr, Star):
            if expr.table is None:
                return expr
            name, _ = self.lookup_qualifier(expr.table, scope)
            return Star(name)
        if isinstance(expr, Literal):
            return expr
        if isinstance(expr, Agg):
            return Agg(expr.func, expr.distinct, self.resolve_expr(expr.arg, scope))
        if isinstance(expr, Arith):
            return Arith(
                expr.op,
                self.resolve_expr(expr.left, scope),
                self.resolve_expr(expr.right, scope),
            )
        raise TypeError(f"unexpected expression node {expr!r}")

    def lookup_qualifier(
        self, qualifier: str, scope: ChainMap
    ) -> tuple[str, Collection[str]]:
        try:
            return scope[qualifier.strip().lower()]
        except KeyError:
            raise ResolutionError(f"unknown table or alias {qualifier!r}") from None

    def resolve_ref(self, ref: _RawRef, scope: ChainMap) -> ColumnRef:
        col = ref.name.strip().lower()
        if ref.qualifier is not None:
            name, columns = self.lookup_qualifier(ref.qualifier, scope)
            if col not in columns:
                raise ResolutionError(f"no column {ref.name!r} in {ref.qualifier!r}")
            return ColumnRef(name, col)
        for bound in scope.maps:
            matches = [name for name, columns in bound.values() if col in columns]
            if len(matches) > 1:
                raise ResolutionError(f"ambiguous column name {ref.name!r}")
            if matches:
                return ColumnRef(matches[0], col)
        raise ResolutionError(f"unresolvable column {ref.name!r}")

    def resolve_tree(self, tree, scope: ChainMap):
        if isinstance(tree, BoolNode):
            return BoolNode(
                tree.op, tuple(self.resolve_tree(c, scope) for c in tree.children)
            )
        assert isinstance(tree, Predicate)
        lhs = self.resolve_expr(tree.lhs, scope) if tree.lhs is not None else None
        rhs = tree.rhs
        if isinstance(rhs, _RawQuery):
            rhs = self.resolve_query(rhs, scope)
        elif isinstance(rhs, tuple) and tree.op == "between":
            rhs = tuple(self.resolve_expr(v, scope) for v in rhs)
        elif isinstance(rhs, tuple):
            pass  # IN lists hold literals only
        else:
            rhs = self.resolve_expr(rhs, scope)
        return Predicate(tree.op, lhs, rhs)


def _and_parts(tree) -> list:
    if isinstance(tree, BoolNode) and tree.op == "and":
        parts = []
        for child in tree.children:
            parts.extend(_and_parts(child))
        return parts
    return [tree]


def _as_join_pair(part) -> JoinPair | None:
    if (
        isinstance(part, Predicate)
        and part.op == "="
        and isinstance(part.lhs, ColumnRef)
        and isinstance(part.rhs, ColumnRef)
        and part.lhs.table != part.rhs.table
    ):
        return JoinPair.of(part.lhs, part.rhs)
    return None


def _output_columns(sub: QueryAst, catalog: DatabaseCatalog) -> tuple[str, ...]:
    """Column names a derived table exposes to its enclosing query."""
    derived_map = {d.name: d.query for d in sub.derived}
    out: list[str] = []
    for item in sub.select_items:
        if isinstance(item, ColumnRef):
            out.append(item.column)
        elif isinstance(item, Star):
            for t in (item.table,) if item.table is not None else sub.from_order:
                if t in derived_map:
                    out.extend(_output_columns(derived_map[t], catalog))
                else:
                    out.extend(catalog.table(t).column_map)
    return tuple(out)


def parse_sql(query: str, catalog: DatabaseCatalog) -> QueryAst:
    """Parse one SELECT statement and resolve it against the catalog.

    Aliases are substituted by canonical table names and an unqualified
    column resolves to the one FROM entry of the innermost scope that has
    it. When several entries of that scope have it, the column is
    ambiguous and rejected, as SQLite rejects it.

    Raises SqlParseError (with token position) on lexical or syntax
    errors and ResolutionError when an identifier does not exist in the
    catalog or is ambiguous; both are SqlError. A query nested too deeply
    for the recursive descent is a SqlParseError at position 0.
    """
    parser = _Parser(tokenize(query))
    try:
        raw = parser.parse_query()
        if parser.tag() == ";":
            parser.take()
        if parser.tag() != "END":
            raise parser.error(f"unexpected trailing input {parser.peek().value!r}")
        return _Resolver(catalog).resolve_query(raw, ChainMap())
    except RecursionError:
        raise SqlParseError("query nested too deeply", 0) from None
