"""Recursive-descent parser and name resolution for the supported dialect.

The dialect is the SELECT-only benchmark subset: joins with ON, nested
subqueries in FROM / WHERE / HAVING, one set operator per level, the five
standard aggregates, BETWEEN / IN / LIKE / EXISTS, and arithmetic in value
positions. Names resolve as the parser meets them, so each node is built
once, already holding canonical table names from the catalog.

Resolution binds each FROM entry's alias (else its table name or its
positional ``#sqN`` name) to ``(name, columns)``: the canonical name and
the column names the entry exposes, the catalog's for a table and the
select list for a derived table. Each FROM clause is one dict, and a scope
is a tuple of them, innermost first: a WHERE or HAVING subquery extends
the enclosing scope, a FROM subquery starts an empty one, and a set
operator's right-hand side shares its left side's.

So that every name is met after the entries it may refer to, a query is
parsed FROM first: its FROM entries are bound, then its ON conditions,
which may name any entry of the clause, then the select list, then the
clauses after FROM. A syntax error wins over a name error: the first
ResolutionError is held until the whole statement has parsed. The syntax
error reported is the first in written order, found by parsing again in
that order.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import replace

from ..catalog import DatabaseCatalog
from .lexer import SqlError, SqlParseError, scan, token_start
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


class _SyntaxError(Exception):
    """A syntax error at a token index; ``parse_sql`` reports it as a
    SqlParseError at that token's character position."""

    def __init__(self, message: str, at: int):
        super().__init__(message)
        self.message = message
        self.at = at


# Tags that end an ON condition: outside parentheses no condition holds
# one, and in a valid query one of them follows every ON condition.
_CONDITION_ENDS = frozenset(
    {",", "inner", "join", "where", "group", "having", "order", "limit", ")", ";", "END", *SET_OPS}
)
# Tags that continue an operand or a predicate: a condition unit that
# opens with "(" is a parenthesized operand when one follows its ")".
_OPERAND_CONTINUES = frozenset({*COMPARE_OPS, "+", "-", "*", "/", "not", "like", "in", "between"})
_JOIN_MODIFIERS = frozenset({"left", "right", "full", "outer", "cross", "natural"})

# The FROM clauses a name may refer to, innermost first; each maps an alias
# to (name, columns).
_Scope = tuple[dict[str, tuple[str, Collection[str]]], ...]


class _Parser:
    """Cursor over the lexer's tags and values. A tag is the keyword or
    operator text, else IDENT, NUM, STR or END, so one string test asks
    what comes next.

    Names resolve against ``scope``. The first name that fails is held in
    ``held`` and parsing goes on with a placeholder, so that a syntax
    error later in the statement still wins. With ``written_order`` the
    parser takes each query's clauses in the order they are written, which
    finds the first syntax error; names met before the FROM entries they
    refer to fail then, and are not reported.
    """

    def __init__(
        self,
        tags: list[str],
        values: list[str],
        catalog: DatabaseCatalog,
        written_order: bool = False,
    ):
        self.tags = tags
        self.values = values
        self.catalog = catalog
        self.written_order = written_order
        self.i = 0
        self.scope: _Scope = ()
        self.held: ResolutionError | None = None
        self._closing: dict[int, int] | None = None

    def take(self) -> str:
        value = self.values[self.i]
        self.i += 1
        return value

    def error(self, message: str) -> _SyntaxError:
        return _SyntaxError(message, self.i)

    def expect(self, tag: str) -> None:
        if self.tags[self.i] != tag:
            shown = tag.upper() if tag.isalpha() else repr(tag)
            raise self.error(f"expected {shown}, found {self.values[self.i]!r}")
        self.i += 1

    def take_ident(self, what: str) -> str:
        i = self.i
        if self.tags[i] != "IDENT":
            raise self.error(f"expected {what}, found {self.values[i]!r}")
        self.i = i + 1
        return self.values[i]

    # -- query structure ---------------------------------------------------

    def parse_statement(self) -> QueryAst:
        ast = self.parse_query(())
        if self.tags[self.i] == ";":
            self.i += 1
        if self.tags[self.i] != "END":
            raise self.error(f"unexpected trailing input {self.values[self.i]!r}")
        return ast

    def parse_query(self, outer: _Scope) -> QueryAst:
        """A query and its set operator, resolved against ``outer``, which
        is ``scope`` again when it returns."""
        core = self.parse_core(outer)
        if self.tags[self.i] in SET_OPS:
            op = self.take()
            rhs = self.parse_core(outer)
            if self.tags[self.i] in SET_OPS:
                raise self.error("chained set operations are not supported")
            core = replace(core, set_op=SetOp(op, rhs))
        return core

    def parse_core(self, outer: _Scope) -> QueryAst:
        tags = self.tags
        self.expect("select")
        distinct = tags[self.i] == "distinct"
        self.i += distinct
        items_at = self.i
        if self.written_order:
            self.scope = outer
            items = self.parse_items()
            self.expect("from")
        else:
            # The select list cannot hold FROM, so its end is the first one.
            try:
                self.i = tags.index("from", items_at) + 1
            except ValueError:
                raise self.error("expected FROM") from None
        bound: dict[str, tuple[str, Collection[str]]] = {}  # alias -> (name, columns)
        derived: list[DerivedTable] = []
        ons = self.parse_from(bound, derived)
        self.scope = (bound, *outer)

        join_pairs: set[JoinPair] = set()
        leftovers: list[object] = []
        resume = self.i
        for start, end in ons:
            self.i = start
            tree = self.parse_bool()
            if self.i != end:
                raise self.error(f"unexpected {self.values[self.i]!r} after an ON condition")
            parts = tree.children if isinstance(tree, BoolNode) and tree.op == "and" else (tree,)
            for part in parts:
                pair = _as_join_pair(part)
                if pair is not None:
                    join_pairs.add(pair)
                else:
                    leftovers.append(part)
        if not self.written_order:
            self.i = items_at
            items = self.parse_items()
            self.expect("from")
        self.i = resume

        where = None
        if tags[self.i] == "where":
            self.i += 1
            where = self.parse_bool()
        if leftovers:
            where = _bool("and", leftovers + ([where] if where is not None else []))
        group: list[ColumnRef] = []
        if tags[self.i] == "group":
            self.i += 1
            self.expect("by")
            group.append(self.parse_group_ref())
            while tags[self.i] == ",":
                self.i += 1
                group.append(self.parse_group_ref())
        having = None
        if tags[self.i] == "having":
            self.i += 1
            having = self.parse_bool()
        order: list[OrderItem] = []
        if tags[self.i] == "order":
            self.i += 1
            self.expect("by")
            order.append(self.parse_order_item())
            while tags[self.i] == ",":
                self.i += 1
                order.append(self.parse_order_item())
        limit = None
        if tags[self.i] == "limit":
            self.i += 1
            if tags[self.i] != "NUM" or not self.values[self.i].isdigit():
                raise self.error("LIMIT expects a non-negative integer")
            limit = int(self.take())
        self.scope = outer
        return QueryAst(
            select_distinct=distinct,
            select_items=items,
            from_order=tuple(name for name, _ in bound.values()),
            derived=tuple(derived),
            join_conditions=frozenset(join_pairs),
            where_tree=where,
            group_by=tuple(group),
            having_tree=having,
            order_by=tuple(order),
            limit=limit,
        )

    def parse_from(self, bound: dict, derived: list) -> list[tuple[int, int]]:
        """Bind the FROM entries; return the token range of each ON
        condition, to be parsed once every entry is bound."""
        tags = self.tags
        ons: list[tuple[int, int]] = []
        self.parse_source(bound, derived)
        while True:
            tag = tags[self.i]
            if tag == ",":
                self.i += 1
                self.parse_source(bound, derived)
                continue
            if tag == "inner":
                self.i += 1
                self.expect("join")
            elif tag == "join":
                self.i += 1
            else:
                break
            self.parse_source(bound, derived)
            if tags[self.i] == "on":
                self.i += 1
                if self.written_order:
                    self.parse_bool()  # for its syntax: the names are not reported
                else:
                    start = self.i
                    self.i = self.condition_end(start)
                    ons.append((start, self.i))
        return ons

    def parse_source(self, bound: dict, derived: list) -> None:
        if self.tags[self.i] == "(":
            self.i += 1
            # A derived table resolves in isolation: standard SQL gives a
            # FROM subquery no access to sibling or outer names.
            sub = self.parse_query(())
            self.expect(")")
            name = f"{DERIVED_PREFIX}{len(derived)}"
            derived.append(DerivedTable(name, sub))
            # once a name has failed, the columns no longer matter
            columns: Collection[str] = (
                _output_columns(sub, self.catalog) if self.held is None else ()
            )
        else:
            written = self.take_ident("table name")
            name = written.strip().lower()
            if self.catalog.has_table(name):
                columns = self.catalog.table(name).column_map
            else:
                self.hold(f"unknown table {written!r} in database {self.catalog.db_id!r}")
                columns = ()
        alias = (self.parse_alias() or name).strip().lower()
        if alias in bound:
            self.hold(f"duplicate table alias {alias!r}")
        bound[alias] = (name, columns)

    def parse_alias(self) -> str | None:
        tag = self.tags[self.i]
        if tag == "as":
            self.i += 1
            return self.take_ident("alias")
        if tag == "IDENT":
            word = self.values[self.i]
            if word.lower() in _JOIN_MODIFIERS and self.tags[self.i + 1] == "join":
                raise self.error(f"unsupported join type {word!r}")
            return self.take()
        return None

    def condition_end(self, i: int) -> int:
        """The index of the first tag of ``_CONDITION_ENDS`` at or after
        ``i`` outside parentheses: where a valid condition starting at
        ``i`` ends. Nested queries are skipped by matching parentheses,
        not parsed, so each is parsed once, when the condition is."""
        tags = self.tags
        while tags[i] not in _CONDITION_ENDS:
            if tags[i] == "(":
                i = self.closing(i)
            i += 1
        return i

    def closing(self, i: int) -> int:
        """The index of the ")" matching the "(" at ``i``; for one that is
        never closed, the index before END."""
        if self._closing is None:
            self._closing = {}
            open_at: list[int] = []
            for j, tag in enumerate(self.tags):
                if tag == "(":
                    open_at.append(j)
                elif tag == ")" and open_at:
                    self._closing[open_at.pop()] = j
            end = self.tags.index("END")
            for j in open_at:
                self._closing[j] = end - 1
        return self._closing[i]

    # -- names -------------------------------------------------------------

    def hold(self, message: str) -> None:
        if self.held is None:
            self.held = ResolutionError(message)

    def lookup(self, qualifier: str) -> tuple[str, Collection[str]]:
        alias = qualifier.strip().lower()
        for bound in self.scope:
            if alias in bound:
                return bound[alias]
        self.hold(f"unknown table or alias {qualifier!r}")
        return "", ()

    def column(self, qualifier: str | None, written: str) -> ColumnRef:
        """The column ``qualifier.written``, or unqualified the one FROM
        entry of the innermost scope that has it."""
        col = written.strip().lower()
        if qualifier is not None:
            name, columns = self.lookup(qualifier)
            if col not in columns:
                self.hold(f"no column {written!r} in {qualifier!r}")
            return ColumnRef(name, col)
        for bound in self.scope:
            found = None
            for name, columns in bound.values():
                if col in columns:
                    if found is not None:
                        self.hold(f"ambiguous column name {written!r}")
                        break
                    found = name
            if found is not None:
                return ColumnRef(found, col)
        self.hold(f"unresolvable column {written!r}")
        return ColumnRef("", col)

    # -- expressions -------------------------------------------------------

    def parse_items(self) -> tuple:
        items = [self.parse_select_item()]
        while self.tags[self.i] == ",":
            self.i += 1
            items.append(self.parse_select_item())
        return tuple(items)

    def parse_select_item(self):
        tags, i = self.tags, self.i
        if tags[i] == "*":
            self.i += 1
            return Star(None)
        if tags[i] == "IDENT" and tags[i + 1] == "." and tags[i + 2] == "*":
            qualifier = self.take()
            self.i += 2
            return Star(self.lookup(qualifier)[0])
        return self.parse_arith()

    def parse_arith(self):
        first = self.parse_term()
        tags = self.tags
        if tags[self.i] not in ("+", "-"):
            return first
        # a parenthesized first operand of the same class joins the run
        if first.__class__ is Arith and first.ops[0] in ("+", "-"):
            ops, operands = list(first.ops), list(first.operands)
        else:
            ops, operands = [], [first]
        while tags[self.i] in ("+", "-"):
            ops.append(self.take())
            operands.append(self.parse_term())
        return Arith(tuple(ops), tuple(operands))

    def parse_term(self):
        first = self.parse_atom()
        tags = self.tags
        if tags[self.i] not in ("*", "/"):
            return first
        if first.__class__ is Arith and first.ops[0] in ("*", "/"):
            ops, operands = list(first.ops), list(first.operands)
        else:
            ops, operands = [], [first]
        while tags[self.i] in ("*", "/"):
            ops.append(self.take())
            operands.append(self.parse_atom())
        return Arith(tuple(ops), tuple(operands))

    def parse_atom(self):
        tags = self.tags
        tag = tags[self.i]
        if tag == "NUM":
            return Literal.number(self.take())
        if tag == "STR":
            return Literal.string(self.take())
        if tag == "-" and tags[self.i + 1] == "NUM":
            self.i += 1
            return Literal.number("-" + self.take())
        if tag == "(":
            if tags[self.i + 1] == "select":
                raise self.error("subquery not allowed in this position")
            self.i += 1
            inner = self.parse_arith()
            self.expect(")")
            return inner
        if tag == "IDENT":
            name = self.take()
            tag = tags[self.i]
            if tag == "(" and name.lower() in AGGREGATES:
                self.i += 1
                distinct = tags[self.i] == "distinct"
                self.i += distinct
                if tags[self.i] == "*":
                    self.i += 1
                    arg: object = Star(None)
                else:
                    arg = self.parse_arith()
                self.expect(")")
                return Agg(name.lower(), distinct, arg)
            if tag == ".":
                self.i += 1
                return self.column(name, self.take_ident("column name"))
            return self.column(None, name)
        raise self.error(f"unexpected token {self.values[self.i]!r} in expression")

    def parse_group_ref(self) -> ColumnRef:
        expr = self.parse_atom()
        if not isinstance(expr, ColumnRef):
            raise self.error("GROUP BY supports plain column references only")
        return expr

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_arith()
        direction = "asc"
        if self.tags[self.i] in ("asc", "desc"):
            direction = self.take()
        return OrderItem(expr, direction)

    # -- conditions --------------------------------------------------------

    def parse_bool(self):
        parts = [self.parse_and_chain()]
        while self.tags[self.i] == "or":
            self.i += 1
            parts.append(self.parse_and_chain())
        return _bool("or", parts)

    def parse_and_chain(self):
        parts = [self.parse_cond_unit()]
        while self.tags[self.i] == "and":
            self.i += 1
            parts.append(self.parse_cond_unit())
        return _bool("and", parts)

    def parse_cond_unit(self):
        tags = self.tags
        if (
            tags[self.i] == "("
            and tags[self.i + 1] != "select"
            and tags[self.closing(self.i) + 1] not in _OPERAND_CONTINUES
        ):
            self.i += 1
            inner = self.parse_bool()
            self.expect(")")
            return inner
        return self.parse_predicate()

    def parse_predicate(self) -> Predicate:
        tags = self.tags
        if tags[self.i] == "exists":
            self.i += 1
            self.expect("(")
            sub = self.parse_query(self.scope)
            self.expect(")")
            return Predicate("exists", None, sub)
        lhs = self.parse_arith()
        tag = tags[self.i]
        if tag in COMPARE_OPS:
            self.i += 1
            return Predicate(tag, lhs, self.parse_value())
        negated = False
        if tag == "not":
            self.i += 1
            negated = True
            tag = tags[self.i]
        if tag == "like":
            self.i += 1
            op = "not like" if negated else "like"
            return Predicate(op, lhs, self.parse_value())
        if tag == "in":
            self.i += 1
            op = "not in" if negated else "in"
            return Predicate(op, lhs, self.parse_in_rhs())
        if tag == "between" and not negated:
            self.i += 1
            low = self.parse_value(scalar=True)
            self.expect("and")
            high = self.parse_value(scalar=True)
            return Predicate("between", lhs, (low, high))
        raise self.error(f"expected a comparison operator, found {self.values[self.i]!r}")

    def parse_value(self, scalar: bool = False):
        if self.tags[self.i] == "(" and self.tags[self.i + 1] == "select":
            if scalar:
                raise self.error("subquery not allowed as a BETWEEN bound")
            self.i += 1
            sub = self.parse_query(self.scope)
            self.expect(")")
            return sub
        return self.parse_arith()

    def parse_in_rhs(self):
        self.expect("(")
        if self.tags[self.i] == "select":
            sub = self.parse_query(self.scope)
            self.expect(")")
            return sub
        values = [self._in_literal()]
        while self.tags[self.i] == ",":
            self.i += 1
            values.append(self._in_literal())
        self.expect(")")
        return tuple(values)

    def _in_literal(self) -> Literal:
        value = self.parse_atom()
        if not isinstance(value, Literal):
            raise self.error("IN lists support literal values only")
        return value


def _bool(op: str, parts: list):
    """``parts`` joined by ``op``, a part that is an ``op`` node giving its
    children: every node is built here, so one level of merging keeps trees flat."""
    if len(parts) == 1:
        return parts[0]
    children: list = []
    for part in parts:
        if isinstance(part, BoolNode) and part.op == op:
            children.extend(part.children)
        else:
            children.append(part)
    return BoolNode(op, tuple(children))


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
    ambiguous and rejected, as SQLite rejects it. An ON condition may name
    any entry of its FROM clause, a later one included.

    Raises SqlParseError (with the position of the first offending token
    in written order) on lexical or syntax errors, and otherwise
    ResolutionError when an identifier does not exist in the catalog or is
    ambiguous; both are SqlError. A query nested too deeply for the
    recursive descent is a SqlParseError at position 0.
    """
    tags, values = scan(query)
    parser = _Parser(tags, values, catalog)
    try:
        try:
            ast = parser.parse_statement()
        except (_SyntaxError, RecursionError):
            # FROM first met this error; written order may meet another first
            _Parser(tags, values, catalog, written_order=True).parse_statement()
            raise
    except _SyntaxError as err:
        raise SqlParseError(err.message, token_start(query, err.at)) from None
    except RecursionError:
        raise SqlParseError("query nested too deeply", 0) from None
    if parser.held is not None:
        raise parser.held
    return ast
