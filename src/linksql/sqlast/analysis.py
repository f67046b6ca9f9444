"""AST consumers: link-target extraction and the canonical form that exact
set match compares.
"""

from __future__ import annotations

from .nodes import (
    Agg,
    Arith,
    BoolNode,
    ColumnRef,
    LinkTarget,
    Literal,
    Predicate,
    QueryAst,
    Star,
)


# -- link-target extraction ------------------------------------------------


def extract_link_targets(ast: QueryAst) -> LinkTarget:
    """Ground-truth schema usage of a query: every catalog table and every
    column referenced anywhere, including subqueries and set-op branches.

    Derived-table names never appear; a column of a derived table is
    accounted for by the inner query's own references. Star projections
    contribute no columns.
    """
    tables: set[str] = set()
    columns: set[tuple[str, str]] = set()
    _collect_query(ast, tables, columns)
    return LinkTarget(frozenset(tables), frozenset(columns))


def _collect_query(q: QueryAst, tables: set, columns: set) -> None:
    tables.update(q.from_tables)
    for item in q.select_items:
        _collect_expr(item, tables, columns)
    for d in q.derived:
        _collect_query(d.query, tables, columns)
    for pair in q.join_conditions:
        _collect_expr(pair.left, tables, columns)
        _collect_expr(pair.right, tables, columns)
    for tree in (q.where_tree, q.having_tree):
        if tree is not None:
            _collect_tree(tree, tables, columns)
    for ref in q.group_by:
        _collect_expr(ref, tables, columns)
    for item in q.order_by:
        _collect_expr(item.expr, tables, columns)
    if q.set_op is not None:
        _collect_query(q.set_op.rhs, tables, columns)


def _collect_tree(tree, tables: set, columns: set) -> None:
    if isinstance(tree, BoolNode):
        for child in tree.children:
            _collect_tree(child, tables, columns)
        return
    pred: Predicate = tree
    if pred.lhs is not None:
        _collect_expr(pred.lhs, tables, columns)
    rhs = pred.rhs
    if isinstance(rhs, QueryAst):
        _collect_query(rhs, tables, columns)
    elif isinstance(rhs, tuple):
        for v in rhs:
            _collect_expr(v, tables, columns)
    else:
        _collect_expr(rhs, tables, columns)


def _collect_expr(expr, tables: set, columns: set) -> None:
    if isinstance(expr, ColumnRef):
        if not expr.is_derived:
            columns.add((expr.table, expr.column))
        return
    if isinstance(expr, Agg):
        _collect_expr(expr.arg, tables, columns)
        return
    if isinstance(expr, Arith):
        for operand in expr.operands:
            _collect_expr(operand, tables, columns)
        return
    # Star and Literal carry no column references.


# -- canonical form ---------------------------------------------------------


def exact_set_match(pred: QueryAst, gold: QueryAst, ignore_values: bool = False) -> bool:
    """Whether two queries are an exact set match: whether their canonical
    forms are equal.

    Commutative structure is order-free: select items, AND/OR conjuncts,
    derived tables, IN lists and UNION/INTERSECT operands become a bag, a
    tuple when a part has fewer than two items and otherwise a
    ``frozenset`` of (item, count) pairs, so duplicates still count. Join
    pairs, which cannot repeat, compare as the parser's set of them. FROM
    tables (one per FROM entry, so a self join keeps both) and group keys
    are sorted. ORDER BY and EXCEPT operands stay ordered. With
    ignore_values, literals compare as placeholders and IN value lists
    collapse, but LIMIT keeps its value.
    """
    return _canon_query(pred, ignore_values) == _canon_query(gold, ignore_values)


def _canon_query(q: QueryAst, iv: bool) -> tuple:
    core = (
        "query",
        (q.select_distinct, _bag([_canon_expr(it, iv) for it in q.select_items])),
        # a derived table's name is its position (#sq0, ...), fixed by the bag
        (tuple(sorted(q.from_order)), _bag([_canon_query(d.query, iv) for d in q.derived])),
        q.join_conditions,  # a set of unordered pairs already
        _canon_tree(q.where_tree, iv),
        tuple(sorted(("col", r.table, r.column) for r in q.group_by)),
        _canon_tree(q.having_tree, iv),
        tuple((_canon_expr(o.expr, iv), o.direction) for o in q.order_by),
        q.limit,
    )
    if q.set_op is None:
        return core
    op = q.set_op.op
    operands = [core, _canon_query(q.set_op.rhs, iv)]
    return ("compound", op, tuple(operands) if op == "except" else _bag(operands))


def _bag(items: list) -> tuple | frozenset:
    """The multiset of ``items`` in a hashable form that ignores order: the
    items themselves when there are fewer than two, else their counts."""
    if len(items) < 2:
        return tuple(items)
    counts: dict = {}
    for item in items:  # for two or three items, faster than a Counter
        counts[item] = counts.get(item, 0) + 1
    return frozenset(counts.items())


def _canon_expr(expr, iv: bool) -> tuple:
    if isinstance(expr, Star):
        return ("star", expr.table)
    if isinstance(expr, ColumnRef):
        return ("col", expr.table, expr.column)
    if isinstance(expr, Literal):
        return ("lit", "?", "?") if iv else ("lit", expr.kind, expr.text)
    if isinstance(expr, Agg):
        return ("agg", expr.func, expr.distinct, _canon_expr(expr.arg, iv))
    if isinstance(expr, Arith):
        return ("arith", expr.ops, tuple(_canon_expr(x, iv) for x in expr.operands))
    raise TypeError(f"unexpected expression node {expr!r}")


def _canon_tree(tree, iv: bool):
    if tree is None:
        return None
    if isinstance(tree, BoolNode):
        # trees are flat, so the children are all the conjuncts
        return (tree.op, _bag([_canon_tree(child, iv) for child in tree.children]))
    pred: Predicate = tree
    lhs = _canon_expr(pred.lhs, iv) if pred.lhs is not None else None
    rhs = pred.rhs
    if isinstance(rhs, QueryAst):
        rhs_c: object = ("subq", _canon_query(rhs, iv))
    elif isinstance(rhs, tuple) and pred.op == "between":
        rhs_c = ("range", _canon_expr(rhs[0], iv), _canon_expr(rhs[1], iv))
    elif isinstance(rhs, tuple):
        if iv:
            rhs_c = ("list", (("lit", "?", "?"),))
        else:
            rhs_c = ("list", _bag([_canon_expr(v, False) for v in rhs]))
    else:
        rhs_c = _canon_expr(rhs, iv)
    return ("pred", pred.op, lhs, rhs_c)
