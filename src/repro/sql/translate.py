"""SQL AST -> logical algebra translation.

Naming discipline: every FROM-clause binding ``b`` exposing column
``c`` contributes the internal attribute ``b_c`` (base tables via a
Rename over the physical columns; views and subqueries via a Rename
over their translated output).  WHERE conjuncts are pushed to the
deepest join that covers them, so comma-separated FROM lists become
predicate-bearing join trees the reordering machinery can work on.

Correlated scalar COUNT subqueries in WHERE are recognized and routed
through :mod:`repro.core.unnest` (the Ganski/Muralikrishna rewrite),
which is where the paper's join-aggregate motivation enters.
"""

from __future__ import annotations

from repro.errors import UserInputError

import itertools
from contextvars import ContextVar
from typing import Iterator

from repro.expr.nodes import (
    BaseRel,
    Expr,
    GroupBy,
    Join,
    JoinKind,
    Project,
    Rename,
    Select,
    SemiJoin,
)
from repro.expr.predicates import (
    Arith,
    Col,
    Comparison,
    Const,
    Predicate,
    Term,
    conjuncts_of,
    make_conjunction,
)
from repro.relalg.aggregates import AggregateFunction, AggregateSpec
from repro.sql.ast import (
    AggregateCall,
    AndExpr,
    ExistsExpr,
    InListExpr,
    IsNullExpr,
    ArithExpr,
    BooleanExpr,
    ColumnRef,
    ComparisonExpr,
    FromItem,
    JoinRef,
    Literal,
    Scalar,
    SelectItem,
    SelectStmt,
    SubqueryRef,
    SubquerySelect,
    TableRef,
    UnionStmt,
)
from repro.sql.catalog import SqlCatalog


class SqlTranslationError(UserInputError):
    """Raised when a statement cannot be translated."""


def _join(kind: JoinKind, left: Expr, right: Expr, predicate: Predicate) -> Join:
    """Join two translated FROM items, surfacing self-join misuse."""
    from repro.expr.nodes import ExprError

    try:
        return Join(kind, left, right, predicate)
    except ExprError as exc:
        raise SqlTranslationError(
            f"{exc}; the paper assumes relations occurring twice are "
            "renamed (footnote 5) -- materialize an aliased copy"
        ) from None


_JOIN_KINDS = {
    "inner": JoinKind.INNER,
    "left": JoinKind.LEFT,
    "right": JoinKind.RIGHT,
    "full": JoinKind.FULL,
}

_AGG_FUNCTIONS = {
    "count": AggregateFunction.COUNT,
    "sum": AggregateFunction.SUM,
    "min": AggregateFunction.MIN,
    "max": AggregateFunction.MAX,
    "avg": AggregateFunction.AVG,
}

#: Suffixes for generated names (GroupBy labels, unnamed aggregates).
#: The outermost :func:`translate` call owns a fresh counter, so the
#: same statement always translates to the same expression -- which is
#: what lets the plan cache recognize a repeated aggregate query.
_fresh: ContextVar[Iterator[int] | None] = ContextVar("_fresh", default=None)


class Scope:
    """Resolves column references to internal attribute names."""

    def __init__(self) -> None:
        self._by_binding: dict[str, dict[str, str]] = {}

    def bind(self, binding: str, columns: dict[str, str]) -> None:
        key = binding.lower()
        if key in self._by_binding:
            raise SqlTranslationError(f"duplicate FROM binding {binding!r}")
        self._by_binding[key] = {c.lower(): a for c, a in columns.items()}

    def resolve(self, ref: ColumnRef) -> str:
        if ref.table is not None:
            table = ref.table.lower()
            if table not in self._by_binding:
                raise SqlTranslationError(f"unknown qualifier {ref.table!r}")
            columns = self._by_binding[table]
            if ref.column.lower() not in columns:
                raise SqlTranslationError(
                    f"no column {ref.column!r} in {ref.table!r}"
                )
            return columns[ref.column.lower()]
        matches = sorted(
            {
                columns[ref.column.lower()]
                for columns in self._by_binding.values()
                if ref.column.lower() in columns
            }
        )
        if not matches:
            raise SqlTranslationError(f"unknown column {ref.column!r}")
        if len(matches) > 1:
            raise SqlTranslationError(f"ambiguous column {ref.column!r}")
        return matches[0]

    def bindings(self) -> tuple[str, ...]:
        return tuple(self._by_binding)

    def columns_of(self, binding: str) -> dict[str, str]:
        return dict(self._by_binding[binding.lower()])


class Translation:
    """Result of translating a SELECT: the tree plus its output columns.

    ``order_by`` is a presentation directive ((attribute, descending)
    pairs) and ``limit`` a row cap; relations are bags, so ordering is
    applied by the consumer (the CLI does), not by the algebra.
    """

    def __init__(
        self,
        expr: Expr,
        columns: list[tuple[str, str]],
        order_by: tuple[tuple[str, bool], ...] = (),
        limit: int | None = None,
    ) -> None:
        self.expr = expr
        self.columns = columns  # (exposed name, internal attribute)
        self.order_by = order_by
        self.limit = limit

    def exposed(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)


def translate(
    statement,
    catalog: SqlCatalog,
    _expanding: frozenset[str] = frozenset(),
) -> Translation:
    """Translate a SELECT or UNION ALL statement against ``catalog``.

    ``_expanding`` tracks the views currently being expanded so view
    cycles fail with a clear error instead of infinite recursion.
    Generated names are numbered per outermost call, so translating a
    statement twice gives equal expressions.
    """
    if _fresh.get() is None:
        token = _fresh.set(itertools.count())
        try:
            return translate(statement, catalog, _expanding)
        finally:
            _fresh.reset(token)
    if isinstance(statement, UnionStmt):
        return _translate_union(statement, catalog, _expanding)
    scope = Scope()
    trees: list[Expr] = []
    for item in statement.from_items:
        trees.append(_translate_from_item(item, catalog, scope, _expanding))
    tree = trees[0]
    for extra in trees[1:]:
        tree = _join(JoinKind.INNER, tree, extra, make_conjunction([]))

    where_atoms: list[Predicate] = []
    if statement.where is not None:
        nested = _extract_nested_counts(statement.where)
        if nested is not None:
            return _translate_nested(statement, catalog, scope, tree)
        plain_atoms = []
        for atom in _flatten_boolean(statement.where):
            if isinstance(atom, ExistsExpr):
                tree = _apply_exists(atom, tree, catalog, scope, _expanding)
            else:
                plain_atoms.append(atom)
        where_atoms = [_boolean_atom(atom, scope) for atom in plain_atoms]
        tree = _embed_where(tree, where_atoms)

    return _apply_select(statement, catalog, scope, tree)


def _apply_select(
    statement: SelectStmt, catalog: SqlCatalog, scope: Scope, tree: Expr
) -> Translation:
    aggregates = [
        item
        for item in statement.items
        if isinstance(item.expression, AggregateCall)
    ]
    if statement.group_by or aggregates:
        tree, columns = _translate_group_by(statement, scope, tree)
    else:
        columns = []
        attrs = []
        for item in statement.items:
            if item.expression == "*":
                for binding in scope.bindings():
                    for column, attr in scope.columns_of(binding).items():
                        columns.append((column, attr))
                        attrs.append(attr)
                continue
            if not isinstance(item.expression, ColumnRef):
                raise SqlTranslationError(
                    "non-aggregate SELECT items must be columns"
                )
            attr = scope.resolve(item.expression)
            columns.append((item.alias or item.expression.column, attr))
            attrs.append(attr)
        tree = Project(tree, tuple(dict.fromkeys(attrs)), distinct=statement.distinct)
    if statement.having is not None:
        having_scope = Scope()
        for binding in scope.bindings():
            having_scope.bind(binding, scope.columns_of(binding))
        # HAVING may reference the SELECT list's output names
        having_scope.bind("@out", {name: attr for name, attr in columns})
        having = make_conjunction(
            [
                _boolean_atom(a, having_scope)
                for a in _flatten_boolean(statement.having)
            ]
        )
        tree = Select(tree, having)
    order_by = []
    if statement.order_by:
        order_scope = Scope()
        for binding in scope.bindings():
            order_scope.bind(binding, scope.columns_of(binding))
        order_scope.bind("@out", {name: attr for name, attr in columns})
        seen_keys: set[str] = set()
        for ref, descending in statement.order_by:
            attr = order_scope.resolve(ref)
            if attr not in set(tree.real_attrs):
                raise SqlTranslationError(
                    f"ORDER BY column {ref} is not in the result"
                )
            if attr in seen_keys:
                # a repeated key cannot refine the order further; the
                # first occurrence (with its direction) wins
                continue
            seen_keys.add(attr)
            order_by.append((attr, descending))
    return Translation(tree, columns, tuple(order_by), statement.limit)


def _translate_union(
    statement: UnionStmt, catalog: SqlCatalog, _expanding: frozenset[str]
) -> Translation:
    """UNION ALL: align the right side's columns with the left's."""
    from repro.expr.nodes import UnionAll

    left = translate(statement.left, catalog, _expanding)
    right = translate(statement.right, catalog, _expanding)
    left_names = [name.lower() for name in left.exposed()]
    right_names = [name.lower() for name in right.exposed()]
    if left_names != right_names:
        raise SqlTranslationError(
            f"UNION ALL column lists differ: {left_names} vs {right_names}"
        )
    keep = tuple(dict.fromkeys(attr for _, attr in right.columns))
    narrowed = Project(right.expr, keep)
    mapping = tuple(
        (r_attr, l_attr)
        for (_, l_attr), (_, r_attr) in zip(left.columns, right.columns)
        if l_attr != r_attr
    )
    aligned = Rename(narrowed, mapping) if mapping else narrowed
    from repro.expr.nodes import ExprError

    try:
        union = UnionAll(left.expr, aligned)
    except ExprError as exc:
        raise SqlTranslationError(
            f"{exc}; rename one side's relations (footnote 5)"
        ) from None
    return Translation(union, left.columns)


def _apply_exists(
    atom: ExistsExpr,
    tree: Expr,
    catalog: SqlCatalog,
    outer_scope: Scope,
    _expanding: frozenset[str],
) -> Expr:
    """Turn ``[NOT] EXISTS (SELECT ... WHERE corr)`` into a semi/anti join.

    The subquery's FROM items translate normally (with their own
    bindings); its WHERE atoms may reference the outer scope -- those
    correlation atoms become the semi-join predicate, the rest embed
    inside the subquery tree.
    """
    sub = atom.query
    if sub.group_by or sub.having is not None:
        raise SqlTranslationError("EXISTS subqueries may not aggregate")
    sub_scope = Scope()
    sub_trees = [
        _translate_from_item(item, catalog, sub_scope, _expanding)
        for item in sub.from_items
    ]
    sub_tree = sub_trees[0]
    for extra in sub_trees[1:]:
        sub_tree = _join(JoinKind.INNER, sub_tree, extra, make_conjunction([]))

    correlation: list[Predicate] = []
    local: list[Predicate] = []
    if sub.where is not None:
        sub_attrs = set(sub_tree.all_attrs)
        for part in _flatten_boolean(sub.where):
            if isinstance(part, ExistsExpr):
                raise SqlTranslationError("nested EXISTS is not supported")
            resolved = _boolean_atom_two_scopes(part, sub_scope, outer_scope)
            if resolved.attrs <= sub_attrs:
                local.append(resolved)
            else:
                correlation.append(resolved)
    if local:
        sub_tree = _embed_where(sub_tree, local)
    if not correlation:
        raise SqlTranslationError(
            "EXISTS subquery must be correlated with the outer query"
        )
    return SemiJoin(tree, sub_tree, make_conjunction(correlation), atom.negated)


def _boolean_atom_two_scopes(atom, inner_scope: Scope, outer_scope: Scope) -> Predicate:
    """Resolve an atom against the subquery scope, then the outer one."""

    class _Chained:
        def resolve(self, ref):
            try:
                return inner_scope.resolve(ref)
            except SqlTranslationError:
                return outer_scope.resolve(ref)

        def bindings(self):
            return inner_scope.bindings() + outer_scope.bindings()

        def columns_of(self, binding):
            try:
                return inner_scope.columns_of(binding)
            except KeyError:
                return outer_scope.columns_of(binding)

    return _boolean_atom(atom, _Chained())


def _translate_from_item(
    item: FromItem,
    catalog: SqlCatalog,
    scope: Scope,
    _expanding: frozenset[str] = frozenset(),
) -> Expr:
    if isinstance(item, TableRef):
        if catalog.is_view(item.name):
            key = item.name.lower()
            if key in _expanding:
                raise SqlTranslationError(
                    f"view {item.name!r} is defined in terms of itself"
                )
            view_stmt = catalog.view_query(item.name)
            if view_stmt.order_by or view_stmt.limit is not None:
                raise SqlTranslationError(
                    f"view {item.name!r} may not carry ORDER BY / LIMIT"
                )
            view = translate(view_stmt, catalog, _expanding | {key})
            return _bind_translation(view, item.binding, scope)
        columns = catalog.table_columns(item.name)
        binding = item.binding
        mapping = {c: f"{binding}_{c}".lower() for c in columns}
        scope.bind(binding, mapping)
        base = BaseRel(item.name, tuple(columns))
        return Rename(base, tuple((c, mapping[c]) for c in columns))
    if isinstance(item, SubqueryRef):
        sub = translate(item.query, catalog, _expanding)
        return _bind_translation(sub, item.alias, scope)
    if isinstance(item, JoinRef):
        left = _translate_from_item(item.left, catalog, scope, _expanding)
        right = _translate_from_item(item.right, catalog, scope, _expanding)
        condition = make_conjunction(
            [_boolean_atom(a, scope) for a in _flatten_boolean(item.condition)]
        )
        return _join(_JOIN_KINDS[item.kind], left, right, condition)
    raise SqlTranslationError(f"unsupported FROM item {item!r}")


def _bind_translation(sub: Translation, binding: str, scope: Scope) -> Expr:
    mapping = {}
    renames = []
    seen = set()
    for exposed, attr in sub.columns:
        new_attr = f"{binding}_{exposed}".lower()
        if exposed.lower() in mapping:
            raise SqlTranslationError(
                f"duplicate output column {exposed!r} in {binding!r}"
            )
        mapping[exposed] = new_attr
        if attr not in seen:
            renames.append((attr, new_attr))
            seen.add(attr)
    scope.bind(binding, mapping)
    keep = tuple(dict.fromkeys(attr for _, attr in sub.columns))
    projected = Project(sub.expr, keep)
    return Rename(projected, tuple(renames))


def _flatten_boolean(expression: BooleanExpr) -> list[ComparisonExpr]:
    if isinstance(expression, AndExpr):
        out: list[ComparisonExpr] = []
        for part in expression.parts:
            out.extend(_flatten_boolean(part))
        return out
    return [expression]


def _boolean_atom(atom, scope: Scope) -> Predicate:
    from repro.expr.predicates import InList, IsNull

    if isinstance(atom, IsNullExpr):
        return IsNull(_scalar_term(atom.term, scope), atom.negated)
    if isinstance(atom, InListExpr):
        return InList(_scalar_term(atom.term, scope), atom.values)
    if isinstance(atom.right, SubquerySelect):
        raise SqlTranslationError(
            "scalar subqueries are only supported at the top of WHERE"
        )
    return Comparison(
        _scalar_term(atom.left, scope), atom.op, _scalar_term(atom.right, scope)
    )


def _scalar_term(scalar: Scalar, scope: Scope) -> Term:
    if isinstance(scalar, ColumnRef):
        return Col(scope.resolve(scalar))
    if isinstance(scalar, Literal):
        return Const(scalar.value)
    if isinstance(scalar, ArithExpr):
        return Arith(
            _scalar_term(scalar.left, scope),
            scalar.op,
            _scalar_term(scalar.right, scope),
        )
    raise SqlTranslationError(f"unsupported scalar {scalar!r} in predicate")


def _embed_where(tree: Expr, atoms: list[Predicate]) -> Expr:
    """Push WHERE conjuncts to the deepest covering join."""
    remaining = list(atoms)

    def visit(node: Expr) -> Expr:
        nonlocal remaining
        if isinstance(node, Join) and node.kind is JoinKind.INNER:
            left_attrs = set(node.left.all_attrs)
            right_attrs = set(node.right.all_attrs)
            mine: list[Predicate] = []
            rest: list[Predicate] = []
            for atom in remaining:
                refs = atom.attrs
                if not atom.null_intolerant:
                    # null-tolerant atoms (IS NULL) must stay above the
                    # join skeleton -- the reordering theory requires
                    # join predicates to be null in-tolerant
                    rest.append(atom)
                elif refs <= left_attrs or refs <= right_attrs:
                    rest.append(atom)
                elif refs <= left_attrs | right_attrs:
                    mine.append(atom)
                else:
                    rest.append(atom)
            remaining = rest
            left = visit(node.left)
            right = visit(node.right)
            predicate = make_conjunction(
                list(conjuncts_of(node.predicate)) + mine
            )
            return Join(node.kind, left, right, predicate)
        # below outer joins or leaves: attach what is fully covered here
        attrs = set(node.all_attrs)
        mine = [a for a in remaining if a.attrs <= attrs]
        if mine and not isinstance(node, Join):
            remaining = [a for a in remaining if a not in mine]
            return Select(node, make_conjunction(mine))
        return node

    out = visit(tree)
    if remaining:
        out = Select(out, make_conjunction(remaining))
    return out


def _translate_group_by(
    statement: SelectStmt, scope: Scope, tree: Expr
) -> tuple[Expr, list[tuple[str, str]]]:
    keys: list[str] = [scope.resolve(ref) for ref in statement.group_by]
    specs: list[AggregateSpec] = []
    columns: list[tuple[str, str]] = []
    for item in statement.items:
        if isinstance(item.expression, AggregateCall):
            call = item.expression
            output = item.alias or f"{call.function}_{next(_fresh.get())}"
            arg = None
            if call.argument is not None:
                arg = scope.resolve(call.argument)
            elif call.function != "count":
                raise SqlTranslationError(f"{call.function}(*) is not valid")
            specs.append(
                AggregateSpec(
                    output.lower(),
                    _AGG_FUNCTIONS[call.function],
                    arg,
                    distinct=call.distinct,
                )
            )
            columns.append((item.alias or str(call), output.lower()))
        elif isinstance(item.expression, ColumnRef):
            attr = scope.resolve(item.expression)
            if attr not in keys:
                raise SqlTranslationError(
                    f"column {item.expression} must appear in GROUP BY"
                )
            columns.append((item.alias or item.expression.column, attr))
        elif item.expression == "*":
            raise SqlTranslationError("SELECT * cannot be mixed with GROUP BY")
        else:
            raise SqlTranslationError(
                f"unsupported SELECT item {item.expression!r} under GROUP BY"
            )
    grouped = GroupBy(tree, tuple(keys), tuple(specs), f"q{next(_fresh.get())}")
    return grouped, columns


# ---- correlated COUNT subqueries (join-aggregate unnesting) ----


def _extract_nested_counts(where: BooleanExpr):
    """A ComparisonExpr against a scalar COUNT subquery, if present."""
    for atom in _flatten_boolean(where):
        if isinstance(atom, ComparisonExpr) and isinstance(
            atom.right, SubquerySelect
        ):
            return atom
    return None


def _translate_nested(
    statement: SelectStmt, catalog: SqlCatalog, scope: Scope, tree: Expr
) -> Translation:
    """Route a correlated-COUNT query through the unnesting machinery.

    Requires the pattern of the paper's Section 1.1: single table per
    level, ``col θ (SELECT COUNT(*) FROM t WHERE <conjunction>)`` and
    physical column names that are globally unique.
    """
    from repro.core.unnest import NestedCountQuery, unnest

    def level_of(stmt: SelectStmt, outer_scopes: list[Scope]) -> NestedCountQuery:
        if len(stmt.from_items) != 1 or not isinstance(stmt.from_items[0], TableRef):
            raise SqlTranslationError(
                "nested COUNT subqueries must have a single FROM table"
            )
        table = stmt.from_items[0]
        columns = catalog.table_columns(table.name)
        level_scope = Scope()
        level_scope.bind(table.binding, {c: c for c in columns})

        def resolve(ref: ColumnRef):
            for s in [level_scope] + outer_scopes:
                try:
                    return s.resolve(ref)
                except SqlTranslationError:
                    continue
            raise SqlTranslationError(f"cannot resolve {ref}")

        correlation_atoms: list[Predicate] = []
        sub_atom: ComparisonExpr | None = None
        if stmt.where is not None:
            for atom in _flatten_boolean(stmt.where):
                if isinstance(atom, ComparisonExpr) and isinstance(
                    atom.right, SubquerySelect
                ):
                    sub_atom = atom
                    continue
                if not isinstance(atom, ComparisonExpr):
                    raise SqlTranslationError(
                        "only comparisons are supported in nested COUNT levels"
                    )
                left = _resolve_term(atom.left, resolve)
                right = _resolve_term(atom.right, resolve)
                correlation_atoms.append(Comparison(left, atom.op, right))
        correlation = make_conjunction(correlation_atoms)
        base = BaseRel(table.name, tuple(columns))

        if sub_atom is None:
            return NestedCountQuery(base, correlation, "", "", None)
        if not isinstance(sub_atom.left, ColumnRef):
            raise SqlTranslationError("θ-comparison must start with a column")
        compare_attr = resolve(sub_atom.left)
        sub_level = level_of(sub_atom.right.query, [level_scope] + outer_scopes)
        return NestedCountQuery(
            base, correlation, compare_attr, sub_atom.op, sub_level
        )

    if len(statement.from_items) != 1 or not isinstance(
        statement.from_items[0], TableRef
    ):
        raise SqlTranslationError(
            "correlated COUNT queries must have a single FROM table"
        )
    top_table = statement.from_items[0]
    columns = catalog.table_columns(top_table.name)
    top_scope = Scope()
    top_scope.bind(top_table.binding, {c: c for c in columns})

    top_atom = _extract_nested_counts(statement.where)
    assert top_atom is not None
    other_atoms = [
        a
        for a in _flatten_boolean(statement.where)
        if not (
            isinstance(a, ComparisonExpr)
            and isinstance(a.right, SubquerySelect)
        )
    ]
    if other_atoms:
        raise SqlTranslationError(
            "extra WHERE conjuncts beside the COUNT comparison are not supported"
        )
    if not isinstance(top_atom.left, ColumnRef):
        raise SqlTranslationError("θ-comparison must start with a column")

    select_attrs = []
    columns_out = []
    for item in statement.items:
        if not isinstance(item.expression, ColumnRef):
            raise SqlTranslationError("nested COUNT queries select plain columns")
        attr = top_scope.resolve(item.expression)
        select_attrs.append(attr)
        columns_out.append((item.alias or item.expression.column, attr))

    base = BaseRel(top_table.name, tuple(columns))
    query = NestedCountQuery(
        base,
        None,
        top_scope.resolve(top_atom.left),
        top_atom.op,
        level_of(top_atom.right.query, [top_scope]),
        tuple(select_attrs),
    )
    return Translation(unnest(query), columns_out)


def _resolve_term(scalar: Scalar, resolve) -> Term:
    if isinstance(scalar, ColumnRef):
        return Col(resolve(scalar))
    if isinstance(scalar, Literal):
        return Const(scalar.value)
    if isinstance(scalar, ArithExpr):
        return Arith(
            _resolve_term(scalar.left, resolve),
            scalar.op,
            _resolve_term(scalar.right, resolve),
        )
    raise SqlTranslationError(f"unsupported scalar {scalar!r}")
