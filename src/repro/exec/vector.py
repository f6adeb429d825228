"""The vector engine: batch-at-a-time execution over columnar data.

Third executor behind :class:`repro.runtime.QuerySession` (after the
reference interpreter and the hash engine).  The whole ``Expr`` tree
runs over :class:`repro.relalg.columnar.ColumnarRelation`:

* selections compile their predicate once and filter a selection
  vector (zero data movement; see ``repro.exec.vector_predicates``);
* hash joins build an int-keyed index over the build side's key
  *columns* and emit gather lists (left index, right index) instead of
  merging per-row dicts -- output columns are assembled with one list
  comprehension per attribute;
* grouped aggregation walks the key columns once and aggregates value
  slices per group;
* generalized selection (``σ*_p[r1,...,rn]``, Definition 2.1) is two
  linear passes: batch-evaluate the predicate, then set-difference the
  preserved parts' value tuples (gathered from real + virtual-id
  columns) against the survivors and append the null-padded remainder.

Results are bit-identical to the reference interpreter (the property
suite cross-checks all three engines on NULL-salted randomized
databases).  Budget ticks happen at batch boundaries -- once per
operator result, same cadence as the row engines.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import groupby, repeat
from typing import Sequence

from repro.exec.hash_join import split_equi_conjuncts
from repro.expr.evaluate import Database
from repro.expr.nodes import (
    AdjustPadding,
    BaseRel,
    Expr,
    ExprError,
    GenSelect,
    GroupBy,
    Join,
    JoinKind,
    Project,
    Rename,
    Select,
    SemiJoin,
    Sort,
    UnionAll,
)
from repro.expr.orderprops import (
    order_satisfies,
    provided_order,
    streaming_run_prefix,
)
from repro.expr.predicates import Predicate, TRUE
from repro.exec.vector_predicates import compile_predicate
from repro.relalg.columnar import (
    ColumnarRelation,
    ColumnarResult,
    concat_columns,
)
from repro.runtime.faults import fault_point
from repro.runtime.feedback import monitor_lookup, monitor_record
from repro.runtime.metrics import record_engine_counter
from repro.runtime.tracing import add_counter, span, trace_op
from repro.relalg.nulls import NULL
from repro.relalg.ordering import value_key
from repro.relalg.schema import Schema

#: Left-block size for the non-equi (nested loop) fallback: bounds the
#: size of the materialized candidate index arrays to block x |right|.
_NESTED_LOOP_BLOCK = 1024


def execute(expr: Expr, db: Database, budget=None) -> ColumnarResult:
    """Execute ``expr`` against ``db`` batch-at-a-time.

    Returns a :class:`repro.relalg.columnar.ColumnarResult`: a
    :class:`Relation` (the engines' common output currency) that keeps
    the compacted result columns and builds its rows only on first
    read, so an answer that only crosses a pipe or feeds another
    columnar consumer never becomes rows.  All intermediate results
    stay columnar.  ``budget`` (a :class:`repro.runtime.Budget`) is
    ticked once per operator batch, mirroring the row engines'
    per-operator checkpoints.
    """
    return ColumnarResult(_execute(expr, db, budget))


def _tick(budget, out: ColumnarRelation, where: str) -> ColumnarRelation:
    fault_point("vector", op=where.partition(":")[2])
    add_counter("batches")
    if budget is not None:
        budget.tick(rows=len(out), where=where)
    return out


def _restrict(
    relation: ColumnarRelation, needed: frozenset[str] | None
) -> ColumnarRelation:
    """Drop columns not in ``needed`` (zero-copy; ``None`` keeps all)."""
    if needed is None:
        return relation
    real = tuple(a for a in relation.real.attrs if a in needed)
    virtual = tuple(a for a in relation.virtual.attrs if a in needed)
    if len(real) == len(relation.real) and len(virtual) == len(relation.virtual):
        return relation
    return relation.with_schema(real, virtual)


def _execute(
    expr: Expr,
    db: Database,
    budget=None,
    needed: frozenset[str] | None = None,
) -> ColumnarRelation:
    """Tracing wrapper: one ``vector.<op>`` span per operator batch."""
    cached = monitor_lookup(expr, needed)
    if cached is not None:
        # adaptive resume: this (subtree, needed) pair was already
        # materialized before a re-plan; no recomputation, no re-tick
        return cached
    with trace_op("vector", expr):
        out = _execute_node(expr, db, budget, needed)
        add_counter("rows_out", len(out))
    monitor_record(expr, len(out), out, needed)
    return out


def _execute_node(
    expr: Expr,
    db: Database,
    budget=None,
    needed: frozenset[str] | None = None,
) -> ColumnarRelation:
    """Evaluate ``expr``, producing only the columns in ``needed``.

    ``needed`` flows top-down (late materialization): each operator
    asks its children only for the attributes its own output and
    predicates touch, so joins never assemble -- and scans never
    surface -- columns nobody above will read.  ``None`` means the
    full schema (the root call, and generalized selection, whose
    set-difference compensation is defined over whole rows).
    """
    if isinstance(expr, BaseRel):
        relation = db[expr.name]
        if set(relation.real) != set(expr.attrs):
            raise ExprError(
                f"base relation {expr.name!r} has attrs {sorted(relation.real)}, "
                f"expression expects {sorted(expr.attrs)}"
            )
        out = _restrict(ColumnarRelation.from_relation(relation), needed)
        return _tick(budget, out, "vector:scan")
    if isinstance(expr, Select):
        child_needed = None if needed is None else needed | expr.predicate.attrs
        child = _execute(expr.child, db, budget, child_needed)
        sel = compile_predicate(expr.predicate)(
            child.physical_columns(), child.physical_indices()
        )
        return _tick(budget, _restrict(child.view(sel), needed), "vector:select")
    if isinstance(expr, Project):
        if not expr.distinct:
            child = _execute(expr.child, db, budget, needed)
            real = tuple(
                a for a in expr.attrs if needed is None or a in needed
            )
            return _tick(
                budget,
                child.with_schema(Schema(real), child.virtual),
                "vector:project",
            )
        # DISTINCT keys on every projected attribute -- the child must
        # produce them all even when the parent reads fewer
        child = _execute(expr.child, db, budget, frozenset(expr.attrs))
        out = _restrict(_distinct_project(child, expr.attrs), needed)
        return _tick(budget, out, "vector:distinct")
    if isinstance(expr, Sort):
        key_attrs = frozenset(a for a, _ in expr.keys)
        child_needed = None if needed is None else needed | key_attrs
        child = _execute(expr.child, db, budget, child_needed)
        with span("sort.enforce", engine="vector"):
            fault_point("sort", op="enforce")
            from repro.relalg.ordering import tiebreak_keys

            out = _sort(child, tiebreak_keys(expr.keys, child.real.attrs))
        record_engine_counter("repro_sort_rows_total", len(out))
        return _tick(budget, _restrict(out, needed), "vector:sort")
    if isinstance(expr, Join):
        wanted = None
        if needed is not None:
            wanted = needed | expr.predicate.attrs
        left = _execute(
            expr.left, db, budget,
            None if wanted is None else wanted & expr.left.attr_set,
        ).compact()
        right = _execute(
            expr.right, db, budget,
            None if wanted is None else wanted & expr.right.attr_set,
        ).compact()
        out = _join(
            left, right, expr.predicate, expr.kind,
            merge_keys=_merge_key_order(expr),
        )
        return _tick(budget, _restrict(out, needed), "vector:join")
    if isinstance(expr, UnionAll):
        left = _execute(
            expr.left, db, budget,
            None if needed is None else needed & expr.left.attr_set,
        )
        right = _execute(
            expr.right, db, budget,
            None if needed is None else needed & expr.right.attr_set,
        )
        return _tick(budget, _outer_union(left, right), "vector:union")
    if isinstance(expr, SemiJoin):
        pred_attrs = expr.predicate.attrs
        left_needed = None
        if needed is not None:
            left_needed = (needed | pred_attrs) & expr.left.attr_set
        left = _execute(expr.left, db, budget, left_needed).compact()
        # the right side only ever feeds the predicate
        right = _execute(
            expr.right, db, budget, pred_attrs & expr.right.attr_set
        ).compact()
        out = _semi_join(left, right, expr.predicate, expr.anti)
        return _tick(budget, _restrict(out, needed), "vector:semijoin")
    if isinstance(expr, GroupBy):
        # child attrs beyond keys and aggregate arguments never
        # surface in the output
        child_needed = frozenset(expr.group_by) | frozenset(
            spec.arg for spec in expr.aggregates if spec.arg is not None
        )
        child = _execute(expr.child, db, budget, child_needed).compact()
        run = streaming_run_prefix(provided_order(expr.child), expr.group_by)
        if run:
            with span("groupby.stream", engine="vector", run=",".join(run)):
                fault_point("groupby", op="stream")
                out = _group_by_sorted(
                    child, expr.group_by, expr.aggregates, expr.name, run
                )
            record_engine_counter("repro_streaming_groupby_total")
        else:
            out = _group_by(child, expr.group_by, expr.aggregates, expr.name)
        return _tick(budget, _restrict(out, needed), "vector:groupby")
    if isinstance(expr, GenSelect):
        child = _execute(expr.child, db, budget).compact()
        run = _gs_run_prefix(expr)
        if run:
            with span("groupby.stream", engine="vector", run=",".join(run)):
                fault_point("groupby", op="stream")
                out = _generalized_selection_sorted(child, expr, run)
            record_engine_counter("repro_streaming_groupby_total")
        else:
            out = _generalized_selection(child, expr)
        return _tick(budget, _restrict(out, needed), "vector:genselect")
    if isinstance(expr, Rename):
        mapping = dict(expr.mapping)
        child_needed = None
        if needed is not None:
            child_needed = frozenset(
                a
                for a in expr.child.attr_set
                if mapping.get(a, a) in needed
            )
        child = _execute(expr.child, db, budget, child_needed)
        present = {
            old: new for old, new in mapping.items() if old in child.real
        }
        return _tick(budget, child.renamed(present), "vector:rename")
    if isinstance(expr, AdjustPadding):
        child_needed = None if needed is None else needed | {expr.witness}
        child = _execute(expr.child, db, budget, child_needed).compact()
        out = _adjust_padding(child, expr.witness, expr.targets)
        return _tick(budget, _restrict(out, needed), "vector:adjust")
    raise ExprError(f"cannot execute node of type {type(expr).__name__}")


# ---- projection ------------------------------------------------------


def _distinct_project(child: ColumnarRelation, attrs: Sequence[str]) -> ColumnarRelation:
    """SELECT DISTINCT: first-occurrence view over the kept columns."""
    cols = [child.gather(a) for a in attrs]
    indices = child.physical_indices()
    seen: set = set()
    seen_add = seen.add
    keep: list[int] = []
    if len(cols) == 1:
        for pos, v in enumerate(cols[0]):
            if v not in seen:
                seen_add(v)
                keep.append(indices[pos])
    else:
        for pos, key in enumerate(zip(*cols)):
            if key not in seen:
                seen_add(key)
                keep.append(indices[pos])
    return child.view(keep).with_schema(Schema(attrs), Schema(()))


# ---- ordering --------------------------------------------------------


def _sort(child: ColumnarRelation, keys) -> ColumnarRelation:
    """Argsort on the gathered key columns; rows move as a view.

    Uses the shared ordering convention (:mod:`repro.relalg.ordering`),
    so the vector Sort places NULLs exactly where the row engines do.
    """
    from repro.relalg.ordering import row_key

    cols = [child.gather(a) for a, _ in keys]
    positions = [(idx, desc) for idx, (_, desc) in enumerate(keys)]
    rows = list(zip(*cols))
    order = sorted(
        range(len(rows)), key=lambda p: row_key(rows[p], positions)
    )
    indices = child.physical_indices()
    return child.view([indices[p] for p in order])


_NULL_RANK = value_key(None)[0]


def _key_has_null(key: tuple) -> bool:
    return any(part[0] == _NULL_RANK for part in key)


def _merge_key_order(expr: Join):
    """Equi-keys ordered so both inputs arrive sorted on them, or None.

    The merge path applies when every equi-conjunct's attributes lead
    both children's provided orders, ascending, in a consistent
    sequence -- i.e. the optimizer (or the query itself) already paid
    for sorts covering the join keys.
    """
    keys, _residual = split_equi_conjuncts(
        expr.predicate,
        frozenset(expr.left.attr_set),
        frozenset(expr.right.attr_set),
    )
    if not keys:
        return None
    left_order = provided_order(expr.left)
    pos = {attr: i for i, (attr, desc) in enumerate(left_order) if not desc}
    if any(lk not in pos for lk, _ in keys):
        return None
    ordered = tuple(sorted(keys, key=lambda kv: pos[kv[0]]))
    req_left = tuple((lk, False) for lk, _ in ordered)
    req_right = tuple((rk, False) for _, rk in ordered)
    if not order_satisfies(left_order, req_left):
        return None
    if not order_satisfies(provided_order(expr.right), req_right):
        return None
    return ordered


def _merge_pairs(
    lcols: dict[str, list],
    rcols: dict[str, list],
    keys: Sequence[tuple[str, str]],
) -> tuple[list[int], list[int]]:
    """Run-merging join over key-sorted inputs (two pointers, no table).

    Emits the same (left-major, right-ascending-within-run) pair order
    as :func:`_hash_pairs` on the same inputs.  NULL-bearing keys never
    match and are skipped in place -- they sit in sorted position but
    form runs of their own.
    """
    lk = [tuple(map(value_key, t)) for t in zip(*(lcols[k] for k, _ in keys))]
    rk = [tuple(map(value_key, t)) for t in zip(*(rcols[k] for _, k in keys))]
    li: list[int] = []
    ri: list[int] = []
    li_extend, ri_extend = li.extend, ri.extend
    i, j = 0, 0
    nleft, nright = len(lk), len(rk)
    while i < nleft and j < nright:
        ki = lk[i]
        if _key_has_null(ki):
            i += 1
            continue
        kj = rk[j]
        if _key_has_null(kj):
            j += 1
            continue
        if ki < kj:
            i += 1
        elif kj < ki:
            j += 1
        else:
            i2 = i + 1
            while i2 < nleft and lk[i2] == ki:
                i2 += 1
            j2 = j + 1
            while j2 < nright and rk[j2] == kj:
                j2 += 1
            run_r = list(range(j, j2))
            for a in range(i, i2):
                li_extend(repeat(a, len(run_r)))
                ri_extend(run_r)
            i, j = i2, j2
    return li, ri


# ---- joins -----------------------------------------------------------


def _gathered(relation: ColumnarRelation) -> dict[str, list]:
    """Visible-aligned columns (compact relations return the backing)."""
    return {a: relation.gather(a) for a in relation.all_attrs}


def _join(
    left: ColumnarRelation,
    right: ColumnarRelation,
    predicate: Predicate,
    kind: JoinKind,
    merge_keys: Sequence[tuple[str, str]] | None = None,
) -> ColumnarRelation:
    real = left.real.concat(right.real)
    virtual = left.virtual.concat(right.virtual)
    lcols = _gathered(left)
    rcols = _gathered(right)
    nleft, nright = len(left), len(right)

    if predicate is TRUE and kind is JoinKind.INNER:
        li = [i for i in range(nleft) for _ in range(nright)]
        ri = list(range(nright)) * nleft
        return _assemble_join(real, virtual, left, right, lcols, rcols, li, ri, kind=None)

    keys, residual = split_equi_conjuncts(
        predicate,
        frozenset(left.all_attrs),
        frozenset(right.all_attrs),
    )
    if not keys:
        li, ri = _nested_loop_pairs(lcols, rcols, nleft, nright, predicate)
    else:
        if merge_keys is not None and set(merge_keys) == set(keys):
            with span("merge.join", engine="vector"):
                fault_point("merge", op="join")
                li, ri = _merge_pairs(lcols, rcols, merge_keys)
        else:
            li, ri = _hash_pairs(lcols, rcols, nleft, keys)
        if residual is not TRUE and li:
            li, ri = _filter_pairs(lcols, rcols, li, ri, residual)
    return _assemble_join(
        real, virtual, left, right, lcols, rcols, li, ri, kind=kind,
        nleft=nleft, nright=nright,
    )


def _hash_pairs(
    lcols: dict[str, list],
    rcols: dict[str, list],
    nleft: int,
    keys: Sequence[tuple[str, str]],
) -> tuple[list[int], list[int]]:
    """Build/probe an int-keyed index over the key columns."""
    li: list[int] = []
    ri: list[int] = []
    li_append, ri_append = li.append, ri.append
    li_extend, ri_extend = li.extend, ri.extend
    if len(keys) == 1:
        lkey, rkey = keys[0]
        build = rcols[rkey]
        table: dict = defaultdict(list)
        for j, v in enumerate(build):
            table[v].append(j)
        # NULL keys never match (SQL semantics): drop the whole NULL
        # bucket at once instead of testing every build value.
        table.pop(NULL, None)
        table.default_factory = None
        table_get = table.get
        # A NULL probe just misses the table -- no per-value null
        # check; map() keeps the lookup loop at C speed and repeat()
        # spares a temporary list per hit.
        for i, bucket in enumerate(map(table_get, lcols[lkey])):
            if bucket is not None:
                ri_extend(bucket)
                li_extend(repeat(i, len(bucket)))
        return li, ri
    left_cols = [lcols[k] for k, _ in keys]
    right_cols = [rcols[k] for _, k in keys]
    table = {}
    table_get = table.get
    for j, key in enumerate(zip(*right_cols)):
        if NULL not in key:
            bucket = table_get(key)
            if bucket is None:
                table[key] = [j]
            else:
                bucket.append(j)
    for i, key in enumerate(zip(*left_cols)):
        if NULL not in key:
            bucket = table_get(key)
            if bucket is not None:
                ri_extend(bucket)
                li_extend(repeat(i, len(bucket)))
    return li, ri


def _filter_pairs(
    lcols: dict[str, list],
    rcols: dict[str, list],
    li: list[int],
    ri: list[int],
    predicate: Predicate,
) -> tuple[list[int], list[int]]:
    """Residual-filter candidate pairs: gather only referenced attrs."""
    pair_cols: dict[str, list] = {}
    for attr in predicate.attrs:
        if attr in lcols:
            col = lcols[attr]
            pair_cols[attr] = [col[i] for i in li]
        else:
            col = rcols[attr]
            pair_cols[attr] = [col[j] for j in ri]
    surviving = compile_predicate(predicate)(pair_cols, range(len(li)))
    return [li[p] for p in surviving], [ri[p] for p in surviving]


def _nested_loop_pairs(
    lcols: dict[str, list],
    rcols: dict[str, list],
    nleft: int,
    nright: int,
    predicate: Predicate,
) -> tuple[list[int], list[int]]:
    """General fallback: blocked cross pairs, batch-filtered."""
    li: list[int] = []
    ri: list[int] = []
    if nleft == 0 or nright == 0:
        return li, ri
    pred = compile_predicate(predicate)
    right_range = list(range(nright))
    for start in range(0, nleft, _NESTED_LOOP_BLOCK):
        block = range(start, min(start + _NESTED_LOOP_BLOCK, nleft))
        cand_li = [i for i in block for _ in right_range]
        cand_ri = right_range * len(block)
        pair_cols: dict[str, list] = {}
        for attr in predicate.attrs:
            if attr in lcols:
                col = lcols[attr]
                pair_cols[attr] = [col[i] for i in cand_li]
            else:
                col = rcols[attr]
                pair_cols[attr] = [col[j] for j in cand_ri]
        surviving = pred(pair_cols, range(len(cand_li)))
        li.extend(cand_li[p] for p in surviving)
        ri.extend(cand_ri[p] for p in surviving)
    return li, ri


def _assemble_join(
    real: Schema,
    virtual: Schema,
    left: ColumnarRelation,
    right: ColumnarRelation,
    lcols: dict[str, list],
    rcols: dict[str, list],
    li: list[int],
    ri: list[int],
    kind: JoinKind | None,
    nleft: int = 0,
    nright: int = 0,
) -> ColumnarRelation:
    """Materialize output columns from gather lists plus outer padding."""
    pad_left: list[int] = []
    pad_right: list[int] = []
    if kind is not None and kind.is_outer:
        if kind.preserves_left:
            matched = bytearray(nleft)
            for i in li:
                matched[i] = 1
            pad_left = [i for i in range(nleft) if not matched[i]]
        if kind.preserves_right:
            matched = bytearray(nright)
            for j in ri:
                matched[j] = 1
            pad_right = [j for j in range(nright) if not matched[j]]

    n_pad_left, n_pad_right = len(pad_left), len(pad_right)
    columns: dict[str, list] = {}
    for attr in left.all_attrs:
        col = lcols[attr]
        out = list(map(col.__getitem__, li))
        if n_pad_left:
            out.extend(map(col.__getitem__, pad_left))
        if n_pad_right:
            out.extend([NULL] * n_pad_right)
        columns[attr] = out
    for attr in right.all_attrs:
        col = rcols[attr]
        out = list(map(col.__getitem__, ri))
        if n_pad_left:
            out.extend([NULL] * n_pad_left)
        if n_pad_right:
            out.extend(map(col.__getitem__, pad_right))
        columns[attr] = out
    nrows = len(li) + n_pad_left + n_pad_right
    return ColumnarRelation(real, virtual, columns, nrows)


def _semi_join(
    left: ColumnarRelation,
    right: ColumnarRelation,
    predicate: Predicate,
    anti: bool,
) -> ColumnarRelation:
    lcols = _gathered(left)
    rcols = _gathered(right)
    nleft, nright = len(left), len(right)
    keys, residual = split_equi_conjuncts(
        predicate,
        frozenset(left.all_attrs),
        frozenset(right.all_attrs),
    )
    if keys:
        li, ri = _hash_pairs(lcols, rcols, nleft, keys)
        if residual is not TRUE and li:
            li, ri = _filter_pairs(lcols, rcols, li, ri, residual)
    else:
        li, ri = _nested_loop_pairs(lcols, rcols, nleft, nright, predicate)
    matched = bytearray(nleft)
    for i in li:
        matched[i] = 1
    indices = left.physical_indices()
    want = 0 if anti else 1
    keep = [indices[pos] for pos in range(nleft) if matched[pos] == want]
    return left.view(keep)


# ---- union -----------------------------------------------------------


def _outer_union(left: ColumnarRelation, right: ColumnarRelation) -> ColumnarRelation:
    real = left.real.union(right.real)
    virtual = left.virtual.union(right.virtual)
    attrs = real.attrs + virtual.attrs
    columns = concat_columns([_gathered(left), _gathered(right)], attrs)
    return ColumnarRelation(real, virtual, columns, len(left) + len(right))


# ---- grouping --------------------------------------------------------


def _group_by(
    child: ColumnarRelation,
    group_by: Sequence[str],
    aggregates,
    name: str,
) -> ColumnarRelation:
    n = len(child)
    real_keys = [a for a in group_by if a in child.real]
    virtual_keys = [a for a in group_by if a in child.virtual]
    out_real = Schema(real_keys + [spec.output for spec in aggregates])
    vid = f"#{name}"
    out_virtual = Schema(virtual_keys + [vid])

    # dicts preserve insertion order, so ``groups`` doubles as the
    # first-occurrence group order the row engine produces
    key_cols = [child.gather(a) for a in group_by]
    if key_cols and all(spec.arg is None for spec in aggregates):
        # COUNT(*)-only grouping never touches member rows: unique
        # keys (dict.fromkeys) and group sizes (Counter) both come
        # from C-level single passes over the key column(s).
        keyed = key_cols[0] if len(key_cols) == 1 else list(zip(*key_cols))
        counts = Counter(keyed)
        uniques = list(dict.fromkeys(keyed))
        columns = {}
        if len(key_cols) == 1:
            columns[group_by[0]] = uniques
        else:
            for pos, attr in enumerate(group_by):
                columns[attr] = [key[pos] for key in uniques]
        for spec in aggregates:
            columns[spec.output] = list(map(counts.__getitem__, uniques))
        columns[vid] = [(name, i) for i in range(len(uniques))]
        return ColumnarRelation(out_real, out_virtual, columns, len(uniques))
    groups: dict = {}
    if len(key_cols) == 1:
        col = key_cols[0]
        groups_get = groups.get
        for i in range(n):
            k = (col[i],)
            members = groups_get(k)
            if members is None:
                groups[k] = members = []
            members.append(i)
    elif key_cols:
        groups_get = groups.get
        for i, k in enumerate(zip(*key_cols)):
            members = groups_get(k)
            if members is None:
                groups[k] = members = []
            members.append(i)
    else:
        if n:
            groups[()] = list(range(n))

    if not group_by and not groups:
        # SQL: a global aggregate over an empty input yields one row
        groups[()] = []

    columns: dict[str, list] = {}
    for pos, attr in enumerate(group_by):
        columns[attr] = [key[pos] for key in groups]
    for spec in aggregates:
        if spec.arg is None:
            columns[spec.output] = [len(members) for members in groups.values()]
        else:
            col = child.gather(spec.arg)
            columns[spec.output] = [
                spec.compute([col[i] for i in members])
                for members in groups.values()
            ]
    columns[vid] = [(name, i) for i in range(len(groups))]
    return ColumnarRelation(out_real, out_virtual, columns, len(groups))


def _run_boundaries(
    run_cols: Sequence[list], n: int
) -> list[tuple[int, int]]:
    """``[start, end)`` index ranges of maximal equal-key runs.

    ``itertools.groupby`` keeps the scan at C speed (one Python-level
    iteration per *run*, not per row); a per-row tuple-building loop
    here costs more than the whole hash aggregation it is meant to
    beat.
    """
    if n == 0:
        return []
    it = run_cols[0] if len(run_cols) == 1 else zip(*run_cols)
    bounds: list[tuple[int, int]] = []
    start = 0
    for _key, group in groupby(it):
        length = len(list(group))
        bounds.append((start, start + length))
        start += length
    return bounds


def _group_by_sorted(
    child: ColumnarRelation,
    group_by: Sequence[str],
    aggregates,
    name: str,
    run_attrs: Sequence[str],
) -> ColumnarRelation:
    """Streaming grouped aggregation over ``run_attrs``-clustered input.

    When the runs cover *all* group keys, every run is one group and
    the pass is pure boundary detection plus aggregate computation
    over column slices -- no per-row dict at all.  With a partial
    prefix, a per-run dict (bounded by the run, not the input) handles
    the remaining keys.  Output rows, order and virtual ids match
    :func:`_group_by` exactly (groups are confined to runs, and runs
    arrive in input order, so per-run first-occurrence order *is* the
    global first-occurrence order).
    """
    n = len(child)
    real_keys = [a for a in group_by if a in child.real]
    virtual_keys = [a for a in group_by if a in child.virtual]
    out_real = Schema(real_keys + [spec.output for spec in aggregates])
    vid = f"#{name}"
    out_virtual = Schema(virtual_keys + [vid])

    key_cols = [child.gather(a) for a in group_by]
    run_cols = [child.gather(a) for a in run_attrs]
    arg_cols = {
        spec.arg: child.gather(spec.arg)
        for spec in aggregates
        if spec.arg is not None
    }
    columns: dict[str, list] = {a: [] for a in group_by}
    agg_out: dict[str, list] = {spec.output: [] for spec in aggregates}
    bounds = _run_boundaries(run_cols, n)

    if set(run_attrs) == set(group_by):
        # one run == one group: boundary scan + slice aggregates
        for start, end in bounds:
            for attr, col in zip(group_by, key_cols):
                columns[attr].append(col[start])
            for spec in aggregates:
                if spec.arg is None:
                    agg_out[spec.output].append(end - start)
                else:
                    agg_out[spec.output].append(
                        spec.compute(arg_cols[spec.arg][start:end])
                    )
    else:
        for start, end in bounds:
            groups: dict = {}
            groups_get = groups.get
            for i in range(start, end):
                k = tuple(col[i] for col in key_cols)
                members = groups_get(k)
                if members is None:
                    groups[k] = members = []
                members.append(i)
            for k, members in groups.items():
                for pos, attr in enumerate(group_by):
                    columns[attr].append(k[pos])
                for spec in aggregates:
                    if spec.arg is None:
                        agg_out[spec.output].append(len(members))
                    else:
                        col = arg_cols[spec.arg]
                        agg_out[spec.output].append(
                            spec.compute([col[i] for i in members])
                        )

    ngroups = len(columns[group_by[0]])
    out_columns = {**columns, **agg_out}
    out_columns[vid] = [(name, i) for i in range(ngroups)]
    return ColumnarRelation(out_real, out_virtual, out_columns, ngroups)


# ---- generalized selection (Definition 2.1) --------------------------


def _gs_run_prefix(expr: GenSelect) -> tuple[str, ...]:
    """Run keys for streaming σ*: the child-order prefix inside the
    intersection of the preserved specs' attribute sets (every part
    must be confined to one run)."""
    if not expr.preserved:
        return ()
    allowed = None
    for pres in expr.preserved:
        attrs = frozenset(pres.real) | frozenset(pres.virtual)
        allowed = attrs if allowed is None else (allowed & attrs)
    return streaming_run_prefix(provided_order(expr.child), allowed)


def _generalized_selection_sorted(
    child: ColumnarRelation, expr: GenSelect, run_attrs: Sequence[str]
) -> ColumnarRelation:
    """Per-run σ* over ``run_attrs``-clustered input.

    Same bag as :func:`_generalized_selection`; state (survivor and
    emitted part sets) is bounded by one run.  Pad rows surface at
    their run's boundary rather than all at the end -- σ* promises no
    order, and verification is bag-based.
    """
    n = len(child)
    columns = child.physical_columns()  # compact: physical == visible
    pred = compile_predicate(expr.predicate)
    target = child.all_attrs
    run_cols = [columns[a] for a in run_attrs]
    out_columns: dict[str, list] = {a: [] for a in target}

    spec_info = []
    for pres in expr.preserved:
        spec_attrs = pres.real | pres.virtual
        order = tuple(a for a in target if a in spec_attrs)
        presence_attrs = tuple(
            a for a in order if a in (pres.virtual or pres.real)
        )
        spec_of = {a: pos for pos, a in enumerate(order)}
        spec_info.append((order, presence_attrs, spec_of))

    pads_total = 0
    for start, end in _run_boundaries(run_cols, n):
        sel = pred(columns, range(start, end))
        for a in target:
            col = columns[a]
            out_columns[a].extend(col[i] for i in sel)
        for order, presence_attrs, spec_of in spec_info:
            part_cols = [columns[a] for a in order]
            presence_cols = [columns[a] for a in presence_attrs]

            def part(i: int) -> tuple:
                return tuple(c[i] for c in part_cols)

            def present(i: int) -> bool:
                return any(c[i] is not NULL for c in presence_cols)

            emitted = {part(i) for i in sel if present(i)}
            pad_parts: list[tuple] = []
            for i in range(start, end):
                if present(i):
                    p = part(i)
                    if p not in emitted:
                        emitted.add(p)
                        pad_parts.append(p)
            if pad_parts:
                pads_total += len(pad_parts)
                for a in target:
                    col = out_columns[a]
                    pos = spec_of.get(a)
                    if pos is None:
                        col.extend([NULL] * len(pad_parts))
                    else:
                        col.extend(p[pos] for p in pad_parts)
    if pads_total:
        add_counter("gs_preserved_rows", pads_total)
    nrows = len(next(iter(out_columns.values()))) if target else 0
    return ColumnarRelation(child.real, child.virtual, out_columns, nrows)


def _generalized_selection(
    child: ColumnarRelation, expr: GenSelect
) -> ColumnarRelation:
    """σ*_p[preserved...] as set-difference over virtual-id columns.

    Pass 1 batch-evaluates the predicate; pass 2, per preserved
    sub-relation, gathers the part tuples (its real + virtual-id
    columns), subtracts the parts surviving in the qualifying rows,
    and appends the remainder null-padded -- linear in the input, no
    per-row dict handling.
    """
    n = len(child)
    columns = child.physical_columns()  # compact: physical == visible
    sel = compile_predicate(expr.predicate)(columns, range(n))
    selected = set(sel)
    target = child.all_attrs

    out_columns = {a: [columns[a][i] for i in sel] for a in target}
    for pres in expr.preserved:
        spec_attrs = pres.real | pres.virtual
        order = tuple(a for a in target if a in spec_attrs)
        part_cols = [columns[a] for a in order]
        parts = list(zip(*part_cols)) if part_cols else []
        presence_attrs = tuple(
            a for a in order if a in (pres.virtual or pres.real)
        )
        presence_cols = [columns[a] for a in presence_attrs]
        present = [
            any(v is not NULL for v in values)
            for values in zip(*presence_cols)
        ]
        surviving = {parts[i] for i in sel if present[i]}
        pad_parts: list[tuple] = []
        emitted = surviving  # absorb new parts as they are emitted
        for i in range(n):
            if present[i]:
                part = parts[i]
                if part not in emitted:
                    emitted.add(part)
                    pad_parts.append(part)
        if pad_parts:
            add_counter("gs_preserved_rows", len(pad_parts))
            spec_of = {a: pos for pos, a in enumerate(order)}
            for a in target:
                col = out_columns[a]
                pos = spec_of.get(a)
                if pos is None:
                    col.extend([NULL] * len(pad_parts))
                else:
                    col.extend(part[pos] for part in pad_parts)
    nrows = len(next(iter(out_columns.values()))) if target else 0
    return ColumnarRelation(child.real, child.virtual, out_columns, nrows)


# ---- padding repair --------------------------------------------------


def _adjust_padding(
    child: ColumnarRelation, witness: str, targets: Sequence[str]
) -> ColumnarRelation:
    real = Schema(a for a in child.real if a != witness)
    wcol = child.gather(witness)
    padded = [v == 0 for v in wcol]
    columns: dict[str, list] = {}
    for attr in real.attrs + child.virtual.attrs:
        col = child.gather(attr)
        if attr in targets:
            columns[attr] = [
                NULL if flag else v for flag, v in zip(padded, col)
            ]
        else:
            columns[attr] = col
    return ColumnarRelation(real, child.virtual, columns, len(child))
