"""Textbook (Selinger-style) cardinality estimation.

``estimate(expr, stats)`` returns an :class:`Estimate` for every node:
output cardinality plus per-attribute distinct counts, which the
selectivity formulas consume:

* equality between attributes: ``1 / max(d(a), d(b))``;
* equality with a constant: ``1 / d(a)``;
* range comparisons: 1/3;  inequality (``<>``): ``1 - 1/max(d)``;
* conjunctions multiply (independence assumption).

Outer joins add the preserved side's unmatched estimate; generalized
selection is costed like the MGOJ the paper equates it with: selected
rows plus the expected padding of each preserved group.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.expr.nodes import (
    AdjustPadding,
    BaseRel,
    Expr,
    GenSelect,
    GroupBy,
    Join,
    JoinKind,
    Project,
    Rename,
    Select,
    SemiJoin,
    UnionAll,
)
from repro.expr.predicates import (
    Arith,
    Col,
    Comparison,
    Const,
    Predicate,
    conjuncts_of,
)
from repro.optimizer.stats import Statistics

_RANGE_SELECTIVITY = 1 / 3


@dataclass
class Estimate:
    """Estimated output cardinality, distinct counts, and frequencies.

    ``freq`` maps attribute -> (value counts, total) copied from the
    base table the attribute originates in; it is carried through
    joins and selections as an (independence-assumption) approximation
    of the value distribution.
    """

    rows: float
    distinct: dict[str, float]
    freq: dict[str, tuple[dict, int]] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.freq is None:
            self.freq = {}

    def distinct_of(self, attr: str) -> float:
        return max(1.0, self.distinct.get(attr, max(1.0, self.rows / 10)))

    def fraction(self, attr: str, op: str, value) -> float | None:
        """Fraction of base values satisfying ``attr op value``; None

        when no frequency information is available.
        """
        from repro.relalg.nulls import Truth, compare

        if attr not in self.freq:
            return None
        counts, total = self.freq[attr]
        if total <= 0:
            return None
        matching = sum(
            c for v, c in counts.items() if compare(v, op, value) is Truth.TRUE
        )
        return matching / total


def estimate(
    expr: Expr, stats: Statistics, memo: dict[Expr, Estimate] | None = None
) -> Estimate:
    """Estimate the output of ``expr`` under ``stats``.

    ``memo`` (node -> Estimate) shares work across structurally equal
    subtrees; the enumerator's plans overlap almost entirely, so the
    optimizer passes one memo across the whole costing loop.  Cached
    Estimates are shared -- callers must treat them as immutable.

    When ``stats`` carries a feedback store (see
    :class:`repro.optimizer.stats.Statistics`), every node's static
    estimate is corrected by observed cardinalities before parents
    consume it: an exact subtree observation overrides the guess
    outright, and a per-predicate selectivity factor transfers to
    every re-ordered plan that evaluates the same predicate.
    """
    if memo is None:
        return _corrected(_estimate(expr, stats, None), expr, stats)
    found = memo.get(expr)
    if found is None:
        found = _corrected(_estimate(expr, stats, memo), expr, stats)
        memo[expr] = found
    return found


def _corrected(est: Estimate, expr: Expr, stats: Statistics) -> Estimate:
    """Apply cardinality feedback, when a store is attached."""
    feedback = getattr(stats, "feedback", None)
    if feedback is None:
        return est
    rows = feedback.corrected_rows(expr, est.rows, stats.version)
    if rows is None or rows == est.rows:
        return est
    return _scaled(est, rows)


def _estimate(expr: Expr, stats: Statistics, memo) -> Estimate:
    if isinstance(expr, BaseRel):
        table = stats.table(expr.name)
        rows = float(table.row_count)
        distinct = {a: float(table.distinct_of(a)) for a in expr.attrs}
        distinct[expr.virtual_attrs[0]] = rows
        freq = {
            a: (counts, table.row_count)
            for a, counts in table.frequencies.items()
        }
        return Estimate(rows, distinct, freq)

    if isinstance(expr, Rename):
        child = estimate(expr.child, stats, memo)
        mapping = dict(expr.mapping)
        distinct = {mapping.get(a, a): d for a, d in child.distinct.items()}
        freq = {mapping.get(a, a): f for a, f in child.freq.items()}
        return Estimate(child.rows, distinct, freq)

    if isinstance(expr, Select):
        child = estimate(expr.child, stats, memo)
        sel = selectivity(expr.predicate, child)
        return _scaled(child, child.rows * sel)

    if isinstance(expr, Project):
        child = estimate(expr.child, stats, memo)
        keep = set(expr.all_attrs)
        distinct = {a: d for a, d in child.distinct.items() if a in keep}
        rows = child.rows
        if expr.distinct:
            cap = 1.0
            for a in expr.attrs:
                cap *= child.distinct_of(a)
            rows = min(rows, cap)
        freq = {a: f for a, f in child.freq.items() if a in keep}
        return Estimate(rows, distinct, freq)

    if isinstance(expr, Join):
        left = estimate(expr.left, stats, memo)
        right = estimate(expr.right, stats, memo)
        merged = {**left.distinct, **right.distinct}
        both = Estimate(left.rows * right.rows, merged, {**left.freq, **right.freq})
        sel = selectivity(expr.predicate, both)
        inner_rows = left.rows * right.rows * sel
        rows = inner_rows
        if expr.kind.preserves_left:
            rows += max(0.0, left.rows - inner_rows)
        if expr.kind.preserves_right:
            rows += max(0.0, right.rows - inner_rows)
        return Estimate(rows, _capped(merged, rows), both.freq)

    if isinstance(expr, UnionAll):
        left = estimate(expr.left, stats, memo)
        right = estimate(expr.right, stats, memo)
        distinct = {
            a: left.distinct_of(a) + right.distinct_of(a)
            for a in set(left.distinct) | set(right.distinct)
        }
        return Estimate(left.rows + right.rows, distinct, {**left.freq, **right.freq})

    if isinstance(expr, SemiJoin):
        left = estimate(expr.left, stats, memo)
        right = estimate(expr.right, stats, memo)
        both = Estimate(
            left.rows * right.rows,
            {**left.distinct, **right.distinct},
            {**left.freq, **right.freq},
        )
        sel = selectivity(expr.predicate, both)
        match_fraction = min(1.0, sel * max(right.rows, 0.0))
        if expr.anti:
            match_fraction = 1.0 - match_fraction
        return _scaled(left, left.rows * match_fraction)

    if isinstance(expr, GroupBy):
        child = estimate(expr.child, stats, memo)
        groups = 1.0
        for key in expr.group_by:
            groups *= child.distinct_of(key)
        groups = min(groups, child.rows)
        distinct = {k: min(child.distinct_of(k), groups) for k in expr.group_by}
        for spec in expr.aggregates:
            distinct[spec.output] = groups
        distinct[expr.virtual_attrs[-1]] = groups
        freq = {a: f for a, f in child.freq.items() if a in expr.group_by}
        return Estimate(groups, distinct, freq)

    if isinstance(expr, GenSelect):
        child = estimate(expr.child, stats, memo)
        sel = selectivity(expr.predicate, child)
        rows = child.rows * sel
        for pres in expr.preserved:
            # expected padding: the group's tuple count scaled by the
            # chance that none of its extensions survives
            group_rows = 1.0
            for attr in sorted(pres.virtual):
                group_rows = max(group_rows, child.distinct_of(attr))
            rows += group_rows * (1.0 - sel)
        return _scaled(child, rows)

    if isinstance(expr, AdjustPadding):
        child = estimate(expr.child, stats, memo)
        distinct = {
            a: d for a, d in child.distinct.items() if a != expr.witness
        }
        freq = {a: f for a, f in child.freq.items() if a != expr.witness}
        return Estimate(child.rows, distinct, freq)

    # unknown nodes: propagate the first child
    children = expr.children()
    if children:
        return estimate(children[0], stats, memo)
    raise TypeError(f"cannot estimate {type(expr).__name__}")


def _scaled(child: Estimate, rows: float) -> Estimate:
    rows = max(0.0, rows)
    return Estimate(rows, _capped(child.distinct, rows), child.freq)


def _capped(distinct: dict[str, float], rows: float) -> dict[str, float]:
    """Distinct counts capped at ``rows`` (all zero when ``rows`` is).

    Estimates are immutable once built, so when no count exceeds
    ``rows`` the map itself is shared instead of copied.
    """
    if rows and (not distinct or max(distinct.values()) <= rows):
        return distinct
    return {a: min(d, rows) if rows else 0.0 for a, d in distinct.items()}


# A hard-zero selectivity would zero the cost of every plan containing
# the atom, making the DP/closure choice among those plans arbitrary
# (any tie-break wins).  Flooring at an epsilon keeps relative costs
# ordered while still treating the atom as extremely selective.
_MIN_SELECTIVITY = 1e-9


def selectivity(predicate: Predicate, inputs: Estimate) -> float:
    """Estimated fraction of rows satisfying ``predicate``."""
    sel = 1.0
    for atom in conjuncts_of(predicate):
        sel *= _atom_selectivity(atom, inputs)
    return min(1.0, max(_MIN_SELECTIVITY, sel))


def _atom_selectivity(atom: Predicate, inputs: Estimate) -> float:
    if not isinstance(atom, Comparison):
        return _RANGE_SELECTIVITY
    left_attr = _single_attr(atom.left)
    right_attr = _single_attr(atom.right)
    const = _constant_of(atom.right) if left_attr else _constant_of(atom.left)
    attr = left_attr or right_attr
    if attr and const is not _NO_CONST and not (left_attr and right_attr):
        fraction = inputs.fraction(attr, atom.op if left_attr else _flip(atom.op), const)
        if fraction is not None:
            return fraction
    if atom.op == "=":
        if left_attr and right_attr:
            return 1.0 / max(
                inputs.distinct_of(left_attr), inputs.distinct_of(right_attr)
            )
        if attr:
            return 1.0 / inputs.distinct_of(attr)
        return 0.5
    if atom.op in ("<>", "!="):
        return 1.0 - _atom_selectivity(
            Comparison(atom.left, "=", atom.right), inputs
        )
    return _RANGE_SELECTIVITY


_NO_CONST = object()

_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>", "!=": "!="}


def _flip(op: str) -> str:
    return _FLIPPED[op]


def _constant_of(term):
    if isinstance(term, Const):
        return term.literal
    return _NO_CONST


def _single_attr(term) -> str | None:
    if isinstance(term, Col):
        return term.name
    if isinstance(term, Arith):
        attrs = term.attrs
        if len(attrs) == 1:
            return next(iter(attrs))
    return None
