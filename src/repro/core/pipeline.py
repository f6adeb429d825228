"""The end-to-end reordering pipeline (Section 4).

Step a) push aggregations to the root, deferring any predicate
conjunct that references an aggregated column (Example 3.1); step b)
enumerate all equivalent expression trees of the join core (complex
predicates broken up via generalized selection).  The optimizer picks
the cheapest tree; :func:`reorder_pipeline` yields them all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime -> core)
    from repro.runtime.budget import Budget

from repro.expr.nodes import (
    AdjustPadding,
    Expr,
    GenSelect,
    GroupBy,
    Project,
    Select,
)
from repro.core.aggregation import pull_up_aggregations
from repro.core.simplify import simplify_outer_joins
from repro.core.transform import enumerate_plans
from repro.expr.rewrite import with_children
from repro.runtime.tracing import span


def reorder_pipeline(
    query: Expr, max_plans: int = 20000, budget: "Budget | None" = None
) -> list[Expr]:
    """All equivalent plans for ``query``.

    The query is simplified, its aggregations are pulled to the root
    (predicates on aggregated columns deferred with generalized
    selections), and the join core below is enumerated by the rewrite
    closure.  Each returned plan is equivalent to ``query``.  An
    optional ``budget`` makes enumeration raise the typed
    :class:`repro.errors.BudgetExceeded` family instead of running
    unbounded (see :func:`repro.core.transform.enumerate_plans`).
    """
    with span("pipeline.normalize"):
        normalized = pull_up_aggregations(simplify_outer_joins(query))
    if budget is not None:
        budget.check_deadline("reorder_pipeline")

    # split the tree into (wrapper stack, join core): the core is the
    # part below the outermost GroupBy/GenSelect chain
    stack: list[Expr] = []
    core: Expr = normalized
    while isinstance(core, (GroupBy, GenSelect, AdjustPadding, Project, Select)):
        stack.append(core)
        core = core.children()[0]

    plans = []
    with span("pipeline.enumerate"):
        core_plans = enumerate_plans(core, max_plans=max_plans, budget=budget)
    for core_plan in core_plans:
        plan = core_plan
        for wrapper in reversed(stack):
            plan = with_children(wrapper, (plan,))
        plans.append(plan)
    # the as-written shape (lazy aggregation) remains a candidate: when
    # the eager/pushed-up form loses (unselective filters), the
    # optimizer must still be able to keep the original order
    if query not in plans:
        plans.append(query)
    if normalized not in plans:
        plans.append(normalized)
    return plans
