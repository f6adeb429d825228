"""The optimizer: enumerate the reordering space, pick the cheapest.

The paper's Section 4 embeds the enumeration in a System-R style
dynamic program; our enumerator materializes the transformation
closure and costs each plan -- equivalent output, simpler to audit,
and small enough at paper-sized queries (hundreds to a few thousand
plans).  Both halves work per distinct subtree rather than per plan:
the closure memoizes each subtree's rewrites and conjunct deferrals
(:mod:`repro.core.transform`), and one :class:`CostModel` memoizes
each subtree's estimate and cost, so a plan that differs from its
neighbours in one spine costs about one spine of new work.  Ties in
cost go to the earlier plan in closure order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime -> optimizer)
    from repro.runtime.budget import Budget

from repro.core.pipeline import reorder_pipeline
from repro.errors import OptimizerInternalError
from repro.expr.nodes import Expr
from repro.optimizer.cost import CostModel
from repro.optimizer.stats import Statistics
from repro.runtime.tracing import add_counter, span


class OptimizerDeclined(OptimizerInternalError):
    """The planner declined the query before doing any work.

    Raised eagerly when ``max_relations`` says the query is too large
    for full closure enumeration -- the caller (the session ladder, or
    a direct API user) should route it to an enumeration tier
    (:mod:`repro.optimizer.tiers`) instead of letting the exponential
    enumeration burn its whole budget first.
    """


@dataclass
class OptimizationResult:
    """The chosen plan plus bookkeeping for reports."""

    best: Expr
    best_cost: float
    original_cost: float
    plans_considered: int
    ranked: list[tuple[float, Expr]]

    @property
    def improvement(self) -> float:
        """original/best cost ratio (>= 1 when optimization helps)."""
        if self.best_cost == 0:
            return 1.0 if self.original_cost == 0 else float("inf")
        return self.original_cost / self.best_cost


def optimize(
    query: Expr,
    stats: Statistics,
    max_plans: int = 5000,
    keep_ranked: int = 10,
    budget: "Budget | None" = None,
    max_relations: int | None = None,
) -> OptimizationResult:
    """Optimize ``query``: normalize, enumerate, cost, pick the minimum.

    With a ``budget``, both the enumeration and the costing loop run
    under cooperative checkpoints and raise the typed
    :class:`repro.errors.BudgetExceeded` family when a cap is hit.
    With ``max_relations``, queries joining more relations than that
    are declined *eagerly* with :class:`OptimizerDeclined` -- full
    closure enumeration is exponential, and a caller with a fallback
    (the session ladder, the enumeration tiers) is better served by an
    instant typed refusal than by a burned budget.
    """
    if max_relations is not None:
        n = len(query.base_names)
        if n > max_relations:
            raise OptimizerDeclined(
                f"query joins {n} relations, above the full-enumeration "
                f"ceiling of {max_relations}"
            )
    with span("optimize.enumerate"):
        plans = reorder_pipeline(query, max_plans=max_plans, budget=budget)
    model = CostModel(stats)
    scored = []
    with span("optimize.cost"):
        for i, plan in enumerate(plans):
            if budget is not None and i % 64 == 0:
                budget.check_deadline("optimize/costing")
            scored.append((model.cost(plan), i, plan))
        add_counter("plans_costed", len(scored))
    scored.sort(key=lambda t: (t[0], t[1]))
    best_cost, _, best = scored[0]
    return OptimizationResult(
        best=best,
        best_cost=best_cost,
        original_cost=model.cost(query),
        plans_considered=len(plans),
        ranked=[(c, p) for c, _, p in scored[:keep_ranked]],
    )
