"""End-to-end pipeline tests (Section 4)."""

import random

from repro.core.pipeline import reorder_pipeline
from repro.expr import BaseRel, GroupBy, evaluate, inner, left_outer, to_algebra
from repro.expr.predicates import eq, make_conjunction
from repro.relalg.aggregates import count_star
from repro.workloads.random_db import random_database

R1 = BaseRel("r1", ("r1_a0", "r1_a1"))
R2 = BaseRel("r2", ("r2_a0", "r2_a1"))
R3 = BaseRel("r3", ("r3_a0", "r3_a1"))


class TestPipeline:
    def test_plans_equivalent_plain_joins(self):
        q = left_outer(
            inner(R1, R2, eq("r1_a0", "r2_a0")), R3, eq("r2_a1", "r3_a0")
        )
        plans = reorder_pipeline(q, max_plans=300)
        assert len(plans) > 1
        rng = random.Random(81)
        for _ in range(15):
            db = random_database(rng, ("r1", "r2", "r3"), null_probability=0.1)
            want = evaluate(q, db)
            for plan in plans[:50]:
                assert evaluate(plan, db).same_content(want), to_algebra(plan)

    def test_plans_equivalent_with_aggregation(self):
        g = GroupBy(R2, ("r2_a0",), (count_star("cnt"),), "g")
        q = left_outer(R1, g, eq("r1_a0", "r2_a0"))
        plans = reorder_pipeline(q, max_plans=100)
        assert len(plans) >= 1
        rng = random.Random(91)
        for _ in range(20):
            db = random_database(rng, ("r1", "r2"), null_probability=0.1)
            want = evaluate(q, db)
            for plan in plans:
                assert evaluate(plan, db).same_content(want), to_algebra(plan)

    def test_aggregation_query_exposes_join_core(self):
        """After the pipeline, the GP sits above the join core, so the

        core's joins are enumerable.
        """
        g = GroupBy(R2, ("r2_a0",), (count_star("cnt"),), "g")
        q = inner(
            left_outer(R1, g, eq("r1_a0", "r2_a0")),
            R3,
            eq("r1_a1", "r3_a0"),
        )
        plans = reorder_pipeline(q, max_plans=500)
        assert len(plans) > 1
        rng = random.Random(101)
        for _ in range(10):
            db = random_database(rng, ("r1", "r2", "r3"), null_probability=0.1)
            want = evaluate(q, db)
            for plan in plans[:40]:
                assert evaluate(plan, db).same_content(want), to_algebra(plan)


class TestEnumerationWorkGuard:
    def test_rule_applications_stay_per_distinct_subtree(self):
        """The x14 n=5 chain: 1472 plans, rules applied once per subtree.

        A rule pass over every node of every plan would need at least
        1472 plans x 9 nodes x 10 rules = 132,480 rule applications;
        the subtree memo needs 26,310.  The bound leaves headroom for
        rule changes but fails long before per-plan work comes back.
        """
        from repro.core.transform import LOCAL_RULES
        from repro.runtime.tracing import Tracer, trace_scope
        from repro.workloads.topologies import chain_query

        tracer = Tracer()
        with trace_scope(tracer):
            plans = reorder_pipeline(chain_query(5, complex_every=3), max_plans=2000)
        counters = tracer.find("pipeline.enumerate").counters
        assert len(plans) == counters["plans_admitted"] == 1472
        per_plan_floor = 1472 * 9 * len(LOCAL_RULES)
        assert counters["rule_applications"] <= 32_000 < per_plan_floor
        # deferrals are computed once per distinct multi-conjunct subtree
        assert counters["defer_conjunct_calls"] < counters["plans_admitted"]
