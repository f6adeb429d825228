"""Tests for the rewrite-closure plan enumerator.

The load-bearing check: every plan in the closure evaluates to the
same bag of rows as the seed, on randomized databases with NULLs and
empty relations.
"""

import random

import pytest

from repro.core.split import SplitError, defer_conjunct
from repro.core.transform import (
    GS_FREE_RULES,
    LOCAL_RULES,
    absorb_generalized_join,
    assoc_inner,
    commute,
    enumerate_plans,
    foj_assoc,
    generalized_join,
    loj_assoc,
    pull_join_into_loj,
    push_loj_out_of_join,
)
from repro.expr import (
    BaseRel,
    GenSelect,
    Join,
    JoinKind,
    evaluate,
    full_outer,
    inner,
    left_outer,
    to_algebra,
)
from repro.errors import PlanBudgetExceeded
from repro.expr.predicates import conjuncts_of, eq, make_conjunction
from repro.expr.rewrite import iter_nodes, replace_at, with_children
from repro.runtime import Budget
from repro.workloads.random_db import random_database, random_join_query

R1 = BaseRel("r1", ("r1_a0", "r1_a1"))
R2 = BaseRel("r2", ("r2_a0", "r2_a1"))
R3 = BaseRel("r3", ("r3_a0", "r3_a1"))

p12 = eq("r1_a0", "r2_a0")
p13 = eq("r1_a1", "r3_a1")
p23 = eq("r2_a1", "r3_a0")


def assert_closure_equivalent(seed, names, trials=40, seed_val=31, max_plans=400):
    plans = enumerate_plans(seed, max_plans=max_plans)
    assert seed in plans
    rng = random.Random(seed_val)
    dbs = [
        random_database(rng, names, null_probability=0.15) for _ in range(trials)
    ]
    references = [evaluate(seed, db) for db in dbs]
    for plan in plans:
        for db, want in zip(dbs, references):
            got = evaluate(plan, db)
            assert got.same_content(want), (
                f"plan not equivalent to seed:\n{to_algebra(plan)}\n"
                f"want:\n{want.to_text()}\ngot:\n{got.to_text()}"
            )
    return plans


class TestLocalRules:
    def test_commute_inner_and_full(self):
        j = inner(R1, R2, p12)
        (out,) = commute(j)
        assert out.left is R2 and out.kind is JoinKind.INNER
        f = full_outer(R1, R2, p12)
        (out,) = commute(f)
        assert out.kind is JoinKind.FULL

    def test_commute_mirrors_outer(self):
        j = left_outer(R1, R2, p12)
        (out,) = commute(j)
        assert out.kind is JoinKind.RIGHT and out.left is R2

    def test_assoc_inner_redistributes_atoms(self):
        j = inner(inner(R1, R2, p12), R3, make_conjunction([p13, p23]))
        outs = list(assoc_inner(j))
        assert outs, "expected a reassociation"
        for out in outs:
            assert out.left is R1

    def test_generalized_join_fires_on_blocked_shape(self):
        q = left_outer(R1, inner(R2, R3, p23), p12)
        outs = list(generalized_join(q))
        assert len(outs) == 1
        gs = outs[0]
        assert isinstance(gs, GenSelect)
        assert gs.predicate == p23
        # and the inverse restores the original
        restored = list(absorb_generalized_join(gs))
        assert q in restored

    def test_loj_assoc_both_directions(self):
        q = left_outer(left_outer(R1, R2, p12), R3, p23)
        outs = list(loj_assoc(q))
        assert any(
            isinstance(o.right, Join) and o.right.kind is JoinKind.LEFT
            for o in outs
        )


class TestGeneralizedJoinFull:
    def test_fires_and_is_equivalent(self):
        from repro.core.transform import generalized_join_full

        q = full_outer(R1, inner(R2, R3, p23), p12)
        outs = list(generalized_join_full(q))
        assert len(outs) == 1 and isinstance(outs[0], GenSelect)
        rng = random.Random(3)
        for _ in range(80):
            db = random_database(rng, ("r1", "r2", "r3"), null_probability=0.15)
            assert evaluate(outs[0], db).same_content(evaluate(q, db))

    def test_blocked_foj_over_join_reorderable(self):
        """r1 ↔ (r2 ⋈ r3): the FOJ variant opens the closure."""
        q = full_outer(R1, inner(R2, R3, p23), p12)
        plans = assert_closure_equivalent(q, ("r1", "r2", "r3"), max_plans=200)
        assert any(isinstance(p, GenSelect) for p in plans)


class TestHoistGenSelect:
    def test_hoists_and_is_equivalent(self):
        from repro.core.split import defer_conjunct
        from repro.core.transform import hoist_genselect

        inner_q = left_outer(
            R2, R3, make_conjunction([p23, eq("r2_a0", "r3_a1")])
        )
        gs = defer_conjunct(inner_q, (), eq("r2_a0", "r3_a1")).expr
        q = inner(gs, R1, eq("r2_a0", "r1_a0"))
        outs = list(hoist_genselect(q))
        assert outs and isinstance(outs[0], GenSelect)
        original = inner(inner_q, R1, eq("r2_a0", "r1_a0"))
        rng = random.Random(4)
        for _ in range(80):
            db = random_database(rng, ("r1", "r2", "r3"), null_probability=0.15)
            want = evaluate(original, db)
            assert evaluate(outs[0], db).same_content(want)
            assert evaluate(q, db).same_content(want)


class TestClosureEquivalence:
    def test_inner_chain(self):
        q = inner(inner(R1, R2, p12), R3, p23)
        plans = assert_closure_equivalent(q, ("r1", "r2", "r3"))
        # chain of three: both association orders reachable (x2 commutes)
        assert len(plans) >= 8

    def test_loj_chain(self):
        q = left_outer(left_outer(R1, R2, p12), R3, p23)
        assert_closure_equivalent(q, ("r1", "r2", "r3"))

    def test_blocked_loj_over_join(self):
        """r1 →p12 (r2 ⋈p23 r3): MGOJ-style plans must be in the closure

        and equivalent (this is the shape plain reordering cannot touch).
        """
        q = left_outer(R1, inner(R2, R3, p23), p12)
        plans = assert_closure_equivalent(q, ("r1", "r2", "r3"))
        assert any(isinstance(p, GenSelect) for p in plans)

    def test_foj_chain(self):
        q = full_outer(full_outer(R1, R2, p12), R3, p23)
        assert_closure_equivalent(q, ("r1", "r2", "r3"))

    def test_complex_predicate_loj(self):
        """(r1 → r2) →^{p13∧p23} r3: deferral breaks the complex

        predicate; the closure contains reorderings impossible without GS.
        """
        q = left_outer(left_outer(R1, R2, p12), R3, make_conjunction([p13, p23]))
        plans = assert_closure_equivalent(q, ("r1", "r2", "r3"))
        assert any(isinstance(p, GenSelect) for p in plans)

    def test_mixed_kinds(self):
        q = inner(left_outer(R1, R2, p12), R3, p13)
        assert_closure_equivalent(q, ("r1", "r2", "r3"))


class TestClosureCompleteness:
    def test_closure_realizes_exactly_the_def32_space_on_q4(self):
        """Every Definition 3.2 association tree of Q4 is realized by

        some operator-assigned plan in the closure, and the closure
        produces no combination order outside the definition -- the
        reproduction's completeness evidence for the paper's headline
        claim ("complete enumeration").
        """
        from repro.core.assoc_tree import (
            AssocLeaf,
            AssocNode,
            association_trees,
        )
        from repro.hypergraph import hypergraph_of
        from tests.hypergraph.test_hypergraph import q4_expression

        def tree_of_plan(expr):
            if isinstance(expr, Join):
                return AssocNode(tree_of_plan(expr.left), tree_of_plan(expr.right))
            if isinstance(expr, BaseRel):
                return AssocLeaf(expr.name)
            return tree_of_plan(expr.children()[0])

        q4 = q4_expression()
        want = {
            str(t) for t in association_trees(hypergraph_of(q4), breakup=True)
        }
        plans = enumerate_plans(q4, max_plans=20000)
        got = {str(tree_of_plan(p)) for p in plans}
        assert got == want


class TestClosureOnQ4:
    def test_q4_closure_contains_breakup_plans(self):
        """Q4's closure reaches plans joining r2 with r4 (or r5) before

        the rest -- the paper's headline capability.
        """
        from tests.hypergraph.test_hypergraph import q4_expression

        q4 = q4_expression()
        plans = enumerate_plans(q4, max_plans=3000)

        def joins_pair_first(plan, pair):
            for node in plan.walk():
                if isinstance(node, Join):
                    names = node.left.base_names | node.right.base_names
                    if names == pair:
                        return True
            return False

        assert any(joins_pair_first(p, frozenset({"r2", "r4"})) for p in plans)
        assert any(joins_pair_first(p, frozenset({"r2", "r5"})) for p in plans)

    def test_q4_closure_equivalence_sampled(self):
        from tests.hypergraph.test_hypergraph import q4_expression

        q4 = q4_expression()
        plans = enumerate_plans(q4, max_plans=800)
        rng = random.Random(7)
        sample = rng.sample(plans, min(60, len(plans)))
        names = ("r1", "r2", "r3", "r4", "r5")
        for trial in range(12):
            db = _q4_database(rng)
            want = evaluate(q4, db)
            for plan in sample:
                got = evaluate(plan, db)
                assert got.same_content(want), to_algebra(plan)


def _q4_database(rng):
    """Random database matching q4_expression's schemas."""
    from repro.expr import Database
    from repro.relalg import Relation

    def rows(attrs, n):
        return [
            tuple(rng.choice((1, 2)) for _ in attrs) for _ in range(n)
        ]

    schemas = {
        "r1": ["a1"],
        "r2": ["a2", "b2"],
        "r3": ["a3"],
        "r4": ["a4"],
        "r5": ["a5", "b5", "c5"],
    }
    db = Database()
    for name, attrs in schemas.items():
        db.add(name, Relation.base(name, attrs, rows(attrs, rng.randint(0, 3))))
    return db


# ---- the ordered-closure oracle ----
#
# The path-based closure the memoized enumerator replaced: every rule
# at every node of every plan, every conjunct deferral walked from its
# join up to the core's root.  Kept here as the reference that
# ``enumerate_plans`` must match plan for plan, order included.


def _reference_variants(expr, rules, with_deferral):
    for path, node in iter_nodes(expr):
        for rule in rules:
            for replacement in rule(node):
                yield replace_at(expr, path, replacement)
    if not with_deferral:
        return
    wrappers = []
    core = expr
    while not isinstance(core, Join) and len(core.children()) == 1:
        wrappers.append(core)
        core = core.children()[0]
    if not isinstance(core, Join):
        return
    for path, node in iter_nodes(core):
        if not isinstance(node, Join):
            continue
        atoms = conjuncts_of(node.predicate)
        if len(atoms) < 2:
            continue
        for atom in atoms:
            try:
                rebuilt = defer_conjunct(core, path, atom).expr
            except SplitError:
                continue
            for wrapper in reversed(wrappers):
                rebuilt = with_children(wrapper, (rebuilt,))
            yield rebuilt


def reference_closure(seed, max_plans=20000, with_gs=True, budget=None):
    rules = LOCAL_RULES if with_gs else GS_FREE_RULES
    if budget is not None:
        budget.charge_plans(1, "reference")
    seen = {seed: None}
    frontier = [seed]
    while frontier:
        expr = frontier.pop()
        for variant in list(_reference_variants(expr, rules, with_gs)):
            if variant not in seen:
                if len(seen) >= max_plans:
                    return list(seen)
                if budget is not None:
                    budget.charge_plans(1, "reference")
                seen[variant] = None
                frontier.append(variant)
    return list(seen)


def _paper_class_seeds(count, seed=2024):
    """Seeded 3-4 relation outer-join cores, most with complex predicates."""
    rng = random.Random(seed)
    return [
        random_join_query(
            rng, 3 + i % 2, outer_probability=0.6, complex_probability=0.7
        )
        for i in range(count)
    ]


def _paper_examples():
    from tests.hypergraph.test_hypergraph import q4_expression

    from repro.workloads.topologies import chain_query

    return [
        left_outer(R1, inner(R2, R3, p23), p12),
        full_outer(R1, inner(R2, R3, p23), p12),
        left_outer(left_outer(R1, R2, p12), R3, make_conjunction([p13, p23])),
        inner(inner(R1, R2, p12), R3, make_conjunction([p13, p23])),
        q4_expression(),
        chain_query(4, complex_every=2),
    ]


class TestOrderedClosureOracle:
    @pytest.mark.parametrize("index", range(6))
    def test_paper_examples(self, index):
        seed = _paper_examples()[index]
        assert enumerate_plans(seed) == reference_closure(seed)
        assert enumerate_plans(seed, with_gs=False) == reference_closure(
            seed, with_gs=False
        )

    def test_seeded_paper_class_queries(self):
        seeds = _paper_class_seeds(200)
        complex_seeds = [
            s
            for s in seeds
            if any(
                isinstance(n, Join) and len(conjuncts_of(n.predicate)) > 1
                for n in s.walk()
            )
        ]
        assert len(complex_seeds) >= 100
        for seed in seeds:
            got = enumerate_plans(seed, max_plans=400)
            want = reference_closure(seed, max_plans=400)
            assert got == want, to_algebra(seed)

    def test_wrapped_cores(self):
        """A plan rooted in a GenSelect stack defers below the wrappers."""
        checked = 0
        for seed in _paper_class_seeds(40, seed=7):
            joins = [
                (path, node)
                for path, node in iter_nodes(seed)
                if isinstance(node, Join) and len(conjuncts_of(node.predicate)) > 1
            ]
            if not joins:
                continue
            path, node = joins[0]
            try:
                wrapped = defer_conjunct(
                    seed, path, conjuncts_of(node.predicate)[0]
                ).expr
            except SplitError:
                continue
            assert enumerate_plans(wrapped, max_plans=2000) == reference_closure(
                wrapped, max_plans=2000
            )
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("cap", [1, 2, 7, 50, 333])
    def test_max_plans_truncation(self, cap):
        from tests.hypergraph.test_hypergraph import q4_expression

        seed = q4_expression()
        got = enumerate_plans(seed, max_plans=cap)
        assert len(got) == cap
        assert got == reference_closure(seed, max_plans=cap)

    @pytest.mark.parametrize("cap", [1, 5, 60, 400])
    def test_plan_budget_trips_at_the_same_count(self, cap):
        from tests.hypergraph.test_hypergraph import q4_expression

        seed = q4_expression()
        ours, theirs = Budget(max_plans=cap), Budget(max_plans=cap)
        with pytest.raises(PlanBudgetExceeded):
            enumerate_plans(seed, budget=ours)
        with pytest.raises(PlanBudgetExceeded):
            reference_closure(seed, budget=theirs)
        assert ours.plans == theirs.plans == cap + 1
